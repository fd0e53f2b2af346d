// NEON backend: 2 lanes of radix-2^32 CIOS Montgomery arithmetic.
//
// Structurally a 2-lane mirror of the AVX2 backend: vmull_u32 multiplies
// 32-bit limbs into 64-bit lanes, 2k limbs per operand, and R32 = R64 so
// the lanes share the scalar kernels' Montgomery domain with no correction
// constants. Same constant-time discipline: branchless masked subtract,
// full-table masked window scan, lockstep fixed-width walk.
#include "wide/fixword/fixword.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstring>
#include <vector>

namespace kgrid::wide::fixword {

namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kMax32 = 128;  // 2·64 limbs: 4096-bit operands

/// 64-bit-lane product of the low 32 bits of each lane.
inline uint64x2_t mul_lo32(uint64x2_t x, uint64x2_t y) {
  return vmull_u32(vmovn_u64(x), vmovn_u64(y));
}

/// Lane-wise bitwise NOT.
inline uint64x2_t vmvnq_u32_as_u64(uint64x2_t x) {
  return vreinterpretq_u64_u32(vmvnq_u32(vreinterpretq_u32_u64(x)));
}

/// out = a*b*R^-1 mod m over 2 lanes, limb-major 32-bit limbs in 64-bit
/// vector elements. Inputs fully reduced; output fully reduced. Safe for
/// out aliasing a or b.
void mont32(const uint64x2_t* m, uint64x2_t mp, std::size_t K,
            const uint64x2_t* a, const uint64x2_t* b, uint64x2_t* out) {
  const uint64x2_t lo32 = vdupq_n_u64(0xffffffffu);
  uint64x2_t t[kMax32 + 2];
  for (std::size_t j = 0; j <= K + 1; ++j) t[j] = vdupq_n_u64(0);
  for (std::size_t i = 0; i < K; ++i) {
    const uint64x2_t ai = a[i];
    uint64x2_t carry = vdupq_n_u64(0);
    for (std::size_t j = 0; j < K; ++j) {
      const uint64x2_t cur =
          vaddq_u64(vaddq_u64(mul_lo32(ai, b[j]), t[j]), carry);
      t[j] = vandq_u64(cur, lo32);
      carry = vshrq_n_u64(cur, 32);
    }
    uint64x2_t top = vaddq_u64(t[K], carry);
    t[K] = vandq_u64(top, lo32);
    t[K + 1] = vaddq_u64(t[K + 1], vshrq_n_u64(top, 32));

    const uint64x2_t u = vandq_u64(mul_lo32(t[0], mp), lo32);
    uint64x2_t cur = vaddq_u64(mul_lo32(u, m[0]), t[0]);
    carry = vshrq_n_u64(cur, 32);
    for (std::size_t j = 1; j < K; ++j) {
      cur = vaddq_u64(vaddq_u64(mul_lo32(u, m[j]), t[j]), carry);
      t[j - 1] = vandq_u64(cur, lo32);
      carry = vshrq_n_u64(cur, 32);
    }
    top = vaddq_u64(t[K], carry);
    t[K - 1] = vandq_u64(top, lo32);
    t[K] = vaddq_u64(t[K + 1], vshrq_n_u64(top, 32));
    t[K + 1] = vdupq_n_u64(0);
  }
  // Branchless conditional subtract per lane.
  uint64x2_t s[kMax32];
  uint64x2_t borrow = vdupq_n_u64(0);
  for (std::size_t j = 0; j < K; ++j) {
    const uint64x2_t d = vsubq_u64(vsubq_u64(t[j], m[j]), borrow);
    s[j] = vandq_u64(d, lo32);
    borrow = vshrq_n_u64(d, 63);
  }
  const uint64x2_t no_borrow = vceqq_u64(borrow, vdupq_n_u64(0));
  const uint64x2_t top_set =
      vmvnq_u32_as_u64(vceqq_u64(t[K], vdupq_n_u64(0)));
  const uint64x2_t keep_sub = vorrq_u64(no_borrow, top_set);
  for (std::size_t j = 0; j < K; ++j)
    out[j] = vbslq_u64(keep_sub, s[j], t[j]);
}

/// Broadcast the modulus' 32-bit limbs into limb-major vector form.
void splat_m(const MontCtx& c, uint64x2_t* out) {
  for (std::size_t j = 0; j < c.m32.size(); ++j)
    out[j] = vdupq_n_u64(c.m32[j]);
}

/// Gather up to 2 radix-64 operands into limb-major 32-bit lanes; rows past
/// n replicate the last operand (their outputs are discarded).
void load_lanes(const MontCtx& c, const u64* const* ptrs, std::size_t n,
                uint64x2_t* out) {
  const std::size_t K = 2 * c.k;
  u64 row[kLanes];
  for (std::size_t j = 0; j < K; ++j) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const u64 w = ptrs[l < n ? l : n - 1][j / 2];
      row[l] = (j & 1) ? (w >> 32) : (w & 0xffffffffu);
    }
    out[j] = vld1q_u64(row);
  }
}

/// Scatter the first n lanes back to radix-64 buffers.
void store_lanes(const MontCtx& c, const uint64x2_t* in, u64* const* ptrs,
                 std::size_t n) {
  u64 lo[kLanes], hi[kLanes];
  for (std::size_t w = 0; w < c.k; ++w) {
    vst1q_u64(lo, in[2 * w]);
    vst1q_u64(hi, in[2 * w + 1]);
    for (std::size_t l = 0; l < n; ++l) ptrs[l][w] = lo[l] | (hi[l] << 32);
  }
}

class NeonBackend final : public Backend {
 public:
  std::string_view name() const override { return "neon"; }
  std::size_t lanes() const override { return kLanes; }
  bool available() const override { return true; }  // baseline on aarch64

  void mont_mul_batch(const MontCtx& c, const u64* const* a,
                      const u64* const* b, u64* const* out,
                      std::size_t n) const override {
    const std::size_t K = 2 * c.k;
    uint64x2_t vm[kMax32];
    splat_m(c, vm);
    const uint64x2_t mp = vdupq_n_u64(c.m_prime32);
    uint64x2_t va[kMax32], vb[kMax32];
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t cnt = n - base < kLanes ? n - base : kLanes;
      load_lanes(c, a + base, cnt, va);
      load_lanes(c, b + base, cnt, vb);
      mont32(vm, mp, K, va, vb, va);
      store_lanes(c, va, out + base, cnt);
    }
  }

  void from_mont_batch(const MontCtx& c, const u64* const* in,
                       u64* const* out, std::size_t n) const override {
    const std::size_t K = 2 * c.k;
    uint64x2_t vm[kMax32];
    splat_m(c, vm);
    const uint64x2_t mp = vdupq_n_u64(c.m_prime32);
    uint64x2_t vx[kMax32], vone[kMax32];
    vone[0] = vdupq_n_u64(1);
    for (std::size_t j = 1; j < K; ++j) vone[j] = vdupq_n_u64(0);
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t cnt = n - base < kLanes ? n - base : kLanes;
      load_lanes(c, in + base, cnt, vx);
      mont32(vm, mp, K, vx, vone, vx);
      store_lanes(c, vx, out + base, cnt);
    }
  }

  void pow_batch(const MontCtx* const* ctxs, const u64* const* bases,
                 const u64* exps, std::size_t exp_limbs, u64* const* out,
                 std::size_t n) const override {
    for_each_context_run(ctxs, n, [&](std::size_t first, std::size_t cnt) {
      pow_run(*ctxs[first], bases + first, exps + first * exp_limbs,
              exp_limbs, out + first, cnt);
    });
  }

 private:
  /// pow_batch over n items that share the context c.
  void pow_run(const MontCtx& c, const u64* const* bases, const u64* exps,
               std::size_t exp_limbs, u64* const* out, std::size_t n) const {
    const std::size_t K = 2 * c.k;
    uint64x2_t vm[kMax32];
    splat_m(c, vm);
    const uint64x2_t mp = vdupq_n_u64(c.m_prime32);
    constexpr std::size_t kTable = std::size_t{1} << kWindowBits;
    std::vector<uint64x2_t> table(kTable * K);
    std::vector<uint64x2_t> acc(K), sel(K);
    const u64* one_ptrs[kLanes] = {c.one.data(), c.one.data()};

    for (std::size_t first = 0; first < n; first += kLanes) {
      const std::size_t cnt = n - first < kLanes ? n - first : kLanes;
      uint64x2_t* t0 = table.data();
      load_lanes(c, one_ptrs, kLanes, t0);  // T[0] = Montgomery form of 1
      load_lanes(c, bases + first, cnt, t0 + K);
      for (std::size_t e = 2; e < kTable; ++e)
        mont32(vm, mp, K, t0 + (e - 1) * K, t0 + K, t0 + e * K);

      for (std::size_t j = 0; j < K; ++j) acc[j] = t0[j];
      const std::size_t windows = exp_limbs * (64 / kWindowBits);
      u64 wrow[kLanes];
      for (std::size_t wi = windows; wi-- > 0;) {
        for (int s = 0; s < kWindowBits; ++s)
          mont32(vm, mp, K, acc.data(), acc.data(), acc.data());
        const std::size_t limb = wi / 16;
        const unsigned shift = (wi * kWindowBits) & 63;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t row = l < cnt ? l : cnt - 1;
          wrow[l] = (exps[(first + row) * exp_limbs + limb] >> shift) & 0xF;
        }
        const uint64x2_t wv = vld1q_u64(wrow);
        // Full-table masked scan — no secret-indexed load.
        for (std::size_t j = 0; j < K; ++j) sel[j] = t0[j];
        for (std::size_t e = 1; e < kTable; ++e) {
          const uint64x2_t hit = vceqq_u64(wv, vdupq_n_u64(e));
          for (std::size_t j = 0; j < K; ++j)
            sel[j] = vbslq_u64(hit, t0[e * K + j], sel[j]);
        }
        mont32(vm, mp, K, acc.data(), sel.data(), acc.data());
      }
      store_lanes(c, acc.data(), out + first, cnt);
    }
  }
};

}  // namespace

const Backend* neon_backend_instance() {
  static const NeonBackend instance;
  return &instance;
}

}  // namespace kgrid::wide::fixword

#endif  // __aarch64__
