// AVX2 backend: 4 lanes of radix-2^32 CIOS Montgomery arithmetic.
//
// vpmuludq multiplies 32-bit limbs into 64-bit lanes, so each lane works in
// radix 2^32 with 2k limbs. Because R32 = 2^(32·2k) equals R64, the lanes
// live in the same Montgomery domain as the scalar kernels — no correction
// constants, and m'_32 is just the low 32 bits of m'_64. Carries are
// propagated every step (a 32x32 product fills the 64-bit accumulator, so
// there is no deferral headroom like IFMA's); the win is purely the 4-way
// batch parallelism.
//
// Constant-time: identical discipline to the scalar backend — branchless
// masked subtract, full-table masked window scan, lockstep fixed-width walk.
#include "wide/fixword/fixword.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstring>
#include <vector>

namespace kgrid::wide::fixword {

namespace {

constexpr std::size_t kLanes = 4;
constexpr std::size_t kMax32 = 128;  // 2·64 limbs: 4096-bit operands

/// out = a*b*R^-1 mod m over 4 lanes, limb-major 32-bit limbs in 64-bit
/// vector elements. Inputs fully reduced; output fully reduced. Safe for
/// out aliasing a or b.
void mont32(const __m256i* m, __m256i mp, std::size_t K, const __m256i* a,
            const __m256i* b, __m256i* out) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  __m256i t[kMax32 + 2];
  for (std::size_t j = 0; j <= K + 1; ++j) t[j] = _mm256_setzero_si256();
  for (std::size_t i = 0; i < K; ++i) {
    const __m256i ai = a[i];
    __m256i carry = _mm256_setzero_si256();
    for (std::size_t j = 0; j < K; ++j) {
      const __m256i cur = _mm256_add_epi64(
          _mm256_add_epi64(_mm256_mul_epu32(ai, b[j]), t[j]), carry);
      t[j] = _mm256_and_si256(cur, lo32);
      carry = _mm256_srli_epi64(cur, 32);
    }
    __m256i top = _mm256_add_epi64(t[K], carry);
    t[K] = _mm256_and_si256(top, lo32);
    t[K + 1] = _mm256_add_epi64(t[K + 1], _mm256_srli_epi64(top, 32));

    const __m256i u = _mm256_and_si256(_mm256_mul_epu32(t[0], mp), lo32);
    __m256i cur = _mm256_add_epi64(_mm256_mul_epu32(u, m[0]), t[0]);
    carry = _mm256_srli_epi64(cur, 32);
    for (std::size_t j = 1; j < K; ++j) {
      cur = _mm256_add_epi64(
          _mm256_add_epi64(_mm256_mul_epu32(u, m[j]), t[j]), carry);
      t[j - 1] = _mm256_and_si256(cur, lo32);
      carry = _mm256_srli_epi64(cur, 32);
    }
    top = _mm256_add_epi64(t[K], carry);
    t[K - 1] = _mm256_and_si256(top, lo32);
    t[K] = _mm256_add_epi64(t[K + 1], _mm256_srli_epi64(top, 32));
    t[K + 1] = _mm256_setzero_si256();
  }
  // Branchless conditional subtract per lane.
  __m256i s[kMax32];
  __m256i borrow = _mm256_setzero_si256();
  for (std::size_t j = 0; j < K; ++j) {
    const __m256i d = _mm256_sub_epi64(_mm256_sub_epi64(t[j], m[j]), borrow);
    s[j] = _mm256_and_si256(d, lo32);
    borrow = _mm256_srli_epi64(d, 63);
  }
  const __m256i no_borrow =
      _mm256_cmpeq_epi64(borrow, _mm256_setzero_si256());
  const __m256i top_set = _mm256_xor_si256(
      _mm256_cmpeq_epi64(t[K], _mm256_setzero_si256()),
      _mm256_set1_epi64x(-1));
  const __m256i keep_sub = _mm256_or_si256(no_borrow, top_set);
  for (std::size_t j = 0; j < K; ++j)
    out[j] = _mm256_blendv_epi8(t[j], s[j], keep_sub);
}

/// Broadcast the modulus' 32-bit limbs into limb-major vector form.
void splat_m(const MontCtx& c, __m256i* out) {
  for (std::size_t j = 0; j < c.m32.size(); ++j)
    out[j] = _mm256_set1_epi64x(static_cast<long long>(c.m32[j]));
}

/// Gather up to 4 radix-64 operands into limb-major 32-bit lanes; rows past
/// n replicate the last operand (their outputs are discarded).
void load_lanes(const MontCtx& c, const u64* const* ptrs, std::size_t n,
                __m256i* out) {
  const std::size_t K = 2 * c.k;
  alignas(32) u64 row[kLanes];
  for (std::size_t j = 0; j < K; ++j) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const u64 w = ptrs[l < n ? l : n - 1][j / 2];
      row[l] = (j & 1) ? (w >> 32) : (w & 0xffffffffu);
    }
    out[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(row));
  }
}

/// Scatter the first n lanes back to radix-64 buffers.
void store_lanes(const MontCtx& c, const __m256i* in, u64* const* ptrs,
                 std::size_t n) {
  alignas(32) u64 lo[kLanes], hi[kLanes];
  for (std::size_t w = 0; w < c.k; ++w) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lo), in[2 * w]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(hi), in[2 * w + 1]);
    for (std::size_t l = 0; l < n; ++l) ptrs[l][w] = lo[l] | (hi[l] << 32);
  }
}

class Avx2Backend final : public Backend {
 public:
  std::string_view name() const override { return "avx2"; }
  std::size_t lanes() const override { return kLanes; }
  bool available() const override { return __builtin_cpu_supports("avx2"); }

  void mont_mul_batch(const MontCtx& c, const u64* const* a,
                      const u64* const* b, u64* const* out,
                      std::size_t n) const override {
    const std::size_t K = 2 * c.k;
    __m256i vm[kMax32];
    splat_m(c, vm);
    const __m256i mp =
        _mm256_set1_epi64x(static_cast<long long>(c.m_prime32));
    __m256i va[kMax32], vb[kMax32];
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
    __m256i vm[kMax32];
    splat_m(c, vm);
    const __m256i mp =
        _mm256_set1_epi64x(static_cast<long long>(c.m_prime32));
    __m256i vx[kMax32], vone[kMax32];
    vone[0] = _mm256_set1_epi64x(1);
    for (std::size_t j = 1; j < K; ++j) vone[j] = _mm256_setzero_si256();
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
    __m256i vm[kMax32];
    splat_m(c, vm);
    const __m256i mp =
        _mm256_set1_epi64x(static_cast<long long>(c.m_prime32));
    constexpr std::size_t kTable = std::size_t{1} << kWindowBits;
    std::vector<__m256i> table(kTable * K);
    std::vector<__m256i> acc(K), sel(K);
    const u64* one_ptrs[kLanes] = {c.one.data(), c.one.data(), c.one.data(),
                                   c.one.data()};

    for (std::size_t first = 0; first < n; first += kLanes) {
      const std::size_t cnt = n - first < kLanes ? n - first : kLanes;
      __m256i* t0 = table.data();
      load_lanes(c, one_ptrs, kLanes, t0);  // T[0] = Montgomery form of 1
      load_lanes(c, bases + first, cnt, t0 + K);
      for (std::size_t e = 2; e < kTable; ++e)
        mont32(vm, mp, K, t0 + (e - 1) * K, t0 + K, t0 + e * K);

      for (std::size_t j = 0; j < K; ++j) acc[j] = t0[j];
      const std::size_t windows = exp_limbs * (64 / kWindowBits);
      alignas(32) u64 wrow[kLanes];
      for (std::size_t wi = windows; wi-- > 0;) {
        for (int s = 0; s < kWindowBits; ++s)
          mont32(vm, mp, K, acc.data(), acc.data(), acc.data());
        const std::size_t limb = wi / 16;
        const unsigned shift = (wi * kWindowBits) & 63;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t row = l < cnt ? l : cnt - 1;
          wrow[l] = (exps[(first + row) * exp_limbs + limb] >> shift) & 0xF;
        }
        const __m256i wv =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(wrow));
        // Full-table masked scan — no secret-indexed load.
        for (std::size_t j = 0; j < K; ++j) sel[j] = t0[j];
        for (std::size_t e = 1; e < kTable; ++e) {
          const __m256i hit = _mm256_cmpeq_epi64(
              wv, _mm256_set1_epi64x(static_cast<long long>(e)));
          for (std::size_t j = 0; j < K; ++j)
            sel[j] = _mm256_blendv_epi8(sel[j], t0[e * K + j], hit);
        }
        mont32(vm, mp, K, acc.data(), sel.data(), acc.data());
      }
      store_lanes(c, acc.data(), out + first, cnt);
    }
  }
};

}  // namespace

const Backend* avx2_backend_instance() {
  static const Avx2Backend instance;
  return &instance;
}

}  // namespace kgrid::wide::fixword

#endif  // __x86_64__
