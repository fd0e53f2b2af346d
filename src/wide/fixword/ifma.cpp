// AVX-512 IFMA backend: 8 lanes of radix-2^52 CIOS Montgomery arithmetic.
//
// vpmadd52{lo,hi} multiply 52-bit limbs with a 64-bit accumulator add, which
// leaves 12 bits of headroom per limb — enough to defer every carry inside
// the CIOS pass (each accumulator absorbs at most 4 products per outer
// iteration, < 2^54·K total, well under 2^64 for K <= 79) and normalize once
// at the end. That, plus 8 independent operand sets per register, is where
// the batch speedup comes from.
//
// The radix-52 domain has R' = 2^(52·k52) != R64, so values entering or
// leaving this backend pass through the MontCtx correction constants:
//   mont52(x, to52)                  : x·R64-domain -> x·R'-domain (pow entry)
//   mont52(x, from52)                : R' -> R64 (pow exit)
//   mont52(mont52(a, b), to52)       : exact a·b·R64^-1 (mont_mul_batch)
//   mont52(x, unconv52)              : exact x·R64^-1 (from_mont_batch)
// Every result is the fully reduced representative, so outputs are
// bit-identical to the scalar backend's.
//
// The kernels take the modulus and m' as vectors, so each lane may carry its
// own modulus: pow_batch loads every per-modulus constant per lane, which
// lets one pass hold exponentiations under different contexts of one width
// (a CRT decryption's mod-p^2 and mod-q^2 halves side by side). The window
// ladder's squarings run through sqr52, which forms each cross product once.
//
// Constant-time: branchless masked final subtract, fixed-window walk with a
// full-table masked scan (the window value selects via compare masks, never
// via an address), lockstep schedule fixed by the exponent capacity.
#include "wide/fixword/fixword.hpp"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstring>
#include <vector>

namespace kgrid::wide::fixword {

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kMax52 = 79;  // limbs52(64): 4096-bit operands

/// Carry-normalize the K unnormalized limbs t (plus `top`, which holds
/// anything past limb K - 1) of a value below 2m into 52-bit limbs, then
/// subtract m behind a lane mask when the value is at least m: out is the
/// fully reduced representative. t is clobbered; out may alias anything.
void normalize_reduce(const __m512i* m, std::size_t K, __m512i* t,
                      __m512i top, __m512i* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i carry = zero;
  for (std::size_t j = 0; j < K; ++j) {
    const __m512i v = _mm512_add_epi64(t[j], carry);
    t[j] = _mm512_and_si512(v, mask52);
    carry = _mm512_srli_epi64(v, 52);
  }
  carry = _mm512_add_epi64(carry, top);
  __m512i borrow = zero;
  __m512i s[kMax52];
  for (std::size_t j = 0; j < K; ++j) {
    const __m512i d =
        _mm512_sub_epi64(_mm512_sub_epi64(t[j], m[j]), borrow);
    s[j] = _mm512_and_si512(d, mask52);
    borrow = _mm512_srli_epi64(d, 63);
  }
  const __mmask8 keep_sub = _mm512_cmpeq_epu64_mask(borrow, zero) |
                            _mm512_cmpneq_epu64_mask(carry, zero);
  for (std::size_t j = 0; j < K; ++j)
    out[j] = _mm512_mask_blend_epi64(keep_sub, t[j], s[j]);
}

/// out = a*b*2^(-52*K) mod m over 8 lanes, limb-major (out[j] holds limb j
/// of all lanes). Inputs canonical (52-bit limbs, fully reduced); output
/// likewise. Safe for out aliasing a or b (inputs are consumed before the
/// final select writes).
void mont52(const __m512i* m, __m512i mp, std::size_t K, const __m512i* a,
            const __m512i* b, __m512i* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i t[kMax52 + 1];
  for (std::size_t j = 0; j <= K; ++j) t[j] = zero;
  for (std::size_t i = 0; i < K; ++i) {
    const __m512i ai = a[i];
    for (std::size_t j = 0; j < K; ++j)
      t[j] = _mm512_madd52lo_epu64(t[j], ai, b[j]);
    const __m512i u = _mm512_and_si512(
        _mm512_madd52lo_epu64(zero, _mm512_and_si512(t[0], mask52), mp),
        mask52);
    for (std::size_t j = 0; j < K; ++j)
      t[j] = _mm512_madd52lo_epu64(t[j], u, m[j]);
    // t[0] = 0 mod 2^52 now; its upper bits carry into the next limb while
    // the whole array shifts down one limb, absorbing the high halves.
    const __m512i carry = _mm512_srli_epi64(t[0], 52);
    for (std::size_t j = 0; j + 1 < K; ++j) {
      t[j] = _mm512_madd52hi_epu64(t[j + 1], ai, b[j]);
      t[j] = _mm512_madd52hi_epu64(t[j], u, m[j]);
    }
    t[K - 1] = _mm512_madd52hi_epu64(t[K], ai, b[K - 1]);
    t[K - 1] = _mm512_madd52hi_epu64(t[K - 1], u, m[K - 1]);
    t[0] = _mm512_add_epi64(t[0], carry);
    t[K] = zero;
  }
  normalize_reduce(m, K, t, zero, out);
}

/// out = a*a*2^(-52*K) mod m over 8 lanes: the same fully reduced value as
/// mont52(a, a) from about three quarters of its multiplies. The 2K-limb
/// square is built first — each cross product a_i·a_j (i < j) accumulated
/// once, the sum doubled, the diagonal a_i^2 added — and then reduced by a
/// separate Montgomery pass. Limbs stay unnormalized until the end: each
/// accumulator collects fewer than (6K + 2) terms below 2^52, < 2^61 at
/// K = 79. Safe for out aliasing a.
void sqr52(const __m512i* m, __m512i mp, std::size_t K, const __m512i* a,
           __m512i* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mask52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i t[2 * kMax52 + 1];
  for (std::size_t j = 0; j <= 2 * K; ++j) t[j] = zero;
  for (std::size_t i = 0; i + 1 < K; ++i)
    for (std::size_t j = i + 1; j < K; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], a[i], a[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], a[i], a[j]);
    }
  for (std::size_t j = 0; j < 2 * K; ++j) t[j] = _mm512_add_epi64(t[j], t[j]);
  for (std::size_t i = 0; i < K; ++i) {
    t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a[i], a[i]);
    t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a[i], a[i]);
  }
  // Montgomery reduction, one limb per step: u zeroes limb i mod 2^52, and
  // limb i's upper bits carry into limb i + 1 before that limb's own step.
  for (std::size_t i = 0; i < K; ++i) {
    const __m512i u = _mm512_and_si512(
        _mm512_madd52lo_epu64(zero, _mm512_and_si512(t[i], mask52), mp),
        mask52);
    for (std::size_t j = 0; j < K; ++j) {
      t[i + j] = _mm512_madd52lo_epu64(t[i + j], u, m[j]);
      t[i + j + 1] = _mm512_madd52hi_epu64(t[i + j + 1], u, m[j]);
    }
    t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64(t[i], 52));
  }
  // Limbs K..2K-1 hold the result (< 2m), limb 2K any overflow.
  normalize_reduce(m, K, t + K, t[2 * K], out);
}

/// Broadcast a k52-limb constant into limb-major vector form.
void splat(const std::vector<u64>& limbs, std::size_t K, __m512i* out) {
  for (std::size_t j = 0; j < K; ++j)
    out[j] = _mm512_set1_epi64(static_cast<long long>(limbs[j]));
}

/// Limb-major lanes of one per-modulus constant: lane l holds ctxs[l]'s
/// table; lanes past n replicate the last context (their outputs are
/// discarded).
void load_consts(const MontCtx* const* ctxs, std::size_t n,
                 std::vector<u64> MontCtx::*table, std::size_t K,
                 __m512i* out) {
  alignas(64) u64 row[kLanes];
  for (std::size_t j = 0; j < K; ++j) {
    for (std::size_t l = 0; l < kLanes; ++l)
      row[l] = (ctxs[l < n ? l : n - 1]->*table)[j];
    out[j] = _mm512_load_si512(row);
  }
}

/// Gather up to 8 radix-64 operands into limb-major radix-52 lanes; rows
/// past n replicate the last operand (their outputs are discarded).
void load_lanes(const MontCtx& c, const u64* const* ptrs, std::size_t n,
                __m512i* out) {
  u64 conv[kLanes][kMax52];
  for (std::size_t l = 0; l < kLanes; ++l)
    to_radix52(ptrs[l < n ? l : n - 1], c.k, conv[l], c.k52);
  alignas(64) u64 row[kLanes];
  for (std::size_t j = 0; j < c.k52; ++j) {
    for (std::size_t l = 0; l < kLanes; ++l) row[l] = conv[l][j];
    out[j] = _mm512_load_si512(row);
  }
}

/// Scatter the first n lanes back to radix-64 buffers.
void store_lanes(const MontCtx& c, const __m512i* in, u64* const* ptrs,
                 std::size_t n) {
  alignas(64) u64 row[kLanes];
  u64 conv[kLanes][kMax52];
  for (std::size_t j = 0; j < c.k52; ++j) {
    _mm512_store_si512(row, in[j]);
    for (std::size_t l = 0; l < n; ++l) conv[l][j] = row[l];
  }
  for (std::size_t l = 0; l < n; ++l)
    from_radix52(conv[l], c.k52, ptrs[l], c.k);
}

class IfmaBackend final : public Backend {
 public:
  std::string_view name() const override { return "ifma"; }
  std::size_t lanes() const override { return kLanes; }
  bool available() const override {
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512ifma");
  }

  void mont_mul_batch(const MontCtx& c, const u64* const* a,
                      const u64* const* b, u64* const* out,
                      std::size_t n) const override {
    const std::size_t K = c.k52;
    __m512i vm[kMax52], vto[kMax52];
    splat(c.m52, K, vm);
    splat(c.to52, K, vto);
    const __m512i mp = _mm512_set1_epi64(static_cast<long long>(c.m_prime52));
    __m512i va[kMax52], vb[kMax52];
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t cnt = n - base < kLanes ? n - base : kLanes;
      load_lanes(c, a + base, cnt, va);
      load_lanes(c, b + base, cnt, vb);
      mont52(vm, mp, K, va, vb, va);    // a·b·R'^-1
      mont52(vm, mp, K, va, vto, va);   // ... ·to52·R'^-1 = a·b·R64^-1
      store_lanes(c, va, out + base, cnt);
    }
  }

  void from_mont_batch(const MontCtx& c, const u64* const* in,
                       u64* const* out, std::size_t n) const override {
    const std::size_t K = c.k52;
    __m512i vm[kMax52], vun[kMax52];
    splat(c.m52, K, vm);
    splat(c.unconv52, K, vun);
    const __m512i mp = _mm512_set1_epi64(static_cast<long long>(c.m_prime52));
    __m512i vx[kMax52];
    for (std::size_t base = 0; base < n; base += kLanes) {
      const std::size_t cnt = n - base < kLanes ? n - base : kLanes;
      load_lanes(c, in + base, cnt, vx);
      mont52(vm, mp, K, vx, vun, vx);   // x·R64^-1: out of Montgomery form
      store_lanes(c, vx, out + base, cnt);
    }
  }

  void pow_batch(const MontCtx* const* ctxs, const u64* const* bases,
                 const u64* exps, std::size_t exp_limbs, u64* const* out,
                 std::size_t n) const override {
    const MontCtx& c0 = *ctxs[0];  // every context shares this width
    const std::size_t K = c0.k52;
    __m512i vm[kMax52], vto[kMax52], vfrom[kMax52];
    constexpr std::size_t kTable = std::size_t{1} << kWindowBits;
    // Window table for 8 interleaved exponentiations: kTable entries of K
    // limb-major vectors. Heap-allocated — 16·79 vectors at the widest.
    std::vector<__m512i> table(kTable * K);
    std::vector<__m512i> acc(K), sel(K);

    for (std::size_t first = 0; first < n; first += kLanes) {
      const std::size_t cnt = n - first < kLanes ? n - first : kLanes;
      const MontCtx* const* lane_ctx = ctxs + first;
      // Per-lane constants: each lane reduces by its own item's modulus.
      load_consts(lane_ctx, cnt, &MontCtx::m52, K, vm);
      load_consts(lane_ctx, cnt, &MontCtx::to52, K, vto);
      load_consts(lane_ctx, cnt, &MontCtx::from52, K, vfrom);
      alignas(64) u64 mrow[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l)
        mrow[l] = lane_ctx[l < cnt ? l : cnt - 1]->m_prime52;
      const __m512i mp = _mm512_load_si512(mrow);

      __m512i* t0 = table.data();
      load_consts(lane_ctx, cnt, &MontCtx::one52, K, t0);  // T[0] = R' mod m
      load_lanes(c0, bases + first, cnt, t0 + K);
      mont52(vm, mp, K, t0 + K, vto, t0 + K);  // T[1] = base·R' (domain hop)
      for (std::size_t e = 2; e < kTable; ++e)
        mont52(vm, mp, K, t0 + (e - 1) * K, t0 + K, t0 + e * K);

      for (std::size_t j = 0; j < K; ++j) acc[j] = t0[j];
      const std::size_t windows = exp_limbs * (64 / kWindowBits);
      alignas(64) u64 wrow[kLanes];
      for (std::size_t wi = windows; wi-- > 0;) {
        for (int s = 0; s < kWindowBits; ++s)
          sqr52(vm, mp, K, acc.data(), acc.data());
        const std::size_t limb = wi / 16;
        const unsigned shift = (wi * kWindowBits) & 63;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t row = l < cnt ? l : cnt - 1;
          wrow[l] = (exps[(first + row) * exp_limbs + limb] >> shift) & 0xF;
        }
        const __m512i wv = _mm512_load_si512(wrow);
        // Full-table masked scan: every entry is read, the match selected
        // by compare mask — no secret-indexed load.
        for (std::size_t j = 0; j < K; ++j) sel[j] = t0[j];
        for (std::size_t e = 1; e < kTable; ++e) {
          const __mmask8 hit = _mm512_cmpeq_epu64_mask(
              wv, _mm512_set1_epi64(static_cast<long long>(e)));
          for (std::size_t j = 0; j < K; ++j)
            sel[j] = _mm512_mask_blend_epi64(hit, sel[j], t0[e * K + j]);
        }
        mont52(vm, mp, K, acc.data(), sel.data(), acc.data());
      }
      mont52(vm, mp, K, acc.data(), vfrom, acc.data());  // back to R64 domain
      store_lanes(c0, acc.data(), out + first, cnt);
    }
  }
};

}  // namespace

const Backend* ifma_backend_instance() {
  static const IfmaBackend instance;
  return &instance;
}

}  // namespace kgrid::wide::fixword

#endif  // __x86_64__
