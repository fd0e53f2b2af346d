// Scalar reference backend: fixed-width CIOS and fixed-window
// exponentiation at compile-time-pinned limb counts, constant-time.
//
// This file is the semantics every SIMD backend is held to (the fixword
// unit tests diff them limb for limb), and the kernel behind all
// single-operand Montgomery ops — so it must itself honor the constant-time
// contract: branchless final subtract, masked full-table window select, an
// operation count fixed by the operand geometry.
#include "wide/fixword/fixword.hpp"

#include <cstring>

#include "util/check.hpp"

namespace kgrid::wide::fixword {

namespace {

using u128 = unsigned __int128;

/// All-ones when x == y, all-zeros otherwise, without a data-dependent
/// branch (the compare never feeds a condition, only a mask).
inline u64 ct_eq_mask(u64 x, u64 y) {
  const u64 diff = x ^ y;
  // diff | -diff has its top bit set iff diff != 0.
  return ((diff | (0 - diff)) >> 63) - 1;
}

template <std::size_t K>
inline void mont_mul_k(const MontCtx& c, const u64* a, const u64* b,
                       u64* out) {
  const u64* m = c.m.data();
  u64 t[K + 2] = {0};
  for (std::size_t i = 0; i < K; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[K]) + carry;
    t[K] = static_cast<u64>(top);
    t[K + 1] += static_cast<u64>(top >> 64);

    const u64 u = t[0] * c.m_prime;
    u128 cur = static_cast<u128>(u) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    top = static_cast<u128>(t[K]) + carry;
    t[K - 1] = static_cast<u64>(top);
    t[K] = t[K + 1] + static_cast<u64>(top >> 64);
    t[K + 1] = 0;
  }

  // Result in [0, 2m): subtract m behind a mask instead of a branch, so the
  // reduction's timing carries no information about the value.
  u64 s[K];
  u64 borrow = 0;
  for (std::size_t i = 0; i < K; ++i) {
    const u128 d = static_cast<u128>(t[i]) - c.m[i] - borrow;
    s[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 keep_sub =
      0 - static_cast<u64>((t[K] != 0) | (borrow == 0));
  for (std::size_t i = 0; i < K; ++i)
    out[i] = (s[i] & keep_sub) | (t[i] & ~keep_sub);
}

template <std::size_t K>
inline void pow_k(const MontCtx& c, const u64* base, const u64* exp,
                  std::size_t el, u64* out) {
  // Window table base^0..base^15 in Montgomery form. T[0] = one, so window
  // value 0 still multiplies — the ladder performs the identical operation
  // sequence for every exponent of the same capacity.
  u64 table[std::size_t{1} << kWindowBits][K];
  std::memcpy(table[0], c.one.data(), K * sizeof(u64));
  std::memcpy(table[1], base, K * sizeof(u64));
  for (std::size_t e = 2; e < (std::size_t{1} << kWindowBits); ++e)
    mont_mul_k<K>(c, table[e - 1], base, table[e]);

  u64 acc[K];
  std::memcpy(acc, c.one.data(), K * sizeof(u64));
  u64 sel[K];
  const std::size_t windows = el * (64 / kWindowBits);
  for (std::size_t wi = windows; wi-- > 0;) {
    for (int s = 0; s < kWindowBits; ++s) mont_mul_k<K>(c, acc, acc, acc);
    // Window wi covers exponent bits [4wi, 4wi+4), always within one limb.
    const u64 w = (exp[wi / 16] >> ((wi * kWindowBits) & 63)) & 0xF;
    // Masked scan of the whole table: the load sequence is independent of w.
    for (std::size_t j = 0; j < K; ++j) sel[j] = 0;
    for (u64 e = 0; e < (u64{1} << kWindowBits); ++e) {
      const u64 mask = ct_eq_mask(w, e);
      for (std::size_t j = 0; j < K; ++j) sel[j] |= table[e][j] & mask;
    }
    mont_mul_k<K>(c, acc, sel, acc);
  }
  std::memcpy(out, acc, K * sizeof(u64));
}

template <std::size_t K>
inline void from_mont_k(const MontCtx& c, const u64* in, u64* out) {
  u64 one_val[K] = {1};
  mont_mul_k<K>(c, in, one_val, out);
}

}  // namespace

void to_radix52(const u64* in, std::size_t k, u64* out, std::size_t k52) {
  for (std::size_t j = 0; j < k52; ++j) {
    const std::size_t bit = j * 52;
    const std::size_t w = bit / 64, off = bit % 64;
    u64 v = in[w] >> off;
    if (off > 12 && w + 1 < k) v |= in[w + 1] << (64 - off);
    out[j] = v & kMask52;
  }
}

void from_radix52(const u64* in, std::size_t k52, u64* out, std::size_t k) {
  for (std::size_t w = 0; w < k; ++w) out[w] = 0;
  for (std::size_t j = 0; j < k52; ++j) {
    const std::size_t bit = j * 52;
    const std::size_t w = bit / 64, off = bit % 64;
    if (w < k) out[w] |= in[j] << off;
    if (off > 12 && w + 1 < k) out[w + 1] |= in[j] >> (64 - off);
  }
}

void ct_mont_mul(const MontCtx& c, const u64* a, const u64* b, u64* out) {
  switch (c.k) {
    case 8: mont_mul_k<8>(c, a, b, out); return;
    case 16: mont_mul_k<16>(c, a, b, out); return;
    case 32: mont_mul_k<32>(c, a, b, out); return;
    case 64: mont_mul_k<64>(c, a, b, out); return;
    default: KGRID_CHECK(false, "fixword: unsupported width");
  }
}

void ct_from_mont(const MontCtx& c, const u64* in, u64* out) {
  switch (c.k) {
    case 8: from_mont_k<8>(c, in, out); return;
    case 16: from_mont_k<16>(c, in, out); return;
    case 32: from_mont_k<32>(c, in, out); return;
    case 64: from_mont_k<64>(c, in, out); return;
    default: KGRID_CHECK(false, "fixword: unsupported width");
  }
}

void ct_pow(const MontCtx& c, const u64* base, const u64* exp,
            std::size_t exp_limbs, u64* out) {
  switch (c.k) {
    case 8: pow_k<8>(c, base, exp, exp_limbs, out); return;
    case 16: pow_k<16>(c, base, exp, exp_limbs, out); return;
    case 32: pow_k<32>(c, base, exp, exp_limbs, out); return;
    case 64: pow_k<64>(c, base, exp, exp_limbs, out); return;
    default: KGRID_CHECK(false, "fixword: unsupported width");
  }
}

namespace {

class ScalarBackend final : public Backend {
 public:
  std::string_view name() const override { return "scalar"; }
  std::size_t lanes() const override { return 1; }
  bool available() const override { return true; }

  void mont_mul_batch(const MontCtx& c, const u64* const* a,
                      const u64* const* b, u64* const* out,
                      std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) ct_mont_mul(c, a[i], b[i], out[i]);
  }

  void from_mont_batch(const MontCtx& c, const u64* const* in,
                       u64* const* out, std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i) ct_from_mont(c, in[i], out[i]);
  }

  void pow_batch(const MontCtx* const* ctxs, const u64* const* bases,
                 const u64* exps, std::size_t exp_limbs, u64* const* out,
                 std::size_t n) const override {
    for (std::size_t i = 0; i < n; ++i)
      ct_pow(*ctxs[i], bases[i], exps + i * exp_limbs, exp_limbs, out[i]);
  }
};

}  // namespace

const Backend* scalar_backend_instance() {
  static const ScalarBackend instance;
  return &instance;
}

}  // namespace kgrid::wide::fixword
