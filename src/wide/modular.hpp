// Modular arithmetic over BigInt: gcd/lcm, modular inverse, and Montgomery
// exponentiation for odd moduli (the hot path of Paillier encryption and
// decryption, whose moduli n and n^2 are always odd).
//
// Exponentiation is fixed-context, windowed, and allocation-light:
//
//   * Montgomery::pow uses sliding-window exponentiation over a precomputed
//     odd-power table; the window width is chosen from the exponent
//     bit-length (pow_window_bits), cutting the multiply count from ~bits/2
//     to ~bits/(w+1) at full Paillier widths.
//   * Montgomery::Form pins a value in Montgomery representation (x·R mod m)
//     to its context, so chains of multiplications — homomorphic adds,
//     rerandomizations — pay the R-conversion once instead of on every call.
//   * The CIOS kernel has a scratch-buffer variant (mont_mul_into) used by
//     the pow ladder and mul_form_into, so chained operations perform no
//     per-multiply vector allocation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "wide/bigint.hpp"
#include "wide/fixword/fixword.hpp"

namespace kgrid::wide {

BigInt gcd(BigInt a, BigInt b);
BigInt lcm(const BigInt& a, const BigInt& b);

/// Inverse of a modulo m (m > 1). Aborts if gcd(a, m) != 1 — in this library
/// a non-invertible operand always indicates a broken key or corrupted state.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// Modular exponentiation base^exp mod m for m > 1, exp >= 0.
/// Dispatches to Montgomery for odd m, to windowed square-and-multiply with
/// division for even m.
BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);

/// Window width (1..5) used for an exponent of the given bit length; w == 1
/// is the plain binary ladder (table build would dominate tiny exponents).
int pow_window_bits(std::size_t exp_bits);

/// Reusable Montgomery context for a fixed odd modulus. Paillier key
/// material holds one of these per modulus so repeated encryptions amortize
/// the setup (R^2 mod m and m'^-1). Non-copyable: Forms minted by a context
/// hold a pointer back to it.
class Montgomery {
 public:
  /// A value pinned to its context in Montgomery representation
  /// (x·R mod m, R = 2^(64k)). Default-constructed Forms are detached;
  /// every real Form comes from to_form/one_form/mul_form/pow_form of the
  /// context it stays bound to (enforced by KGRID_CHECK on use).
  class Form {
   public:
    Form() = default;
    bool attached() const { return ctx_ != nullptr; }

   private:
    friend class Montgomery;
    std::vector<BigInt::Limb> limbs_;
    const Montgomery* ctx_ = nullptr;
  };

  explicit Montgomery(const BigInt& modulus);
  Montgomery(const Montgomery&) = delete;
  Montgomery& operator=(const Montgomery&) = delete;

  const BigInt& modulus() const { return m_; }

  /// base^exp mod m via windowed exponentiation, base in [0, m).
  BigInt pow(const BigInt& base, const BigInt& exp) const;

  /// base^exp mod m via the plain binary ladder — the reference
  /// implementation the windowed path is cross-checked (and benched)
  /// against.
  BigInt pow_binary(const BigInt& base, const BigInt& exp) const;

  /// a*b mod m, both in [0, m).
  BigInt mul(const BigInt& a, const BigInt& b) const;

  /// Convert x in [0, m) into Montgomery form (one mont-mul by R^2).
  Form to_form(const BigInt& x) const;
  /// Convert back out of Montgomery form (one mont-mul by 1).
  BigInt from_form(const Form& x) const;
  /// Montgomery form of 1 (that is, R mod m).
  Form one_form() const;

  /// a*b for Forms of this context: exactly one Montgomery multiplication.
  Form mul_form(const Form& a, const Form& b) const;

  /// Allocation-free variant for chained operations: writes a*b into `out`
  /// (which may alias a or b) reusing `scratch` across calls.
  void mul_form_into(const Form& a, const Form& b, Form& out,
                     std::vector<BigInt::Limb>& scratch) const;

  /// base^exp for a Form base; result stays in Montgomery form.
  Form pow_form(const Form& base, const BigInt& exp) const;

  /// True when this modulus lands on a fixed-width kernel (k in {8,16,32,64}
  /// limbs) — single ops run the constant-time kernels and the batch APIs
  /// below dispatch to the active SIMD backend. Odd widths fall back to the
  /// generic CIOS loops (and batch APIs degrade to per-item calls).
  bool fixed_width() const { return fw_ok_; }

  // -- Batch APIs (multi-exponent interleaving) --
  //
  // Each processes n independent operand sets through
  // fixword::active_backend(), which runs backend.lanes() of them in
  // lockstep per hardware pass. Results are bit-identical to the per-item
  // calls for every backend.

  /// out[i] = bases[i]^exp (shared exponent — Paillier encrypt/rerandomize
  /// batches raise per-item randomizers to the fixed public exponent n).
  std::vector<Form> pow_form_batch(std::span<const Form> bases,
                                   const BigInt& exp) const;
  /// out[i] = bases[i]^exps[i], each item under the context its base is
  /// bound to — contexts may differ per item (a CRT decryption raises its
  /// mod-p^2 and mod-q^2 halves in one call). When every context sits on
  /// one fixed width the items run as one backend pow_batch, whose lanes
  /// may then carry different moduli; otherwise each item takes its own
  /// context's per-item path. All lanes walk the capacity of the widest
  /// exponent so the schedule stays lockstep.
  static std::vector<Form> pow_form_batch(std::span<const Form> bases,
                                          std::span<const BigInt> exps);
  /// out[i] = a[i]*b[i].
  std::vector<Form> mul_form_batch(std::span<const Form> a,
                                   std::span<const Form> b) const;
  /// out[i] = value of Form xs[i].
  std::vector<BigInt> from_form_batch(std::span<const Form> xs) const;

 private:
  using Limb = BigInt::Limb;

  std::vector<Limb> to_limbs(const BigInt& x) const;
  BigInt from_limbs(const std::vector<Limb>& x) const;
  /// CIOS Montgomery product a*b*R^-1 mod m into `out` (size k); `t` is
  /// k+2 limbs of scratch. `out` may alias a or b (it is written only after
  /// both are fully consumed); it must not alias t.
  void mont_mul_into(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  /// Allocating wrapper around mont_mul_into.
  std::vector<Limb> mont_mul(const std::vector<Limb>& a,
                             const std::vector<Limb>& b) const;
  /// Windowed exponentiation core on Montgomery-form limbs.
  std::vector<Limb> pow_limbs(const std::vector<Limb>& base_m,
                              const BigInt& exp) const;
  void check_form(const Form& f) const;

  BigInt m_;
  std::vector<Limb> m_limbs_;
  std::size_t k_ = 0;        // limb count of the modulus
  Limb m_prime_ = 0;         // -m^-1 mod 2^64
  std::vector<Limb> r2_;     // R^2 mod m (R = 2^(64k))
  std::vector<Limb> one_;    // R mod m (Montgomery form of 1)
  bool fw_ok_ = false;       // width_supported(k_): fixed-width kernels live
  fixword::MontCtx fw_;      // constant tables for the fixed-width kernels
};

}  // namespace kgrid::wide
