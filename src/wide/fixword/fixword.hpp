// Fixed-width multi-precision kernel backends.
//
// The generic Montgomery path in wide/modular.cpp works at any limb count,
// but every Paillier modulus in this codebase lands on one of four widths:
// 512/1024/2048/4096 bits (n and n^2 for 512- and 1024-bit half-moduli, and
// the CRT half-width squares p^2/q^2). Pinning the limb count at compile
// time lets the CIOS inner loops live in flat stack buffers with fully
// unrolled carry chains — and, more importantly, lets k independent
// exponentiations run in *lockstep* so SIMD lanes are filled by batch
// parallelism instead of (fruitlessly) trying to vectorize one carry chain.
//
// Three layers:
//
//   * MontCtx — the per-modulus constant tables. Radix-2^64 limbs for the
//     scalar kernels, a 32-bit-limb view for the 4-lane AVX2 / 2-lane NEON
//     kernels (R32 = 2^(32·2k) equals R64, so those lanes share the 64-bit
//     Montgomery domain directly), and a radix-2^52 view for the 8-lane
//     AVX-512 IFMA kernel, whose R' = 2^(52·k52) differs from R64 and is
//     bridged by the to52/from52/unconv52 correction constants below.
//     Built once per Montgomery context (wide/modular.cpp).
//
//   * Constant-time scalar kernels (ct_mont_mul / ct_from_mont / ct_pow) —
//     the reference implementation every SIMD backend must match bit for
//     bit, and the kernel behind all *single*-operand Montgomery ops. The
//     constant-time contract: no secret-dependent branches (the final
//     subtract is a branchless mask select), no secret-indexed loads (the
//     fixed-window walk scans the whole table under equality masks), and an
//     operation count fixed by the public operand geometry — ct_pow walks
//     exp_limbs·64 bits regardless of the exponent's value, so only the
//     *capacity* of the exponent buffer is observable.
//
//   * Backend — the batch interface behind runtime CPU dispatch. Batch ops
//     process n independent operand sets; SIMD backends run lanes() of them
//     in lockstep per hardware pass. pow_batch takes a context per item, so
//     one batch may mix moduli of one width: the IFMA backend loads every
//     per-modulus constant per lane (a CRT decryption's mod-p^2 and mod-q^2
//     halves share one pass) and squares through a dedicated Montgomery
//     squaring kernel; the other backends serve each run of equal context
//     as its own batch. All backends compute the exact fully reduced
//     representative (in [0, m)) of the same R64-domain value, so results
//     are bit-identical across backends by construction — the property
//     that keeps golden protocol hashes backend-invariant.
//
// Dispatch order is fastest-first (ifma > avx2 > neon > scalar); the
// KGRID_BACKEND environment variable pins a specific backend (CI's
// forced-scalar leg), and force_backend() is the test hook for exercising
// every compiled-in backend on one machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace kgrid::wide::fixword {

using u64 = std::uint64_t;

inline constexpr int kWindowBits = 4;  // fixed-window width of ct_pow
inline constexpr u64 kMask52 = (u64{1} << 52) - 1;

/// The pinned widths (in 64-bit limbs) the fixed-width kernels support.
inline bool width_supported(std::size_t k) {
  return k == 8 || k == 16 || k == 32 || k == 64;
}

/// Limb count of the radix-2^52 view: ceil(64k / 52).
inline std::size_t limbs52(std::size_t k) { return (64 * k + 51) / 52; }

/// Repack little-endian radix-2^64 (k limbs) into radix-2^52 (k52 limbs).
void to_radix52(const u64* in, std::size_t k, u64* out, std::size_t k52);
/// Inverse repack; the radix-52 value must fit in 64k bits.
void from_radix52(const u64* in, std::size_t k52, u64* out, std::size_t k);

/// Per-modulus constant tables for the fixed-width kernels. Everything is
/// derived from the modulus alone; wide::Montgomery builds one at context
/// setup (it owns the BigInt arithmetic needed for the 2^e mod m constants).
struct MontCtx {
  std::size_t k = 0;        // modulus width in 64-bit limbs (width_supported)
  u64 m_prime = 0;          // -m^-1 mod 2^64
  std::vector<u64> m;       // modulus, k limbs
  std::vector<u64> one;     // R64 mod m (Montgomery form of 1), k limbs

  // 32-bit-limb view (AVX2 / NEON lanes; same Montgomery domain as radix-64).
  u64 m_prime32 = 0;             // -m^-1 mod 2^32
  std::vector<std::uint32_t> m32;  // modulus, 2k limbs

  // Radix-2^52 view (AVX-512 IFMA lanes; R' = 2^(52·k52) domain). All
  // vectors hold k52 limbs of <= 52 bits.
  std::size_t k52 = 0;
  u64 m_prime52 = 0;           // -m^-1 mod 2^52
  std::vector<u64> m52;        // modulus
  std::vector<u64> one52;      // R' mod m (identity of the R' domain)
  std::vector<u64> to52;       // 2^(104·k52 - 64·k) mod m: mont52(x·R64, to52) = x·R'
                               // and mont52(mont52(a, b), to52) = a·b·R64^-1
  std::vector<u64> from52;     // 2^(64·k) mod m:   mont52(x·R', from52) = x·R64
  std::vector<u64> unconv52;   // 2^(52·k52 - 64·k) mod m: mont52(x·R64, unconv52) = x
};

// -- Constant-time scalar kernels (radix-2^64, K pinned at compile time) --

/// out = a·b·R64^-1 mod m, fully reduced. out may alias a or b.
void ct_mont_mul(const MontCtx& c, const u64* a, const u64* b, u64* out);
/// out = value of the Montgomery-form input (one multiply by 1).
void ct_from_mont(const MontCtx& c, const u64* in, u64* out);
/// out = base^exp · R64 mod m for a Montgomery-form base. The exponent is
/// exp_limbs little-endian words walked at fixed width 64·exp_limbs bits.
void ct_pow(const MontCtx& c, const u64* base, const u64* exp,
            std::size_t exp_limbs, u64* out);

// -- Batch backends --

/// A fixed-width kernel backend. Batch operands are arrays of n pointers,
/// each to a k-limb little-endian radix-2^64 buffer, fully reduced; outputs
/// may alias inputs (every backend gathers all inputs before scattering any
/// output). Implementations are stateless and safe to call concurrently.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string_view name() const = 0;
  /// Operand sets processed per hardware pass (1 for scalar).
  virtual std::size_t lanes() const = 0;
  /// True when the running CPU supports this backend's instructions.
  virtual bool available() const = 0;

  /// out[i] = a[i]·b[i]·R64^-1 mod m.
  virtual void mont_mul_batch(const MontCtx& c, const u64* const* a,
                              const u64* const* b, u64* const* out,
                              std::size_t n) const = 0;
  /// out[i] = value of Montgomery-form in[i].
  virtual void from_mont_batch(const MontCtx& c, const u64* const* in,
                               u64* const* out, std::size_t n) const = 0;
  /// Multi-exponent interleaving: out[i] = base[i]^exp[i] · R64 mod m_i for
  /// bases in the Montgomery form of their own context ctxs[i], the n
  /// exponents flat in `exps` (exp_limbs words each, row i at
  /// exps + i·exp_limbs), every lane walking the same fixed
  /// 64·exp_limbs-bit window schedule in lockstep. The contexts may differ
  /// per item but must all have one width k; lanes of one pass may then
  /// carry different moduli (backends without per-lane moduli split the
  /// items into runs of equal context, see for_each_context_run).
  virtual void pow_batch(const MontCtx* const* ctxs, const u64* const* bases,
                         const u64* exps, std::size_t exp_limbs,
                         u64* const* out, std::size_t n) const = 0;
};

/// Calls run(first, count) for each maximal run of consecutive items that
/// share one context — how a backend whose lanes share one modulus serves a
/// mixed-context pow_batch.
template <class Fn>
void for_each_context_run(const MontCtx* const* ctxs, std::size_t n,
                          Fn&& run) {
  std::size_t first = 0;
  while (first < n) {
    std::size_t end = first + 1;
    while (end < n && ctxs[end] == ctxs[first]) ++end;
    run(first, end - first);
    first = end;
  }
}

/// Every backend compiled into this binary (including ones the running CPU
/// cannot execute — check available()), ordered fastest-first.
const std::vector<const Backend*>& all_backends();

/// Backend by name ("scalar", "avx2", "ifma", "neon"); nullptr if unknown.
const Backend* find_backend(std::string_view name);

/// The backend batch ops dispatch to: the forced backend if set, else the
/// one named by KGRID_BACKEND (aborts on an unknown or unsupported name),
/// else the fastest available. The environment lookup is latched on first
/// use.
const Backend& active_backend();

/// Test hook: pin dispatch to `b` (must be available); nullptr restores
/// automatic dispatch. Not thread-safe against concurrent batch ops.
void force_backend(const Backend* b);

}  // namespace kgrid::wide::fixword
