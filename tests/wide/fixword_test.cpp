// Fixed-width kernel backend tests: the constant-time scalar kernels against
// schoolbook BigInt references, every compiled-in-and-available SIMD backend
// against the scalar results (bit identity), and the Montgomery batch APIs
// against their per-item counterparts.
#include "wide/fixword/fixword.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "wide/bigint.hpp"
#include "wide/modular.hpp"
#include "wide/prime.hpp"

namespace kgrid::wide {
namespace {

using Form = Montgomery::Form;

// A random odd modulus of exactly `bits` bits (top and low bit set), so the
// Montgomery context lands on bits/64 limbs.
BigInt random_odd_modulus(Rng& rng, std::size_t bits) {
  BigInt m = BigInt::random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
  if (m.is_even()) m += BigInt(1);
  return m;
}

// RAII restore of automatic dispatch around force_backend tests.
struct ForcedBackend {
  explicit ForcedBackend(const fixword::Backend* b) { fixword::force_backend(b); }
  ~ForcedBackend() { fixword::force_backend(nullptr); }
};

std::vector<const fixword::Backend*> usable_backends() {
  std::vector<const fixword::Backend*> out;
  for (const fixword::Backend* b : fixword::all_backends())
    if (b->available()) out.push_back(b);
  return out;
}

constexpr std::array<std::size_t, 4> kWidths = {512, 1024, 2048, 4096};

TEST(Fixword, WidthSupport) {
  EXPECT_TRUE(fixword::width_supported(8));
  EXPECT_TRUE(fixword::width_supported(16));
  EXPECT_TRUE(fixword::width_supported(32));
  EXPECT_TRUE(fixword::width_supported(64));
  EXPECT_FALSE(fixword::width_supported(9));
  EXPECT_FALSE(fixword::width_supported(1));
  for (std::size_t bits : kWidths) {
    Rng rng(bits);
    Montgomery mont(random_odd_modulus(rng, bits));
    EXPECT_TRUE(mont.fixed_width()) << bits;
  }
  // Odd widths fall back to the generic loops.
  Rng rng(99);
  Montgomery odd(random_odd_modulus(rng, 576));
  EXPECT_FALSE(odd.fixed_width());
}

TEST(Fixword, Radix52RoundTrip) {
  Rng rng(52);
  for (std::size_t k : {8u, 16u, 32u, 64u}) {
    const std::size_t k52 = fixword::limbs52(k);
    EXPECT_EQ(k52, (64 * k + 51) / 52);
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<std::uint64_t> in(k), mid(k52), out(k);
      for (auto& w : in) w = rng();
      fixword::to_radix52(in.data(), k, mid.data(), k52);
      for (std::uint64_t limb : mid) EXPECT_LE(limb, fixword::kMask52);
      fixword::from_radix52(mid.data(), k52, out.data(), k);
      EXPECT_EQ(in, out);
    }
  }
}

TEST(Fixword, BackendRegistry) {
  const auto& all = fixword::all_backends();
  ASSERT_FALSE(all.empty());
  // Scalar is always present, always available, and always last (slowest).
  EXPECT_EQ(all.back()->name(), "scalar");
  EXPECT_TRUE(all.back()->available());
  EXPECT_EQ(all.back()->lanes(), 1u);
  for (const fixword::Backend* b : all)
    EXPECT_EQ(fixword::find_backend(b->name()), b);
  EXPECT_EQ(fixword::find_backend("no-such-backend"), nullptr);
  // active_backend() honors force_backend and restores automatic dispatch.
  const fixword::Backend* scalar = fixword::find_backend("scalar");
  {
    ForcedBackend forced(scalar);
    EXPECT_EQ(&fixword::active_backend(), scalar);
  }
  EXPECT_TRUE(fixword::active_backend().available());
}

// Montgomery::mul at every pinned width against schoolbook multiply-reduce —
// this exercises ct_mont_mul end to end (including the branchless final
// subtract) against arithmetic that shares no code with the kernels.
TEST(Fixword, CtMontMulMatchesSchoolbook) {
  for (std::size_t bits : kWidths) {
    Rng rng(1000 + bits);
    const BigInt m = random_odd_modulus(rng, bits);
    Montgomery mont(m);
    ASSERT_TRUE(mont.fixed_width());
    for (int iter = 0; iter < 8; ++iter) {
      const BigInt a = BigInt::random_below(rng, m);
      const BigInt b = BigInt::random_below(rng, m);
      EXPECT_EQ(mont.mul(a, b), (a * b) % m) << bits;
    }
  }
}

// Montgomery::pow (now the constant-time fixed-window kernel for supported
// widths) against a naive BigInt square-and-multiply loop.
TEST(Fixword, CtPowMatchesNaiveLadder) {
  for (std::size_t bits : {512u, 1024u}) {
    Rng rng(2000 + bits);
    const BigInt m = random_odd_modulus(rng, bits);
    Montgomery mont(m);
    ASSERT_TRUE(mont.fixed_width());
    const BigInt base = BigInt::random_below(rng, m);
    const BigInt exp = BigInt::random_bits(rng, 96);
    BigInt want(1);
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      want = (want * want) % m;
      if (exp.bit(i)) want = (want * base) % m;
    }
    EXPECT_EQ(mont.pow(base, exp), want) << bits;
  }
}

// Edge exponents through the fixed-window walk: zero, one, and a value whose
// limbs contain all-zero and all-one windows.
TEST(Fixword, CtPowEdgeExponents) {
  Rng rng(3003);
  const BigInt m = random_odd_modulus(rng, 512);
  Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  EXPECT_EQ(mont.pow(base, BigInt(0)).to_dec(), "1");
  EXPECT_EQ(mont.pow(base, BigInt(1)), base);
  const BigInt e = BigInt::from_hex("f0f0000f00ff0000000000000001");
  EXPECT_EQ(mont.pow(base, e), mont.pow_binary(base, e));
}

// Every available backend must produce bit-identical batch results — same
// fully reduced representatives the scalar kernels compute.
TEST(Fixword, BackendsBitIdenticalOnBatchOps) {
  for (std::size_t bits : kWidths) {
    Rng rng(4000 + bits);
    const BigInt m = random_odd_modulus(rng, bits);
    Montgomery mont(m);
    const std::size_t n = 11;  // deliberately not a multiple of any lane count
    std::vector<Form> bases;
    std::vector<BigInt> plain;
    for (std::size_t i = 0; i < n; ++i) {
      plain.push_back(BigInt::random_below(rng, m));
      bases.push_back(mont.to_form(plain.back()));
    }
    const BigInt exp = BigInt::random_bits(rng, 128);

    std::vector<std::vector<BigInt>> per_backend;
    for (const fixword::Backend* b : usable_backends()) {
      ForcedBackend forced(b);
      per_backend.push_back(
          mont.from_form_batch(mont.pow_form_batch(bases, exp)));
      EXPECT_EQ(per_backend.back().size(), n);
    }
    ASSERT_FALSE(per_backend.empty());
    for (std::size_t bi = 1; bi < per_backend.size(); ++bi)
      EXPECT_EQ(per_backend[bi], per_backend[0])
          << usable_backends()[bi]->name() << " vs scalar-ordered peer at "
          << bits << " bits";
    // And the batch agrees with the per-item constant-time path.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(per_backend[0][i], mont.from_form(mont.pow_form(bases[i], exp)));
  }
}

TEST(Fixword, MulAndFromFormBatchesMatchPerItem) {
  Rng rng(5005);
  const BigInt m = random_odd_modulus(rng, 1024);
  Montgomery mont(m);
  const std::size_t n = 7;
  std::vector<Form> a, b;
  for (std::size_t i = 0; i < n; ++i) {
    a.push_back(mont.to_form(BigInt::random_below(rng, m)));
    b.push_back(mont.to_form(BigInt::random_below(rng, m)));
  }
  for (const fixword::Backend* backend : usable_backends()) {
    ForcedBackend forced(backend);
    const std::vector<Form> prod = mont.mul_form_batch(a, b);
    const std::vector<BigInt> vals = mont.from_form_batch(prod);
    ASSERT_EQ(prod.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(vals[i], mont.from_form(mont.mul_form(a[i], b[i])))
          << backend->name();
      EXPECT_EQ(mont.from_form(a[i]),
                mont.from_form_batch(std::span(&a[i], 1))[0]);
    }
  }
}

// Per-item-exponent interleaving: mixed exponent widths walk the widest
// capacity in lockstep and still match per-item pow_form.
TEST(Fixword, PerItemExponentBatchMatchesPerItem) {
  Rng rng(6006);
  const BigInt m = random_odd_modulus(rng, 1024);
  Montgomery mont(m);
  std::vector<Form> bases;
  std::vector<BigInt> exps;
  const std::size_t exp_bits[] = {1, 13, 64, 65, 200, 512, 1024};
  for (std::size_t eb : exp_bits) {
    bases.push_back(mont.to_form(BigInt::random_below(rng, m)));
    exps.push_back(BigInt::random_bits(rng, eb));
  }
  bases.push_back(mont.to_form(BigInt::random_below(rng, m)));
  exps.push_back(BigInt(0));  // zero exponent rides along in a mixed batch
  for (const fixword::Backend* backend : usable_backends()) {
    ForcedBackend forced(backend);
    const std::vector<Form> got = mont.pow_form_batch(bases, exps);
    ASSERT_EQ(got.size(), bases.size());
    for (std::size_t i = 0; i < bases.size(); ++i)
      EXPECT_EQ(mont.from_form(got[i]),
                mont.from_form(mont.pow_form(bases[i], exps[i])))
          << backend->name() << " item " << i;
  }
}

// The batch pow on every backend (the IFMA one squaring through its
// dedicated kernel) against the scalar ct_pow, at every pinned width, on the
// operands that stress carries: Montgomery-domain values 0, 1, m - 1 and
// all-ones limbs, under a random modulus and the all-ones modulus
// 2^(64k) - 1, with all-zero, all-ones and random exponents in one batch.
TEST(Fixword, BatchPowMatchesCtPowOnEdgeOperands) {
  for (std::size_t k : {8u, 16u, 32u, 64u}) {
    Rng rng(9000 + k);
    const BigInt r64 = BigInt(1) << (64 * k);
    for (const BigInt& m : {random_odd_modulus(rng, 64 * k), r64 - BigInt(1)}) {
      Montgomery mont(m);
      ASSERT_TRUE(mont.fixed_width());
      // to_form(x) holds x·R mod m, so x = d·R^-1 pins the kernel operand d.
      const BigInt r_inv = mod_inverse(r64 % m, m);
      const auto operand = [&](const BigInt& d) {
        return mont.to_form((d * r_inv) % m);
      };
      const BigInt all_ones = (BigInt(1) << (64 * k - 1)) - BigInt(1);
      const std::vector<BigInt> exps_by_class = {
          BigInt(0), (BigInt(1) << 128) - BigInt(1),
          BigInt::random_bits(rng, 128)};
      std::vector<Form> bases;
      std::vector<BigInt> exps;
      for (const BigInt& d : {BigInt(0), BigInt(1), m - BigInt(1), all_ones})
        for (const BigInt& e : exps_by_class) {
          bases.push_back(operand(d));
          exps.push_back(e);
        }
      std::vector<BigInt> want;
      for (std::size_t i = 0; i < bases.size(); ++i)
        want.push_back(mont.from_form(mont.pow_form(bases[i], exps[i])));
      for (const fixword::Backend* b : usable_backends()) {
        ForcedBackend forced(b);
        const std::vector<Form> got = Montgomery::pow_form_batch(bases, exps);
        ASSERT_EQ(got.size(), bases.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(mont.from_form(got[i]), want[i])
              << b->name() << " k=" << k << " item " << i;
      }
    }
  }
}

// One batch holding two contexts of one width — the p^2/q^2 halves of a CRT
// decryption, alternating item by item — equals the per-context batches on
// every backend, across batch sizes below, at and past the lane counts.
// Contexts of different widths take the per-item path with the same values.
TEST(Fixword, MixedContextBatchMatchesPerContextBatches) {
  Rng rng(10010);
  const BigInt p = random_prime(rng, 512);
  const BigInt q = random_prime(rng, 512);
  Montgomery mp(p * p), mq(q * q);
  ASSERT_TRUE(mp.fixed_width());
  ASSERT_TRUE(mq.fixed_width());
  Montgomery narrow(random_odd_modulus(rng, 512));
  for (std::size_t n : {1u, 2u, 7u, 8u, 9u, 17u}) {
    std::vector<Form> bases, bp, bq;
    std::vector<BigInt> exps, ep, eq;
    for (std::size_t i = 0; i < n; ++i) {
      Montgomery& ctx = i % 2 == 0 ? mp : mq;
      bases.push_back(ctx.to_form(BigInt::random_below(rng, ctx.modulus())));
      exps.push_back(BigInt::random_bits(rng, 512));
      (i % 2 == 0 ? bp : bq).push_back(bases.back());
      (i % 2 == 0 ? ep : eq).push_back(exps.back());
    }
    for (const fixword::Backend* b : usable_backends()) {
      ForcedBackend forced(b);
      const std::vector<Form> got = Montgomery::pow_form_batch(bases, exps);
      const std::vector<Form> gp = Montgomery::pow_form_batch(bp, ep);
      const std::vector<Form> gq = Montgomery::pow_form_batch(bq, eq);
      ASSERT_EQ(got.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const BigInt want = i % 2 == 0 ? mp.from_form(gp[i / 2])
                                       : mq.from_form(gq[i / 2]);
        const Montgomery& ctx = i % 2 == 0 ? mp : mq;
        EXPECT_EQ(ctx.from_form(got[i]), want)
            << b->name() << " n=" << n << " item " << i;
      }
    }
  }
  const std::vector<Form> mixed = {mp.to_form(BigInt(7)),
                                   narrow.to_form(BigInt(7))};
  const std::vector<BigInt> mixed_exps = {BigInt(1000003), BigInt(65537)};
  const std::vector<Form> got = Montgomery::pow_form_batch(mixed, mixed_exps);
  EXPECT_EQ(mp.from_form(got[0]), mp.pow(BigInt(7), mixed_exps[0]));
  EXPECT_EQ(narrow.from_form(got[1]), narrow.pow(BigInt(7), mixed_exps[1]));
}

// Batch APIs on a modulus with no fixed-width kernel (odd limb count) must
// fall back to per-item calls with identical results.
TEST(Fixword, OddWidthBatchFallback) {
  Rng rng(7007);
  const BigInt m = random_odd_modulus(rng, 576);
  Montgomery mont(m);
  ASSERT_FALSE(mont.fixed_width());
  std::vector<Form> bases;
  for (int i = 0; i < 3; ++i)
    bases.push_back(mont.to_form(BigInt::random_below(rng, m)));
  const BigInt exp = BigInt::random_bits(rng, 80);
  const std::vector<Form> got = mont.pow_form_batch(bases, exp);
  for (std::size_t i = 0; i < bases.size(); ++i)
    EXPECT_EQ(mont.from_form(got[i]),
              mont.from_form(mont.pow_form(bases[i], exp)));
}

TEST(Fixword, EmptyBatchesAreNoOps) {
  Rng rng(8008);
  Montgomery mont(random_odd_modulus(rng, 512));
  EXPECT_TRUE(mont.pow_form_batch({}, BigInt(3)).empty());
  EXPECT_TRUE(mont.mul_form_batch({}, {}).empty());
  EXPECT_TRUE(mont.from_form_batch({}).empty());
}

}  // namespace
}  // namespace kgrid::wide
