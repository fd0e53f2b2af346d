// RandomizerPool and Montgomery-form Paillier paths (ISSUE 2, satellite S4):
// pooled encryptions decrypt correctly under fixed seeds, the pool is
// deterministic, hit/miss accounting is exact, and every *_form operation
// matches its BigInt-level equivalent.
#include "crypto/randomizer_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/paillier.hpp"
#include "obs/crypto_counters.hpp"
#include "util/rng.hpp"
#include "wide/modular.hpp"

namespace kgrid::hom {
namespace {

using wide::BigInt;

constexpr std::uint64_t kSeeds[] = {11, 222, 3333};

TEST(RandomizerPool, PooledEncryptionsDecryptUnderFixedSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    const PaillierPrivateKey key = paillier_keygen(256, rng);
    ASSERT_TRUE(key.pub.pool != nullptr);
    key.pub.pool->prefill(8);
    for (std::uint64_t m : {0ull, 1ull, 77ull, 123456789ull}) {
      const BigInt c = key.pub.encrypt(BigInt(m), rng);
      EXPECT_EQ(key.decrypt(c).to_u64(), m) << "seed=" << seed << " m=" << m;
    }
    // Drain the stock; further encryptions fall back inline and still
    // decrypt.
    while (key.pub.pool->stock() > 0) (void)key.pub.pool->take();
    const BigInt c = key.pub.encrypt(BigInt(42), rng);
    EXPECT_EQ(key.decrypt(c).to_u64(), 42u);
  }
}

TEST(RandomizerPool, DeterministicUnderFixedSeed) {
  // Same keygen seed => same key, same pool seed, same ciphertext stream —
  // whether or not the factors were prefilled.
  Rng rng_a(99);
  Rng rng_b(99);
  const PaillierPrivateKey ka = paillier_keygen(256, rng_a);
  const PaillierPrivateKey kb = paillier_keygen(256, rng_b);
  ASSERT_EQ(ka.pub.n, kb.pub.n);
  ka.pub.pool->prefill(4);  // kb generates the same factors on demand
  Rng ea(5);
  Rng eb(5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ka.pub.encrypt(BigInt(1000 + i), ea),
              kb.pub.encrypt(BigInt(1000 + i), eb));
  }
}

TEST(RandomizerPool, HitMissAccountingIsExact) {
  Rng rng(7);
  const PaillierPrivateKey key = paillier_keygen(256, rng);
  auto& c = obs::crypto_counters();
  const auto hits0 = c.pool_hits.value();
  const auto misses0 = c.pool_misses.value();
  const auto prefills0 = c.pool_prefills.value();

  key.pub.pool->prefill(3);
  EXPECT_EQ(key.pub.pool->stock(), 3u);
  EXPECT_EQ(c.pool_prefills.value(), prefills0 + 3);

  for (int i = 0; i < 3; ++i) (void)key.pub.encrypt(BigInt(i), rng);
  EXPECT_EQ(c.pool_hits.value(), hits0 + 3);
  EXPECT_EQ(c.pool_misses.value(), misses0);
  EXPECT_EQ(key.pub.pool->stock(), 0u);

  (void)key.pub.encrypt(BigInt(9), rng);
  EXPECT_EQ(c.pool_hits.value(), hits0 + 3);
  EXPECT_EQ(c.pool_misses.value(), misses0 + 1);
}

TEST(RandomizerPool, PrefillRunsAsOneBatchRefill) {
  // prefill() routes its r^n modexps through the interleaved batch kernel:
  // still one pool_prefills per factor, plus one pool_batch_refills per
  // non-empty prefill() call regardless of count.
  Rng rng(13);
  const PaillierPrivateKey key = paillier_keygen(256, rng);
  auto& c = obs::crypto_counters();
  const auto prefills0 = c.pool_prefills.value();
  const auto batches0 = c.pool_batch_refills.value();

  key.pub.pool->prefill(5);
  EXPECT_EQ(c.pool_prefills.value(), prefills0 + 5);
  EXPECT_EQ(c.pool_batch_refills.value(), batches0 + 1);

  key.pub.pool->prefill(1);
  EXPECT_EQ(c.pool_prefills.value(), prefills0 + 6);
  EXPECT_EQ(c.pool_batch_refills.value(), batches0 + 2);

  key.pub.pool->prefill(0);  // empty refill is a no-op, not a batch
  EXPECT_EQ(c.pool_batch_refills.value(), batches0 + 2);
}

TEST(RandomizerPool, MissRefillsOneLaneGroup) {
  // A miss generates kRefillBatch factors in one batch exponentiation and
  // serves the first, so the next kRefillBatch - 1 takes are hits.
  Rng rng(17);
  const PaillierPrivateKey key = paillier_keygen(256, rng);
  auto& c = obs::crypto_counters();
  const auto hits0 = c.pool_hits.value();
  const auto misses0 = c.pool_misses.value();
  const auto batches0 = c.pool_batch_refills.value();
  ASSERT_EQ(RandomizerPool::kRefillBatch, 8u);

  (void)key.pub.pool->take();
  EXPECT_EQ(c.pool_misses.value(), misses0 + 1);
  EXPECT_EQ(c.pool_batch_refills.value(), batches0 + 1);
  EXPECT_EQ(key.pub.pool->stock(), 7u);

  for (int i = 0; i < 7; ++i) (void)key.pub.pool->take();
  EXPECT_EQ(c.pool_hits.value(), hits0 + 7);
  EXPECT_EQ(c.pool_misses.value(), misses0 + 1);
  EXPECT_EQ(c.pool_batch_refills.value(), batches0 + 1);
  EXPECT_EQ(key.pub.pool->stock(), 0u);
}

TEST(RandomizerPool, TakeBatchMatchesSerialTakes) {
  // Identically seeded pools: take_batch(n) returns the factors n serial
  // take() calls return, bit for bit, and counts hits and misses the same
  // way — from an empty pool and from a prefilled one, across refill
  // boundaries.
  const auto value = [](const PaillierPublicKey& pk,
                        const wide::Montgomery::Form& f) {
    return pk.from_form(f);
  };
  for (const std::size_t prefilled : {std::size_t{0}, std::size_t{3}}) {
    Rng rng_a(41);
    Rng rng_b(41);
    const PaillierPrivateKey ka = paillier_keygen(256, rng_a);
    const PaillierPrivateKey kb = paillier_keygen(256, rng_b);
    ASSERT_EQ(ka.pub.n, kb.pub.n);
    ka.pub.pool->prefill(prefilled);
    kb.pub.pool->prefill(prefilled);
    auto& c = obs::crypto_counters();
    for (const std::size_t n : {std::size_t{5}, std::size_t{13},
                                std::size_t{1}}) {
      const auto hits0 = c.pool_hits.value();
      const auto misses0 = c.pool_misses.value();
      std::vector<BigInt> serial;
      for (std::size_t i = 0; i < n; ++i)
        serial.push_back(value(ka.pub, ka.pub.pool->take()));
      const auto serial_hits = c.pool_hits.value() - hits0;
      const auto serial_misses = c.pool_misses.value() - misses0;

      const auto hits1 = c.pool_hits.value();
      const auto misses1 = c.pool_misses.value();
      const auto batch = kb.pub.pool->take_batch(n);
      ASSERT_EQ(batch.size(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(value(kb.pub, batch[i]), serial[i])
            << "prefilled=" << prefilled << " n=" << n << " i=" << i;
      EXPECT_EQ(c.pool_hits.value() - hits1, serial_hits);
      EXPECT_EQ(c.pool_misses.value() - misses1, serial_misses);
      EXPECT_EQ(kb.pub.pool->stock(), ka.pub.pool->stock());
    }
  }
}

// The per-r reference refill: draw r uniform in [1, n), keep it only if
// gcd(r, n) = 1, and raise the kept r to n mod n^2 — the factor stream a
// pool seeded with `seed` must serve.
std::vector<BigInt> per_r_factors(const BigInt& n, std::uint64_t seed,
                                  std::size_t count) {
  Rng rng(seed);
  std::vector<BigInt> out;
  while (out.size() < count) {
    const BigInt r = BigInt(1) + BigInt::random_below(rng, n - BigInt(1));
    if (wide::gcd(r, n) != BigInt(1)) continue;
    out.push_back(wide::mod_pow(r, n, n * n));
  }
  return out;
}

TEST(RandomizerPool, GroupUnitCheckMatchesPerRCheck) {
  // A key modulus, where every group passes its one product gcd, and the
  // small composite 105 = 3·5·7, where almost every group of 8 draws holds a
  // non-unit, so the per-r re-check and the replacement draws run. Both
  // serve the per-r reference stream, through misses and through prefills.
  Rng key_rng(61);
  const PaillierPrivateKey key = paillier_keygen(256, key_rng);
  for (const BigInt& n : {key.pub.n, BigInt(105)}) {
    const auto mont_n2 = std::make_shared<const wide::Montgomery>(n * n);
    const std::vector<BigInt> want = per_r_factors(n, 73, 40);
    RandomizerPool by_take(n, mont_n2, 73);
    RandomizerPool by_prefill(n, mont_n2, 73);
    by_prefill.prefill(want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(mont_n2->from_form(by_take.take()), want[i])
          << "n=" << n.to_dec() << " i=" << i;
      EXPECT_EQ(mont_n2->from_form(by_prefill.take()), want[i])
          << "n=" << n.to_dec() << " i=" << i;
    }
  }
}

TEST(PaillierForms, FormOpsMatchBigIntOps) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    const PaillierPrivateKey key = paillier_keygen(256, rng);
    const PaillierPublicKey& pk = key.pub;
    const BigInt ca = pk.encrypt(BigInt(1234), rng);
    const BigInt cb = pk.encrypt(BigInt(55), rng);
    const auto fa = pk.to_form(ca);
    const auto fb = pk.to_form(cb);

    EXPECT_EQ(pk.from_form(fa), ca);
    EXPECT_EQ(pk.from_form(pk.add_form(fa, fb)), pk.add(ca, cb));
    EXPECT_EQ(pk.from_form(pk.sub_form(fa, fb)), pk.sub(ca, cb));
    EXPECT_EQ(pk.from_form(pk.scalar_mul_form(BigInt(10007), fa)),
              pk.scalar_mul(BigInt(10007), ca));
    EXPECT_EQ(pk.from_form(pk.scalar_mul_form(BigInt(0), fa)),
              pk.scalar_mul(BigInt(0), ca));

    // Rerandomization draws fresh randomness, so compare plaintexts only.
    const BigInt cr = pk.from_form(pk.rerandomize_form(fa, rng));
    EXPECT_NE(cr, ca);
    EXPECT_EQ(key.decrypt(cr), key.decrypt(ca));
  }
}

TEST(PaillierForms, EncryptFormDecryptsAndSubHandlesNegatives) {
  Rng rng(31);
  const PaillierPrivateKey key = paillier_keygen(256, rng);
  const PaillierPublicKey& pk = key.pub;

  const BigInt c = pk.from_form(pk.encrypt_form(BigInt(424242), rng));
  EXPECT_EQ(key.decrypt(c).to_u64(), 424242u);

  // sub via ciphertext inverse: Enc(3) - Enc(10) reads back as -7.
  const BigInt ca = pk.encrypt(BigInt(3), rng);
  const BigInt cb = pk.encrypt(BigInt(10), rng);
  EXPECT_EQ(key.decrypt_signed(pk.sub(ca, cb)).to_i64(), -7);
}

}  // namespace
}  // namespace kgrid::hom
