#include "crypto/hom.hpp"

#include <gtest/gtest.h>

#include "crypto/packing.hpp"
#include "obs/crypto_counters.hpp"
#include "util/rng.hpp"

namespace kgrid::hom {
namespace {

// The backend-equivalence suite: every behaviour of the homomorphic layer
// must be identical under the plain ideal functionality and real Paillier,
// since the protocol code is backend-agnostic.
class HomBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  HomBackendTest() : rng_(99) {
    ctx_ = GetParam() == Backend::kPlain ? Context::make_plain()
                                         : Context::make_paillier(512, rng_);
  }

  Rng rng_;
  ContextPtr ctx_;
};

TEST_P(HomBackendTest, EncryptDecryptFields) {
  const std::vector<std::uint64_t> fields = {5, 0, 123456789, 1ull << 40};
  const Cipher c = ctx_->encrypt_key().encrypt(fields, rng_);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(c, fields.size()), fields);
}

TEST_P(HomBackendTest, FieldwiseAddition) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  const Cipher a = enc.encrypt(std::vector<std::uint64_t>{1, 2, 3}, rng_);
  const Cipher b = enc.encrypt(std::vector<std::uint64_t>{10, 20, 30}, rng_);
  EXPECT_EQ(dec.decrypt(eval.add(a, b), 3),
            (std::vector<std::uint64_t>{11, 22, 33}));
}

TEST_P(HomBackendTest, AdditionAssociativeOverManyCiphers) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  Cipher acc = eval.zero(2, rng_);
  std::uint64_t expect0 = 0, expect1 = 0;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    acc = eval.add(acc, enc.encrypt(std::vector<std::uint64_t>{i, i * i}, rng_));
    expect0 += i;
    expect1 += i * i;
  }
  EXPECT_EQ(ctx_->decrypt_key().decrypt(acc, 2),
            (std::vector<std::uint64_t>{expect0, expect1}));
}

TEST_P(HomBackendTest, ScalarMul) {
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{3, 7}, rng_);
  const Cipher c = ctx_->eval_handle().scalar_mul(6, a);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(c, 2),
            (std::vector<std::uint64_t>{18, 42}));
}

TEST_P(HomBackendTest, SubSingleSigned) {
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  const Cipher a = enc.encrypt_value(58, rng_);
  const Cipher b = enc.encrypt_value(100, rng_);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(b, a)), 42);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(a, b)), -42);
  EXPECT_EQ(dec.decrypt_signed(eval.sub_single(a, a)), 0);
}

TEST_P(HomBackendTest, RerandomizeChangesCipherNotPlaintext) {
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{9, 8}, rng_);
  const Cipher b = ctx_->eval_handle().rerandomize(a, rng_);
  EXPECT_NE(a, b);  // a receiver cannot tell the counter was unchanged
  EXPECT_EQ(ctx_->decrypt_key().decrypt(a, 2), ctx_->decrypt_key().decrypt(b, 2));
}

TEST_P(HomBackendTest, TwoEncryptionsOfSameValueDiffer) {
  const auto enc = ctx_->encrypt_key();
  const Cipher a = enc.encrypt_value(5, rng_);
  const Cipher b = enc.encrypt_value(5, rng_);
  EXPECT_NE(a, b);
}

TEST_P(HomBackendTest, ZeroIsAdditiveIdentity) {
  const auto eval = ctx_->eval_handle();
  const Cipher a =
      ctx_->encrypt_key().encrypt(std::vector<std::uint64_t>{4, 5, 6}, rng_);
  const Cipher z = eval.zero(3, rng_);
  EXPECT_EQ(ctx_->decrypt_key().decrypt(eval.add(a, z), 3),
            (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST_P(HomBackendTest, AggregateRerandomizesTheSumOnce) {
  // A broker's aggregate: n contributions folded with n-1 adds, then one
  // rerandomization of the sum — counted identically on both backends, so
  // plain-backend sweeps report the op counts real Paillier pays.
  const auto enc = ctx_->encrypt_key();
  const auto eval = ctx_->eval_handle();
  const auto dec = ctx_->decrypt_key();
  std::vector<Cipher> parts;
  for (std::uint64_t i = 1; i <= 4; ++i)
    parts.push_back(enc.encrypt(std::vector<std::uint64_t>{i, 10 * i, 7}, rng_));
  std::vector<const Cipher*> items;
  for (const Cipher& p : parts) items.push_back(&p);
  items.push_back(&parts[1]);  // repeats are legal (a double-counting broker)
  const std::vector<Cipher> before = parts;

  auto& c = obs::crypto_counters();
  const auto adds0 = c.hom_adds.value();
  const auto rerand0 = c.hom_rerandomizes.value();
  const auto encrypts0 = c.hom_encrypts.value();
  const Cipher agg = eval.aggregate_rerandomized(items, rng_);
  EXPECT_EQ(c.hom_adds.value() - adds0, items.size() - 1);
  EXPECT_EQ(c.hom_rerandomizes.value() - rerand0, 1u);
  EXPECT_EQ(c.hom_encrypts.value(), encrypts0);

  EXPECT_EQ(dec.decrypt(agg, 3), (std::vector<std::uint64_t>{12, 120, 35}));
  Cipher folded = *items[0];
  for (std::size_t i = 1; i < items.size(); ++i)
    folded = eval.add(folded, *items[i]);
  EXPECT_EQ(dec.decrypt(folded, 3), dec.decrypt(agg, 3));
  EXPECT_NE(agg, folded);  // the sum was rerandomized
  EXPECT_EQ(parts, before);  // contributions are untouched

  // A single contribution still comes back as a fresh cipher.
  const Cipher one = eval.aggregate_rerandomized(
      std::vector<const Cipher*>{&parts[0]}, rng_);
  EXPECT_NE(one, parts[0]);
  EXPECT_EQ(dec.decrypt(one, 3), dec.decrypt(parts[0], 3));
}

INSTANTIATE_TEST_SUITE_P(Backends, HomBackendTest,
                         ::testing::Values(Backend::kPlain, Backend::kPaillier),
                         [](const auto& tpi) {
                           return tpi.param == Backend::kPlain ? "Plain"
                                                               : "Paillier";
                         });

TEST(HomContext, PaillierCapacityBound) {
  Rng rng(1);
  auto ctx = Context::make_paillier(256, rng);
  EXPECT_GE(ctx->max_fields(), 3u);
  EXPECT_LE(ctx->max_fields(), (256u - 1) / 64);
  EXPECT_GT(Context::make_plain()->max_fields(), 1u << 20);
}

TEST(Packing, RoundTrip) {
  const std::vector<std::uint64_t> fields = {0, 1, 0xFFFFFFFFFFFFFFFFull, 7};
  EXPECT_EQ(unpack_fields(pack_fields(fields), 4), fields);
}

TEST(Packing, ShortPlaintextZeroPads) {
  EXPECT_EQ(unpack_fields(wide::BigInt(5), 3),
            (std::vector<std::uint64_t>{5, 0, 0}));
}

TEST(Packing, PackedAdditionIsFieldwiseWithoutOverflow) {
  const std::vector<std::uint64_t> a = {1ull << 62, 3, 10};
  const std::vector<std::uint64_t> b = {1ull << 60, 4, 20};
  const auto sum = pack_fields(a) + pack_fields(b);
  EXPECT_EQ(unpack_fields(sum, 3),
            (std::vector<std::uint64_t>{(1ull << 62) + (1ull << 60), 7, 30}));
}

}  // namespace
}  // namespace kgrid::hom
