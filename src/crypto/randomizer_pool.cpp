#include "crypto/randomizer_pool.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/crypto_counters.hpp"
#include "wide/modular.hpp"

namespace kgrid::hom {

using wide::BigInt;

RandomizerPool::RandomizerPool(BigInt n,
                               std::shared_ptr<const wide::Montgomery> mont_n2,
                               std::uint64_t seed)
    : n_(std::move(n)), mont_n2_(std::move(mont_n2)), rng_(seed) {}

void RandomizerPool::refill_locked(std::size_t count) {
  // Draw every r in factor order first — the rng consumes the same draw
  // sequence however the factors are later batched — then raise them all
  // to n through one interleaved batch exponentiation. r is uniform in
  // [1, n) and must be a unit; a non-unit reveals a factor of n, which
  // happens with negligible probability for honestly generated keys. One
  // gcd of the group's product mod n checks every r at once; only a group
  // that fails it is re-checked per r in draw order, its non-units dropped
  // and replaced by further draws — so the accepted r are exactly those a
  // per-r check would accept.
  std::vector<BigInt> rs;
  rs.reserve(count);
  while (rs.size() < count) {
    const auto group = static_cast<std::ptrdiff_t>(rs.size());
    BigInt product(1);
    while (rs.size() < count) {
      rs.push_back(BigInt(1) + BigInt::random_below(rng_, n_ - BigInt(1)));
      product = (product * rs.back()) % n_;
    }
    if (wide::gcd(product, n_) == BigInt(1)) break;
    rs.erase(std::remove_if(rs.begin() + group, rs.end(),
                            [&](const BigInt& r) {
                              return wide::gcd(r, n_) != BigInt(1);
                            }),
             rs.end());
  }
  std::vector<wide::Montgomery::Form> bases;
  bases.reserve(count);
  for (const BigInt& r : rs) bases.push_back(mont_n2_->to_form(r));
  obs::crypto_counters().pool_batch_refills.inc();
  for (wide::Montgomery::Form& f : mont_n2_->pow_form_batch(bases, n_))
    stock_.push_back(std::move(f));
}

wide::Montgomery::Form RandomizerPool::take() {
  return std::move(take_batch(1).front());
}

std::vector<wide::Montgomery::Form> RandomizerPool::take_batch(
    std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  // Serial takes would miss once per kRefillBatch factors past the stock;
  // generate all of those lane groups in one refill instead.
  const std::size_t short_by = count > stock_.size() ? count - stock_.size() : 0;
  const std::size_t misses = (short_by + kRefillBatch - 1) / kRefillBatch;
  if (misses > 0) refill_locked(misses * kRefillBatch);
  obs::crypto_counters().pool_misses.inc(misses);
  obs::crypto_counters().pool_hits.inc(count - misses);
  const auto end = stock_.begin() + static_cast<std::ptrdiff_t>(count);
  std::vector<wide::Montgomery::Form> out(std::make_move_iterator(stock_.begin()),
                                          std::make_move_iterator(end));
  stock_.erase(stock_.begin(), end);
  return out;
}

void RandomizerPool::prefill(std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count == 0) return;
  obs::crypto_counters().pool_prefills.inc(count);
  refill_locked(count);
}

}  // namespace kgrid::hom
