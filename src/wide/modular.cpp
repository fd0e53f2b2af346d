#include "wide/modular.hpp"

#include <algorithm>
#include <utility>

#include "obs/crypto_counters.hpp"
#include "util/check.hpp"

namespace kgrid::wide {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
}  // namespace

BigInt gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  return (a.abs() / gcd(a, b)) * b.abs();
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  KGRID_CHECK(m > BigInt(1), "mod_inverse needs modulus > 1");
  // Extended Euclid maintaining only the coefficient of a.
  BigInt r0 = m;
  BigInt r1 = a.mod_floor(m);
  BigInt t0(0);
  BigInt t1(1);
  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::divmod(r0, r1);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  KGRID_CHECK(r0 == BigInt(1), "mod_inverse: operand not coprime to modulus");
  return t0.mod_floor(m);
}

int pow_window_bits(std::size_t exp_bits) {
  // Width w costs 2^(w-1) table multiplies and saves the ladder one multiply
  // per w-1 exponent bits on average; these cutovers sit near the
  // break-even points.
  if (exp_bits <= 24) return 1;
  if (exp_bits <= 80) return 2;
  if (exp_bits <= 240) return 3;
  if (exp_bits <= 768) return 4;
  return 5;
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  KGRID_CHECK(m > BigInt(1), "mod_pow needs modulus > 1");
  KGRID_CHECK(!exp.is_negative(), "mod_pow needs non-negative exponent");
  if (m.is_odd()) return Montgomery(m).pow(base.mod_floor(m), exp);
  // Even modulus: windowed left-to-right square-and-multiply with division
  // for the reductions. Not on the crypto hot path (Paillier moduli are
  // odd); kept complete and cross-checked against the odd path.
  obs::crypto_counters().modexps.inc();
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return BigInt(1) % m;
  const BigInt b = base.mod_floor(m);
  const int w = pow_window_bits(bits);
  if (w > 1) obs::crypto_counters().windowed_modexps.inc();

  // Odd powers b^1, b^3, ..., b^(2^w - 1).
  std::vector<BigInt> table(std::size_t{1} << (w - 1));
  table[0] = b;
  const BigInt b2 = (b * b) % m;
  for (std::size_t i = 1; i < table.size(); ++i)
    table[i] = (table[i - 1] * b2) % m;

  BigInt result;
  bool started = false;
  std::size_t i = bits;
  while (i-- > 0) {
    if (!exp.bit(i)) {
      result = (result * result) % m;
      continue;
    }
    // Greedy window [j, i] ending on a set bit (so the table index is odd).
    std::size_t j = i >= static_cast<std::size_t>(w) - 1
                        ? i - static_cast<std::size_t>(w) + 1
                        : 0;
    while (!exp.bit(j)) ++j;
    std::size_t val = 0;
    for (std::size_t k = i + 1; k-- > j;) val = (val << 1) | (exp.bit(k) ? 1 : 0);
    if (!started) {
      result = table[val >> 1];
      started = true;
    } else {
      for (std::size_t k = 0; k < i - j + 1; ++k) result = (result * result) % m;
      result = (result * table[val >> 1]) % m;
    }
    i = j;  // loop decrement consumes bit j
  }
  return result;
}

Montgomery::Montgomery(const BigInt& modulus) : m_(modulus) {
  KGRID_CHECK(m_ > BigInt(1) && m_.is_odd(), "Montgomery needs odd modulus > 1");
  k_ = m_.limb_count();
  m_limbs_.resize(k_);
  for (std::size_t i = 0; i < k_; ++i) m_limbs_[i] = m_.limb(i);

  // m' = -m^-1 mod 2^64 via Newton iteration (doubles correct bits each step).
  const u64 m0 = m_limbs_[0];
  u64 inv = m0;              // 3 correct bits to start (m0 odd)
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  m_prime_ = 0 - inv;        // -(m0^-1) mod 2^64

  // R^2 mod m where R = 2^(64 k): one big division at setup time.
  BigInt r2 = BigInt(1);
  r2 <<= 2 * 64 * k_;
  r2 = r2 % m_;
  r2_ = to_limbs(r2);

  BigInt r = BigInt(1);
  r <<= 64 * k_;
  one_ = to_limbs(r % m_);

  // Fixed-width kernel tables. Every constant is a power of two mod m, so
  // setup stays a handful of big divisions; the radix-52 bridge constants
  // make the IFMA backend's R' = 2^(52·k52) domain invisible from outside
  // (see fixword.hpp for the identities each one satisfies).
  if (fixword::width_supported(k_)) {
    fw_.k = k_;
    fw_.m_prime = m_prime_;
    fw_.m = m_limbs_;
    fw_.one = one_;
    fw_.m_prime32 = static_cast<std::uint32_t>(m_prime_);
    fw_.m32.resize(2 * k_);
    for (std::size_t i = 0; i < k_; ++i) {
      fw_.m32[2 * i] = static_cast<std::uint32_t>(m_limbs_[i]);
      fw_.m32[2 * i + 1] = static_cast<std::uint32_t>(m_limbs_[i] >> 32);
    }
    fw_.k52 = fixword::limbs52(k_);
    fw_.m_prime52 = m_prime_ & fixword::kMask52;
    fw_.m52.resize(fw_.k52);
    fixword::to_radix52(m_limbs_.data(), k_, fw_.m52.data(), fw_.k52);
    const auto pow2_mod52 = [&](std::size_t e) {
      BigInt x = BigInt(1);
      x <<= e;
      const std::vector<Limb> l64 = to_limbs(x % m_);
      std::vector<Limb> out(fw_.k52);
      fixword::to_radix52(l64.data(), k_, out.data(), fw_.k52);
      return out;
    };
    fw_.one52 = pow2_mod52(52 * fw_.k52);
    fw_.to52 = pow2_mod52(104 * fw_.k52 - 64 * k_);
    fw_.from52 = pow2_mod52(64 * k_);
    fw_.unconv52 = pow2_mod52(52 * fw_.k52 - 64 * k_);
    fw_ok_ = true;
  }
}

std::vector<Montgomery::Limb> Montgomery::to_limbs(const BigInt& x) const {
  KGRID_CHECK(!x.is_negative() && x < m_, "Montgomery operand out of range");
  std::vector<Limb> out(k_, 0);
  for (std::size_t i = 0; i < k_; ++i) out[i] = x.limb(i);
  return out;
}

BigInt Montgomery::from_limbs(const std::vector<Limb>& x) const {
  // Rebuild a BigInt from a fixed-width limb vector (may carry high zeros).
  return BigInt::from_limb_span(x.data(), x.size());
}

void Montgomery::mont_mul_into(const Limb* a, const Limb* b, Limb* out,
                               Limb* t) const {
  // Supported widths take the fixed-width constant-time kernel (fully
  // unrolled carry chains, branchless final subtract); the generic loop
  // below remains for odd limb counts.
  if (fw_ok_) {
    fixword::ct_mont_mul(fw_, a, b, out);
    return;
  }
  // CIOS (coarsely integrated operand scanning), Koc et al.
  // t has k+2 limbs: accumulates a*b interleaved with Montgomery reduction.
  std::fill(t, t + k_ + 2, 0);
  for (std::size_t i = 0; i < k_; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 top = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<u64>(top);
    t[k_ + 1] = static_cast<u64>(top >> 64);

    // Reduce: add (t[0] * m') * m, shifting one limb out.
    const u64 u_factor = t[0] * m_prime_;
    u128 cur = static_cast<u128>(u_factor) * m_limbs_[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      cur = static_cast<u128>(u_factor) * m_limbs_[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    top = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<u64>(top);
    t[k_] = t[k_ + 1] + static_cast<u64>(top >> 64);
    t[k_ + 1] = 0;
  }

  // Final conditional subtraction: result in [0, 2m) here. `out` is written
  // only now, after a and b are fully consumed, so it may alias either.
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (t[i] != m_limbs_[i]) {
        ge = t[i] > m_limbs_[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 d = static_cast<u128>(t[i]) - m_limbs_[i] - borrow;
      out[i] = static_cast<u64>(d);
      borrow = static_cast<u64>((d >> 64) & 1);
    }
  } else {
    std::copy(t, t + k_, out);
  }
}

std::vector<Montgomery::Limb> Montgomery::mont_mul(
    const std::vector<Limb>& a, const std::vector<Limb>& b) const {
  std::vector<Limb> out(k_);
  std::vector<Limb> t(k_ + 2);
  mont_mul_into(a.data(), b.data(), out.data(), t.data());
  return out;
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  obs::crypto_counters().mont_muls.inc();
  const auto am = mont_mul(to_limbs(a), r2_);
  const auto bm = mont_mul(to_limbs(b), r2_);
  const auto prod = mont_mul(am, bm);
  std::vector<Limb> one_limbs(k_, 0);
  one_limbs[0] = 1;
  return from_limbs(mont_mul(prod, one_limbs));
}

std::vector<Montgomery::Limb> Montgomery::pow_limbs(
    const std::vector<Limb>& base_m, const BigInt& exp) const {
  // Fixed widths take the constant-time fixed-window kernel: the walk
  // covers the exponent's full limb capacity regardless of its value, so
  // timing reveals only the capacity. Always windowed (w = kWindowBits).
  if (fw_ok_) {
    obs::crypto_counters().windowed_modexps.inc();
    const std::size_t el = std::max<std::size_t>(1, exp.limb_count());
    std::vector<Limb> exp_words(el);
    for (std::size_t i = 0; i < el; ++i) exp_words[i] = exp.limb(i);
    std::vector<Limb> out(k_);
    fixword::ct_pow(fw_, base_m.data(), exp_words.data(), el, out.data());
    return out;
  }
  const std::size_t bits = exp.bit_length();
  if (bits == 0) return one_;
  const int w = pow_window_bits(bits);
  std::vector<Limb> t(k_ + 2);

  if (w == 1) {
    // Plain binary ladder; a window table would cost more than it saves.
    std::vector<Limb> acc = one_;
    std::vector<Limb> tmp(k_);
    for (std::size_t i = bits; i-- > 0;) {
      mont_mul_into(acc.data(), acc.data(), tmp.data(), t.data());
      acc.swap(tmp);
      if (exp.bit(i)) {
        mont_mul_into(acc.data(), base_m.data(), tmp.data(), t.data());
        acc.swap(tmp);
      }
    }
    return acc;
  }
  obs::crypto_counters().windowed_modexps.inc();

  // Odd-power table: table[i] = base^(2i+1) in Montgomery form.
  std::vector<std::vector<Limb>> table(std::size_t{1} << (w - 1));
  table[0] = base_m;
  std::vector<Limb> sq(k_);
  mont_mul_into(base_m.data(), base_m.data(), sq.data(), t.data());
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i].resize(k_);
    mont_mul_into(table[i - 1].data(), sq.data(), table[i].data(), t.data());
  }

  // Left-to-right sliding window: zeros square through; a set bit opens a
  // greedy window [j, i] ending on a set bit so its value is odd.
  std::vector<Limb> acc;
  std::vector<Limb> tmp(k_);
  std::size_t i = bits;
  while (i-- > 0) {
    if (!exp.bit(i)) {
      // The exponent's top bit is set, so acc is always live here.
      mont_mul_into(acc.data(), acc.data(), tmp.data(), t.data());
      acc.swap(tmp);
      continue;
    }
    std::size_t j = i >= static_cast<std::size_t>(w) - 1
                        ? i - static_cast<std::size_t>(w) + 1
                        : 0;
    while (!exp.bit(j)) ++j;
    std::size_t val = 0;
    for (std::size_t b = i + 1; b-- > j;) val = (val << 1) | (exp.bit(b) ? 1 : 0);
    if (acc.empty()) {
      acc = table[val >> 1];
    } else {
      for (std::size_t s = 0; s < i - j + 1; ++s) {
        mont_mul_into(acc.data(), acc.data(), tmp.data(), t.data());
        acc.swap(tmp);
      }
      mont_mul_into(acc.data(), table[val >> 1].data(), tmp.data(), t.data());
      acc.swap(tmp);
    }
    i = j;  // loop decrement consumes bit j
  }
  return acc;
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  KGRID_CHECK(!exp.is_negative(), "Montgomery::pow needs non-negative exponent");
  obs::crypto_counters().modexps.inc();
  const auto base_m = mont_mul(to_limbs(base.mod_floor(m_)), r2_);
  const auto acc = pow_limbs(base_m, exp);
  // Convert out of Montgomery form: multiply by 1.
  std::vector<Limb> one_limbs(k_, 0);
  one_limbs[0] = 1;
  return from_limbs(mont_mul(acc, one_limbs));
}

BigInt Montgomery::pow_binary(const BigInt& base, const BigInt& exp) const {
  KGRID_CHECK(!exp.is_negative(),
              "Montgomery::pow_binary needs non-negative exponent");
  obs::crypto_counters().modexps.inc();
  const auto base_m = mont_mul(to_limbs(base.mod_floor(m_)), r2_);
  std::vector<Limb> acc = one_;  // Montgomery form of 1
  std::vector<Limb> tmp(k_);
  std::vector<Limb> t(k_ + 2);
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    mont_mul_into(acc.data(), acc.data(), tmp.data(), t.data());
    acc.swap(tmp);
    if (exp.bit(i)) {
      mont_mul_into(acc.data(), base_m.data(), tmp.data(), t.data());
      acc.swap(tmp);
    }
  }
  std::vector<Limb> one_limbs(k_, 0);
  one_limbs[0] = 1;
  return from_limbs(mont_mul(acc, one_limbs));
}

void Montgomery::check_form(const Form& f) const {
  KGRID_CHECK(f.ctx_ == this, "Montgomery::Form used with a foreign context");
}

Montgomery::Form Montgomery::to_form(const BigInt& x) const {
  Form f;
  f.ctx_ = this;
  f.limbs_ = mont_mul(to_limbs(x), r2_);
  return f;
}

BigInt Montgomery::from_form(const Form& x) const {
  check_form(x);
  std::vector<Limb> one_limbs(k_, 0);
  one_limbs[0] = 1;
  return from_limbs(mont_mul(x.limbs_, one_limbs));
}

Montgomery::Form Montgomery::one_form() const {
  Form f;
  f.ctx_ = this;
  f.limbs_ = one_;
  return f;
}

Montgomery::Form Montgomery::mul_form(const Form& a, const Form& b) const {
  check_form(a);
  check_form(b);
  obs::crypto_counters().mont_muls.inc();
  Form out;
  out.ctx_ = this;
  out.limbs_.resize(k_);
  std::vector<Limb> t(k_ + 2);
  mont_mul_into(a.limbs_.data(), b.limbs_.data(), out.limbs_.data(), t.data());
  return out;
}

void Montgomery::mul_form_into(const Form& a, const Form& b, Form& out,
                               std::vector<BigInt::Limb>& scratch) const {
  check_form(a);
  check_form(b);
  obs::crypto_counters().mont_muls.inc();
  out.ctx_ = this;
  out.limbs_.resize(k_);
  scratch.resize(k_ + 2);
  mont_mul_into(a.limbs_.data(), b.limbs_.data(), out.limbs_.data(),
                scratch.data());
}

Montgomery::Form Montgomery::pow_form(const Form& base, const BigInt& exp) const {
  check_form(base);
  KGRID_CHECK(!exp.is_negative(),
              "Montgomery::pow_form needs non-negative exponent");
  obs::crypto_counters().modexps.inc();
  Form out;
  out.ctx_ = this;
  out.limbs_ = pow_limbs(base.limbs_, exp);
  return out;
}

std::vector<Montgomery::Form> Montgomery::pow_form_batch(
    std::span<const Form> bases, const BigInt& exp) const {
  for (const Form& b : bases) check_form(b);
  return pow_form_batch(bases, std::vector<BigInt>(bases.size(), exp));
}

std::vector<Montgomery::Form> Montgomery::pow_form_batch(
    std::span<const Form> bases, std::span<const BigInt> exps) {
  KGRID_CHECK(bases.size() == exps.size(),
              "pow_form_batch: bases/exps size mismatch");
  const std::size_t n = bases.size();
  std::vector<Form> out(n);
  if (n == 0) return out;
  for (const Form& b : bases)
    KGRID_CHECK(b.attached(), "pow_form_batch needs attached Forms");
  for (const BigInt& e : exps)
    KGRID_CHECK(!e.is_negative(), "pow_form_batch needs non-negative exponents");
  obs::crypto_counters().modexps.inc(n);
  // One lockstep batch needs every context on the same fixed width.
  const Montgomery& first = *bases[0].ctx_;
  bool lockstep = first.fw_ok_;
  for (const Form& b : bases) lockstep = lockstep && b.ctx_->k_ == first.k_;
  if (!lockstep) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i].ctx_ = bases[i].ctx_;
      out[i].limbs_ = bases[i].ctx_->pow_limbs(bases[i].limbs_, exps[i]);
    }
    return out;
  }
  obs::crypto_counters().windowed_modexps.inc(n);
  obs::crypto_counters().batch_modexps.inc(n);
  // Every lane walks the widest exponent's capacity so the interleaved
  // window schedule stays lockstep; narrower rows are zero-padded.
  std::size_t el = 1;
  for (const BigInt& e : exps) el = std::max(el, e.limb_count());
  std::vector<Limb> exp_rows(n * el, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < exps[i].limb_count(); ++j)
      exp_rows[i * el + j] = exps[i].limb(j);
  std::vector<const fixword::MontCtx*> cp(n);
  std::vector<const Limb*> bp(n);
  std::vector<Limb*> op(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].ctx_ = bases[i].ctx_;
    out[i].limbs_.resize(first.k_);
    cp[i] = &bases[i].ctx_->fw_;
    bp[i] = bases[i].limbs_.data();
    op[i] = out[i].limbs_.data();
  }
  fixword::active_backend().pow_batch(cp.data(), bp.data(), exp_rows.data(),
                                      el, op.data(), n);
  return out;
}

std::vector<Montgomery::Form> Montgomery::mul_form_batch(
    std::span<const Form> a, std::span<const Form> b) const {
  KGRID_CHECK(a.size() == b.size(), "mul_form_batch: size mismatch");
  const std::size_t n = a.size();
  std::vector<Form> out(n);
  if (n == 0) return out;
  for (std::size_t i = 0; i < n; ++i) {
    check_form(a[i]);
    check_form(b[i]);
    out[i].ctx_ = this;
    out[i].limbs_.resize(k_);
  }
  obs::crypto_counters().mont_muls.inc(n);
  if (!fw_ok_) {
    std::vector<Limb> t(k_ + 2);
    for (std::size_t i = 0; i < n; ++i)
      mont_mul_into(a[i].limbs_.data(), b[i].limbs_.data(),
                    out[i].limbs_.data(), t.data());
    return out;
  }
  std::vector<const Limb*> ap(n), bp(n);
  std::vector<Limb*> op(n);
  for (std::size_t i = 0; i < n; ++i) {
    ap[i] = a[i].limbs_.data();
    bp[i] = b[i].limbs_.data();
    op[i] = out[i].limbs_.data();
  }
  fixword::active_backend().mont_mul_batch(fw_, ap.data(), bp.data(),
                                           op.data(), n);
  return out;
}

std::vector<BigInt> Montgomery::from_form_batch(
    std::span<const Form> xs) const {
  const std::size_t n = xs.size();
  std::vector<BigInt> out(n);
  if (n == 0) return out;
  for (const Form& x : xs) check_form(x);
  if (!fw_ok_) {
    for (std::size_t i = 0; i < n; ++i) out[i] = from_form(xs[i]);
    return out;
  }
  std::vector<std::vector<Limb>> vals(n, std::vector<Limb>(k_));
  std::vector<const Limb*> ip(n);
  std::vector<Limb*> op(n);
  for (std::size_t i = 0; i < n; ++i) {
    ip[i] = xs[i].limbs_.data();
    op[i] = vals[i].data();
  }
  fixword::active_backend().from_mont_batch(fw_, ip.data(), op.data(), n);
  for (std::size_t i = 0; i < n; ++i) out[i] = from_limbs(vals[i]);
  return out;
}

}  // namespace kgrid::wide
