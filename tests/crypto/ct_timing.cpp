// Timing-leak smoke test for the constant-time fixed-width exponentiation
// (dudect-style, Reparaz/Balasch/Verbauwhede): measure Montgomery::pow over
// two exponent classes — one fixed, one random per measurement, both at the
// same limb capacity, since ct_pow's contract is that only the capacity is
// observable — and compare the timing distributions with Welch's t-test.
//
// A statistical test on wall-clock timings is inherently noisy on shared CI
// hardware, so this is a best-effort smoke test, not a proof:
//
//   * The harness first validates itself against a deliberately leaky
//     square-and-multiply ladder (multiplies only on set bits). If the
//     timer cannot resolve even that gross leak, the environment is too
//     noisy to say anything and the test SKIPS (exit 77, wired to ctest's
//     SKIP_RETURN_CODE; labeled "timing" so CI can segregate it).
//   * The constant-time paths then get several trials each; any trial with
//     |t| under the threshold passes. Only a leak reproduced in every trial
//     fails the binary. Two paths are tested: the scalar ct_pow behind
//     Montgomery::pow, and the lane-batched pow_form_batch on the active
//     backend (on IFMA hardware, the kernel with the dedicated squaring),
//     one lane group of bases raised to the class exponent.
//
// Standalone (no gtest) so the measurement loop stays free of framework
// overhead between samples.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "wide/bigint.hpp"
#include "wide/modular.hpp"

using kgrid::Rng;
using kgrid::wide::BigInt;
using kgrid::wide::Montgomery;
namespace fixword = kgrid::wide::fixword;

namespace {

constexpr std::size_t kModulusBits = 1024;  // k = 16 limbs: fixed-width kernels
constexpr std::size_t kSamplesPerClass = 220;
constexpr double kSelfCheckThreshold = 4.5;  // dudect's canonical cutoff
constexpr double kCtThreshold = 10.0;        // generous: smoke, not proof
constexpr int kCtTrials = 3;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exponent of exactly kModulusBits bits (top bit set, so every class walks
/// the same 16-limb capacity).
BigInt full_width_exponent(Rng& rng) {
  return BigInt::random_bits(rng, kModulusBits - 1) +
         (BigInt(1) << (kModulusBits - 1));
}

/// The deliberately leaky reference: binary ladder that multiplies only on
/// set bits, so runtime tracks the exponent's hamming weight.
BigInt leaky_pow(const Montgomery& mont, const BigInt& base, const BigInt& e) {
  BigInt acc(1);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = mont.mul(acc, acc);
    if (e.bit(i)) acc = mont.mul(acc, base);
  }
  return acc;
}

struct Welch {
  double t = 0;
  double mean_fixed = 0;
  double mean_random = 0;
};

/// Interleaved fixed/random measurements of `pow`, trimmed Welch t-test.
/// Interleaving decorrelates slow drift (thermal, scheduler) from the class
/// split; trimming the top decile drops preemption outliers.
template <typename PowFn>
Welch measure(const Montgomery& mont, const BigInt& base, PowFn&& pow,
              std::uint64_t seed) {
  Rng rng(seed);
  // The fixed class is the top bit alone: the same 16-limb capacity as the
  // random class but minimal hamming weight, so a weight- or value-dependent
  // implementation shows the strongest possible contrast while a capacity-only
  // implementation shows none.
  const BigInt fixed_exp = BigInt(1) << (kModulusBits - 1);
  std::vector<double> fixed, random;
  fixed.reserve(kSamplesPerClass);
  random.reserve(kSamplesPerClass);
  volatile std::uint64_t sink = 0;  // keep results observable
  for (std::size_t i = 0; i < kSamplesPerClass; ++i) {
    const BigInt rand_exp = full_width_exponent(rng);
    {
      const double t0 = now_ns();
      sink = sink + pow(mont, base, fixed_exp).limb(0);
      fixed.push_back(now_ns() - t0);
    }
    {
      const double t0 = now_ns();
      sink = sink + pow(mont, base, rand_exp).limb(0);
      random.push_back(now_ns() - t0);
    }
  }
  (void)sink;
  const auto trim = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    v.resize(v.size() - v.size() / 10);
  };
  trim(fixed);
  trim(random);
  const auto stats = [](const std::vector<double>& v, double& mean,
                        double& var) {
    mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    var = 0;
    for (double x : v) var += (x - mean) * (x - mean);
    var /= static_cast<double>(v.size() - 1);
  };
  double mf, vf, mr, vr;
  stats(fixed, mf, vf);
  stats(random, mr, vr);
  const double denom = std::sqrt(vf / static_cast<double>(fixed.size()) +
                                 vr / static_cast<double>(random.size()));
  Welch w;
  w.mean_fixed = mf;
  w.mean_random = mr;
  w.t = denom > 0 ? (mf - mr) / denom : 0;
  return w;
}

/// Up to kCtTrials measurements of `pow`; true when any trial shows no
/// distinguisher. Prints each trial and the verdict under `label`.
template <typename PowFn>
bool ct_trials(const char* label, const Montgomery& mont, const BigInt& base,
               PowFn&& pow) {
  double best = 1e300;
  for (int trial = 0; trial < kCtTrials; ++trial) {
    const Welch ct =
        measure(mont, base, pow, 100 + static_cast<std::uint64_t>(trial));
    std::printf("%s trial %d: |t| = %.2f  fixed %.0fns  random %.0fns\n",
                label, trial, std::fabs(ct.t), ct.mean_fixed, ct.mean_random);
    best = std::min(best, std::fabs(ct.t));
    if (best < kCtThreshold) {
      std::printf("PASS %s: no timing distinguisher (best |t| = %.2f < %.1f)\n",
                  label, best, kCtThreshold);
      return true;
    }
  }
  std::fprintf(stderr,
               "FAIL %s: fixed-vs-random exponent timings distinguishable in "
               "every trial (best |t| = %.2f >= %.1f)\n",
               label, best, kCtThreshold);
  return false;
}

}  // namespace

int main() {
  Rng rng(20260809);
  BigInt m = BigInt::random_bits(rng, kModulusBits - 1) +
             (BigInt(1) << (kModulusBits - 1));
  if (m.is_even()) m += BigInt(1);
  const Montgomery mont(m);
  if (!mont.fixed_width()) {
    std::fprintf(stderr, "modulus missed the fixed-width grid?\n");
    return 77;
  }
  const BigInt base = BigInt::random_below(rng, m);

  // Harness self-check: the leaky ladder must be flagged, else the timer
  // cannot resolve anything on this machine and the results mean nothing.
  const Welch leaky = measure(
      mont, base,
      [](const Montgomery& mo, const BigInt& b, const BigInt& e) {
        return leaky_pow(mo, b, e);
      },
      1);
  std::printf("self-check (leaky ladder): |t| = %.2f  fixed %.0fns  random %.0fns\n",
              std::fabs(leaky.t), leaky.mean_fixed, leaky.mean_random);
  if (std::fabs(leaky.t) < kSelfCheckThreshold) {
    std::printf("SKIP: timer cannot resolve a known leak; environment too noisy\n");
    return 77;
  }

  // The constant-time paths under test.
  const bool pow_ok = ct_trials("ct_pow", mont, base, [](const Montgomery& mo,
                                                         const BigInt& b,
                                                         const BigInt& e) {
    return mo.pow(b, e);
  });
  // One lane group of bases, every lane raised to the class exponent, as
  // RandomizerPool refills and decrypt batches run them.
  const std::size_t lanes = fixword::active_backend().lanes();
  std::vector<Montgomery::Form> forms;
  for (std::size_t i = 0; i < lanes; ++i)
    forms.push_back(mont.to_form(BigInt::random_below(rng, m)));
  const std::string batch_label =
      "pow_form_batch<" + std::string(fixword::active_backend().name()) + ">";
  const bool batch_ok = ct_trials(
      batch_label.c_str(), mont, base,
      [&forms](const Montgomery& mo, const BigInt&, const BigInt& e) {
        return mo.from_form(mo.pow_form_batch(forms, e).front());
      });
  return pow_ok && batch_ok ? 0 : 1;
}
