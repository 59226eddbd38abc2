#include "core/martingale.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "support/macros.hpp"

namespace eimm {
namespace {

TEST(LogBinomial, KnownValues) {
  EXPECT_NEAR(log_binomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(log_binomial(10, 3), std::log(120.0), 1e-9);
  EXPECT_DOUBLE_EQ(log_binomial(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial(7, 7), 0.0);
}

TEST(LogBinomial, Symmetry) {
  EXPECT_NEAR(log_binomial(100, 30), log_binomial(100, 70), 1e-9);
}

TEST(LogBinomial, KGreaterThanNIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(log_binomial(3, 5)));
  EXPECT_LT(log_binomial(3, 5), 0.0);
}

TEST(LogBinomial, LargeArgumentsStable) {
  // C(4e7, 50) overflows any float; the log form must stay finite.
  const double v = log_binomial(41'652'230, 50);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(v, 0.0);
}

TEST(MartingaleParams, DerivedConstants) {
  const auto p = compute_martingale_params(100'000, 50, 0.5);
  EXPECT_NEAR(p.epsilon_prime, std::sqrt(2.0) * 0.5, 1e-12);
  EXPECT_GT(p.ell, 1.0);  // boosted above the requested 1.0
  EXPECT_GT(p.lambda_prime, 0.0);
  EXPECT_GT(p.lambda_star, 0.0);
}

TEST(MartingaleParams, ValidationGuards) {
  EXPECT_THROW(compute_martingale_params(1, 1, 0.5), CheckError);
  EXPECT_THROW(compute_martingale_params(100, 0, 0.5), CheckError);
  EXPECT_THROW(compute_martingale_params(100, 101, 0.5), CheckError);
  EXPECT_THROW(compute_martingale_params(100, 10, 0.0), CheckError);
  EXPECT_THROW(compute_martingale_params(100, 10, 1.0), CheckError);
}

TEST(MartingaleParams, ThetaDoublesPerIteration) {
  const auto p = compute_martingale_params(1 << 16, 50, 0.5);
  for (unsigned i = 1; i + 1 <= p.max_iterations(); ++i) {
    const double ratio = static_cast<double>(p.theta_for_iteration(i + 1)) /
                         static_cast<double>(p.theta_for_iteration(i));
    EXPECT_NEAR(ratio, 2.0, 0.01) << "iteration " << i;
  }
}

TEST(MartingaleParams, MaxIterationsMatchesLog2) {
  EXPECT_EQ(compute_martingale_params(1 << 10, 5, 0.5).max_iterations(), 9u);
  EXPECT_EQ(compute_martingale_params(1 << 16, 5, 0.5).max_iterations(), 15u);
  // Tiny graphs still get at least one probing iteration.
  EXPECT_GE(compute_martingale_params(2, 1, 0.5).max_iterations(), 1u);
}

TEST(MartingaleParams, ThetaFinalInverseInLowerBound) {
  const auto p = compute_martingale_params(10'000, 20, 0.5);
  const auto theta_small_lb = p.theta_final(10.0);
  const auto theta_large_lb = p.theta_final(1000.0);
  EXPECT_GT(theta_small_lb, theta_large_lb);
  EXPECT_NEAR(static_cast<double>(theta_small_lb) /
                  static_cast<double>(theta_large_lb),
              100.0, 1.0);
}

TEST(MartingaleParams, ThetaFinalClampsLowerBound) {
  const auto p = compute_martingale_params(10'000, 20, 0.5);
  EXPECT_EQ(p.theta_final(0.0), p.theta_final(1.0));
  EXPECT_EQ(p.theta_final(-5.0), p.theta_final(1.0));
}

TEST(MartingaleParams, AcceptanceThreshold) {
  const auto p = compute_martingale_params(1024, 10, 0.5);
  // Iteration 1 probes x = n/2 = 512. Acceptance needs
  // n * F >= (1 + eps') * 512.
  const double boundary =
      (1.0 + p.epsilon_prime) * 512.0 / 1024.0;
  EXPECT_TRUE(p.accepts(boundary + 1e-9, 1));
  EXPECT_FALSE(p.accepts(boundary - 1e-3, 1));
}

TEST(MartingaleParams, LowerBoundFormula) {
  const auto p = compute_martingale_params(1000, 10, 0.5);
  EXPECT_NEAR(p.lower_bound(0.34), 1000.0 * 0.34 / (1.0 + p.epsilon_prime),
              1e-9);
}

TEST(MartingaleParams, SmallerEpsilonNeedsMoreSamples) {
  const auto loose = compute_martingale_params(10'000, 20, 0.5);
  const auto tight = compute_martingale_params(10'000, 20, 0.1);
  EXPECT_GT(tight.lambda_star, loose.lambda_star);
  EXPECT_GT(tight.lambda_prime, loose.lambda_prime);
}

TEST(MartingaleParams, LargerKNeedsMoreSamples) {
  const auto small_k = compute_martingale_params(10'000, 5, 0.5);
  const auto large_k = compute_martingale_params(10'000, 100, 0.5);
  EXPECT_GT(large_k.lambda_star, small_k.lambda_star);
}

/// Drives run_martingale_probing with synthetic per-iteration coverages
/// and, optionally, upper bounds on them, recording every callback.
struct SyntheticProbing {
  std::vector<double> coverage;  // F(S) the greedy returns at iteration i
  std::vector<double> bound;     // empty: no coverage_upper_bound callback
  std::vector<MartingaleIteration> records;
  std::vector<unsigned> selected;  // iterations whose greedy ran
  std::vector<unsigned> bounded;   // iterations whose bound was asked for
  std::uint64_t theta = 0;

  SyntheticProbing& run(const MartingaleParams& p) {
    unsigned i = 0;  // the iteration of the latest generate_to
    std::function<double()> upper_bound;
    if (!bound.empty()) {
      upper_bound = [&] {
        bounded.push_back(i);
        return bound[i - 1];
      };
    }
    theta = run_martingale_probing(
        p, [&](std::uint64_t) { ++i; },
        [&] {
          selected.push_back(i);
          return coverage[i - 1];
        },
        [&](const MartingaleIteration& r) { records.push_back(r); },
        upper_bound);
    return *this;
  }
};

/// The smallest coverage iteration i accepts.
double bar(const MartingaleParams& p, unsigned i) {
  return (1.0 + p.epsilon_prime) / std::exp2(static_cast<double>(i));
}

TEST(CertifiedProbeRejection, AnAcceptingProbeIsNeverSkipped) {
  const auto p = compute_martingale_params(1024, 5, 0.5);
  ASSERT_EQ(p.max_iterations(), 9u);
  for (unsigned accept_at = 1; accept_at < p.max_iterations(); ++accept_at) {
    // A constant coverage that first clears the bar at accept_at, bounded
    // as tightly as a bound may be: by the coverage itself.
    SyntheticProbing probing;
    probing.coverage.assign(p.max_iterations(), 1.2 * bar(p, accept_at));
    probing.bound = probing.coverage;
    probing.run(p);
    ASSERT_EQ(probing.records.size(), accept_at);
    const MartingaleIteration& last = probing.records.back();
    EXPECT_TRUE(last.accepted);
    EXPECT_FALSE(last.skipped);
    EXPECT_EQ(probing.selected, std::vector<unsigned>{accept_at});
    for (unsigned i = 1; i < accept_at; ++i) {
      EXPECT_TRUE(probing.records[i - 1].skipped) << i;
      EXPECT_FALSE(probing.records[i - 1].accepted) << i;
      EXPECT_EQ(probing.records[i - 1].coverage, 0.0) << i;
    }
  }
}

TEST(CertifiedProbeRejection, TheLastIterationAlwaysRunsItsGreedy) {
  const auto p = compute_martingale_params(1024, 5, 0.5);
  const unsigned last = p.max_iterations();
  SyntheticProbing probing;
  probing.coverage.assign(last, 0.0);
  probing.bound.assign(last, 0.0);  // certifies every probe as failing
  probing.run(p);
  ASSERT_EQ(probing.records.size(), last);
  EXPECT_EQ(probing.selected, std::vector<unsigned>{last});
  EXPECT_EQ(probing.bounded.size(), last - 1);  // never asked at the last
  EXPECT_FALSE(probing.records.back().skipped);
  EXPECT_EQ(probing.records.back().coverage_bound, 0.0);
  for (unsigned i = 1; i < last; ++i) {
    EXPECT_TRUE(probing.records[i - 1].skipped) << i;
  }
  EXPECT_EQ(probing.theta, p.theta_final(1.0));
}

TEST(CertifiedProbeRejection, SkippedProbesFeedNothingIntoTheFallbackBound) {
  const auto p = compute_martingale_params(1024, 5, 0.5);
  const unsigned last = p.max_iterations();
  // No probe accepts. Probe 1's bound sits just below its bar: a fallback
  // fed from it would be LB ≈ n/4; the probes that run cover 0.002.
  SyntheticProbing probing;
  probing.coverage.assign(last, 0.002);
  probing.bound.assign(last, 1.0);
  probing.bound[0] = 0.99 * bar(p, 1);
  probing.run(p);
  ASSERT_EQ(probing.records.size(), last);
  EXPECT_TRUE(probing.records[0].skipped);
  EXPECT_EQ(probing.records[0].lower_bound, 0.0);
  EXPECT_EQ(probing.selected.size(), last - 1);
  const double fed_lb = std::max(1.0, p.lower_bound(0.002) / 2.0);
  EXPECT_EQ(probing.theta, p.theta_final(fed_lb));
  EXPECT_GT(probing.theta, p.theta_final(p.lower_bound(bar(p, 1)) / 2.0));
}

TEST(CertifiedProbeRejection, ValidBoundsChangeNoDecision) {
  // Random coverages and random bounds no smaller than them: every θ_i
  // and accept decision matches the unbounded run, unskipped coverages
  // match too, and θ matches whenever a probe accepts (otherwise it can
  // only grow, because fewer probes feed the fallback).
  const auto p = compute_martingale_params(100'000, 10, 0.3);
  const unsigned iters = p.max_iterations();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    SyntheticProbing plain;
    const double scale = std::exp2(-16.0 * unit(rng));
    for (unsigned i = 0; i < iters; ++i) {
      plain.coverage.push_back(scale * unit(rng));
    }
    SyntheticProbing bounded;
    bounded.coverage = plain.coverage;
    for (const double c : plain.coverage) {
      bounded.bound.push_back(trial % 4 == 0 ? c : c * (1.0 + 8.0 * unit(rng)));
    }
    plain.run(p);
    bounded.run(p);
    ASSERT_EQ(bounded.records.size(), plain.records.size()) << trial;
    for (std::size_t i = 0; i < plain.records.size(); ++i) {
      const MartingaleIteration& a = plain.records[i];
      const MartingaleIteration& b = bounded.records[i];
      EXPECT_EQ(a.theta, b.theta);
      EXPECT_EQ(a.accepted, b.accepted) << trial << " i=" << i + 1;
      EXPECT_FALSE(a.skipped);
      if (b.accepted) {
        EXPECT_FALSE(b.skipped);
      }
      if (!b.skipped) {
        EXPECT_EQ(a.coverage, b.coverage);
      }
    }
    if (plain.records.back().accepted) {
      EXPECT_EQ(bounded.theta, plain.theta) << trial;
    } else {
      EXPECT_GE(bounded.theta, plain.theta) << trial;
    }
  }
}

}  // namespace
}  // namespace eimm
