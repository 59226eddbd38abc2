#include "core/martingale.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/macros.hpp"

namespace eimm {

double log_binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

MartingaleParams compute_martingale_params(VertexId n, std::size_t k,
                                           double epsilon, double ell) {
  EIMM_CHECK(n >= 2, "graph too small for IMM");
  EIMM_CHECK(k >= 1 && k <= n, "k must be in [1, n]");
  EIMM_CHECK(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");

  MartingaleParams p;
  p.n = n;
  p.k = k;
  p.epsilon = epsilon;
  p.epsilon_prime = std::sqrt(2.0) * epsilon;

  const double dn = static_cast<double>(n);
  const double ln_n = std::log(dn);
  // Union-bound boost (Tang et al. §4.2): with the boosted ℓ the whole
  // algorithm, probing included, succeeds with probability 1 - 1/n^ℓ.
  p.ell = ell * (1.0 + std::log(2.0) / ln_n);
  p.log_choose_nk = log_binomial(n, k);

  const double eps_p = p.epsilon_prime;
  const double log2n = std::log2(dn);
  // λ' = (2 + 2/3 ε') (ln C(n,k) + ℓ ln n + ln log2 n) n / ε'^2
  p.lambda_prime = (2.0 + 2.0 / 3.0 * eps_p) *
                   (p.log_choose_nk + p.ell * ln_n + std::log(log2n)) * dn /
                   (eps_p * eps_p);

  // λ* = 2n ((1-1/e)α + β)^2 ε^-2, with
  // α = sqrt(ℓ ln n + ln 2), β = sqrt((1-1/e)(ln C(n,k) + ℓ ln n + ln 2)).
  const double one_minus_inv_e = 1.0 - 1.0 / std::exp(1.0);
  const double alpha = std::sqrt(p.ell * ln_n + std::log(2.0));
  const double beta = std::sqrt(one_minus_inv_e *
                                (p.log_choose_nk + p.ell * ln_n + std::log(2.0)));
  const double term = one_minus_inv_e * alpha + beta;
  p.lambda_star = 2.0 * dn * term * term / (epsilon * epsilon);
  return p;
}

unsigned MartingaleParams::max_iterations() const noexcept {
  const double log2n = std::log2(static_cast<double>(n));
  const auto iters = static_cast<long>(std::ceil(log2n)) - 1;
  return iters < 1 ? 1u : static_cast<unsigned>(iters);
}

std::uint64_t MartingaleParams::theta_for_iteration(unsigned i) const noexcept {
  const double x = static_cast<double>(n) / std::exp2(static_cast<double>(i));
  const double theta = lambda_prime / std::max(x, 1.0);
  return theta < 1.0 ? 1ULL : static_cast<std::uint64_t>(theta);
}

std::uint64_t MartingaleParams::theta_final(double lower_bound) const noexcept {
  const double lb = std::max(lower_bound, 1.0);
  const double theta = lambda_star / lb;
  return theta < 1.0 ? 1ULL : static_cast<std::uint64_t>(theta);
}

bool MartingaleParams::accepts(double coverage_fraction,
                               unsigned i) const noexcept {
  const double x = static_cast<double>(n) / std::exp2(static_cast<double>(i));
  return static_cast<double>(n) * coverage_fraction >=
         (1.0 + epsilon_prime) * x;
}

double MartingaleParams::lower_bound(double coverage_fraction) const noexcept {
  return static_cast<double>(n) * coverage_fraction / (1.0 + epsilon_prime);
}

std::uint64_t run_martingale_probing(
    const MartingaleParams& params,
    const std::function<void(std::uint64_t)>& generate_to,
    const std::function<double()>& select_coverage,
    const std::function<void(const MartingaleIteration&)>& observe,
    const std::function<double()>& coverage_upper_bound) {
  static const obs::Counter rounds = obs::counter("martingale.rounds_total");
  static const obs::Counter skipped =
      obs::counter("martingale.probes_skipped_total");
  double lower_bound = 1.0;
  const unsigned last = params.max_iterations();
  for (unsigned i = 1; i <= last; ++i) {
    MartingaleIteration record;
    record.iteration = i;
    record.theta = params.theta_for_iteration(i);
    obs::TraceSpan span("martingale.round", "iteration", i, "theta",
                        static_cast<std::int64_t>(record.theta));
    rounds.add();
    generate_to(record.theta);
    if (coverage_upper_bound && i < last) {
      record.coverage_bound = coverage_upper_bound();
      record.skipped = !params.accepts(record.coverage_bound, i);
    }
    span.arg("skipped", record.skipped ? 1 : 0);
    if (record.skipped) {
      // Certified rejection: no greedy, and nothing for the fallback LB.
      skipped.add();
      if (observe) observe(record);
      continue;
    }
    record.coverage = select_coverage();
    record.lower_bound = params.lower_bound(record.coverage);
    record.accepted = params.accepts(record.coverage, i);
    if (observe) observe(record);
    if (record.accepted) {
      lower_bound = record.lower_bound;
      break;
    }
    // Keep the best certified-free estimate as a fallback LB so that a
    // probe loop that never triggers still produces a sane θ.
    lower_bound = std::max(lower_bound, record.lower_bound / 2.0);
  }

  // Set Theta + top-up generation (generate_to is idempotent below the
  // high-water mark, so an already-large pool is left alone).
  const std::uint64_t theta = params.theta_final(lower_bound);
  generate_to(theta);
  return theta;
}

std::uint64_t cap_theta_request(std::uint64_t target, std::uint64_t max_sets,
                                bool& capped) {
  if (target <= max_sets) return target;
  capped = true;
  EIMM_LOG_WARN << "theta " << target << " capped at max_rrr_sets="
                << max_sets << "; approximation guarantee weakened";
  return max_sets;
}

}  // namespace eimm
