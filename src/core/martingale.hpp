// Martingale sample-size machinery of IMM (Tang, Shi, Xiao — SIGMOD'15),
// the "Theta Estimation", "OPT Lower Bound" and "Set Theta" steps of
// Algorithm 1 in the paper.
//
// The sampling phase probes guesses x = n/2^i for OPT: for each guess it
// needs θ_i = λ'/x RRR sets; if the greedy seed set covers enough of them
// (n·F(S) ≥ (1+ε')·x), then LB = n·F(S)/(1+ε') lower-bounds OPT with
// high probability and the final sample size θ = λ*/LB delivers a
// (1 − 1/e − ε)-approximation with probability ≥ 1 − 1/n^ℓ.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/types.hpp"

namespace eimm {

/// All derived constants for one (n, k, ε, ℓ) configuration.
struct MartingaleParams {
  std::uint64_t n = 0;
  std::size_t k = 0;
  double epsilon = 0.5;
  /// ε' = √2·ε, the looser accuracy used while probing for LB.
  double epsilon_prime = 0.0;
  /// ℓ boosted by (1 + ln2/ln n) so the union bound over the probing
  /// iterations still yields overall success probability 1 - 1/n^ℓ.
  double ell = 1.0;
  /// ln C(n, k).
  double log_choose_nk = 0.0;
  /// λ' — the sampling-phase constant (Tang et al., Eq. 9 region).
  double lambda_prime = 0.0;
  /// λ* — the final-phase constant (Tang et al., Theorem 1 region).
  double lambda_star = 0.0;

  /// Number of probing iterations: ⌈log2(n)⌉ - 1, at least 1.
  [[nodiscard]] unsigned max_iterations() const noexcept;

  /// θ_i = λ' / (n / 2^i) for probing iteration i (1-based).
  [[nodiscard]] std::uint64_t theta_for_iteration(unsigned i) const noexcept;

  /// θ = λ* / LB for the final sampling round.
  [[nodiscard]] std::uint64_t theta_final(double lower_bound) const noexcept;

  /// The probe-acceptance test: does coverage F(S) certify OPT ≥ x_i?
  [[nodiscard]] bool accepts(double coverage_fraction, unsigned i) const noexcept;

  /// LB implied by an accepted probe.
  [[nodiscard]] double lower_bound(double coverage_fraction) const noexcept;
};

/// ln C(n, k) via lgamma — stable for n in the billions.
double log_binomial(std::uint64_t n, std::uint64_t k);

/// Derives every constant above. ell is the caller's ℓ before boosting.
MartingaleParams compute_martingale_params(VertexId n, std::size_t k,
                                           double epsilon, double ell = 1.0);

/// One probing iteration of the sampling phase (Algorithm 1 lines 1-6).
struct MartingaleIteration {
  unsigned iteration = 0;       // i (1-based)
  std::uint64_t theta = 0;      // θ_i requested for this probe
  double coverage = 0.0;        // F(S_tmp) over the pool (0 when skipped)
  double lower_bound = 0.0;     // LB implied by this probe (0 when skipped)
  bool accepted = false;        // did n·F(S) certify OPT >= x_i?
  /// The greedy never ran: coverage_bound already failed the bar.
  bool skipped = false;
  /// The upper bound on F(S) checked before the greedy (0 when no bound
  /// was computed: no callback, or the last iteration).
  double coverage_bound = 0.0;
};

/// The shared sampling-phase workflow: probes x_i = n/2^i via
/// generate_to(θ_i) + select_coverage() until a probe accepts (with the
/// LB/2 fallback when none does), then tops up to θ = λ*/LB and returns
/// it. Both the single-node drivers and the distributed simulation run
/// exactly this loop, so any change to the acceptance logic lands in all
/// of them at once. `observe` (optional) receives each probe's record.
///
/// Certified probe rejection: `coverage_upper_bound` (optional) returns,
/// after generate_to(θ_i), a value no smaller than the coverage
/// select_coverage() would return over the same pool. When
/// accepts(bound, i) is false the greedy cannot accept either (accepts
/// is monotone in coverage), so the probe is recorded as skipped and its
/// greedy is not run. Accept decisions, θ_i and the pool are therefore
/// those of a run without the callback. Two rules keep it safe:
///   - the last iteration always runs its greedy, so a loop that never
///     accepts still ends on a real coverage;
///   - a skipped probe feeds nothing into the LB/2 fallback (a bound
///     overstates coverage, and a larger fallback LB would shrink θ).
///     When no probe accepts, θ can thus only grow relative to an
///     unskipped run, which never weakens the guarantee.
std::uint64_t run_martingale_probing(
    const MartingaleParams& params,
    const std::function<void(std::uint64_t)>& generate_to,
    const std::function<double()>& select_coverage,
    const std::function<void(const MartingaleIteration&)>& observe = {},
    const std::function<double()>& coverage_upper_bound = {});

/// Clamps a theta request to the caller's pool budget. Sets `capped` and
/// warns (with the requested value, so the overshoot is visible) when the
/// budget truncates the request — the shared policy for every driver, so
/// "approximation guarantee weakened" means the same thing everywhere.
std::uint64_t cap_theta_request(std::uint64_t target, std::uint64_t max_sets,
                                bool& capped);

}  // namespace eimm
