#pragma once

// Parameter engine for all constructions in the paper.
//
// Computes the phase count, degree thresholds, distance thresholds and the
// stretch recurrences:
//
//  Centralized (paper §2.1.2):
//    ell    = ceil(log2((kappa+1)/2))
//    deg_i  = n^(2^i / kappa)
//    L_i    = ceil((1/eps)^i)           (segment length; paper uses (1/eps)^i)
//    delta_i = L_i + 2 R_i
//    R_0 = 0,  R_{i+1} = 2 delta_i + R_i
//
//  Distributed (paper §3.1.1, adjusted to the actual ruling-set covering
//  radius of our [SEW13]-family construction, see congest/ruling_set.hpp):
//    i0   = floor(log2(kappa * rho)),  ell = i0 + ceil((kappa+1)/(kappa rho)) - 1
//    deg_i = n^(2^i/kappa) for i <= i0, n^rho afterwards
//    rul_i = c * (2 delta_i + 1)        (c = ruling-set digit levels)
//    R_{i+1} = 2 (rul_i + delta_i) + R_i
//
//  Spanner (paper §4): [EN17a]-style degree sequence with
//    gamma = max{2, log log kappa},  i0 = min{floor(log_gamma(kappa rho)),
//    floor(kappa rho)}, transition phase deg = n^(rho/2), ell' = i0 +
//    ceil(1/rho - 1/2).
//
//  Stretch recurrences (Lemma 2.10, valid for all variants given R_i):
//    beta_0 = 0,   beta_i  = 2 beta_{i-1} + 6 R_i
//    alpha_0 = 1,  alpha_i = alpha_{i-1} + beta_i / L_i
//
// The (alpha_ell, beta_ell) pair is the *computed* stretch guarantee the
// test suite verifies — tighter than the paper's closed forms (eq. 12/13),
// which we also expose for comparison.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace usne {

/// Shared per-phase schedule for any SAI construction.
struct PhaseSchedule {
  std::vector<double> deg;   // popularity thresholds deg_i (real-valued)
  std::vector<Dist> seg;     // segment lengths L_i
  std::vector<Dist> delta;   // distance thresholds delta_i
  std::vector<Dist> radius;  // radius bounds R_i  (size ell+2: R_0..R_{ell+1})
  std::vector<Dist> beta;    // additive stretch recurrence beta_i
  std::vector<double> alpha; // multiplicative stretch recurrence alpha_i

  int ell() const { return static_cast<int>(deg.size()) - 1; }
  Dist beta_bound() const { return beta.back(); }
  double alpha_bound() const { return alpha.back(); }
};

/// Parameters of the centralized Algorithm 1 (paper §2).
struct CentralizedParams {
  Vertex n = 0;
  int kappa = 2;
  double eps = 0.25;
  PhaseSchedule schedule;

  /// Validates inputs and computes the schedule. Throws std::invalid_argument
  /// on n < 0, kappa < 1 or eps outside (0, 1), and std::overflow_error
  /// when beta_ell is not representable in int64. NOTE: `eps` here is the
  /// *internal* parameter of the recurrences; the resulting multiplicative
  /// stretch is alpha_ell = 1 + O(eps * ell), not 1 + eps. Use
  /// compute_rescaled() to target a final stretch directly.
  static CentralizedParams compute(Vertex n, int kappa, double eps);

  /// The paper's rescaling (§2.2.4): picks the largest internal eps whose
  /// computed alpha_ell is at most 1 + eps_target, so the result is a true
  /// (1 + eps_target, beta)-emulator. Strictly better beta than the paper's
  /// crude eps' = 34*eps*ell substitution because it uses the exact
  /// recurrences. Requires eps_target in (0, 1); throws std::overflow_error
  /// when no schedule representable in int64 meets the target.
  static CentralizedParams compute_rescaled(Vertex n, int kappa,
                                            double eps_target);

  /// The paper's closed-form beta estimate 30 * (1/eps)^(ell-1) (eq. 12),
  /// for comparison against the computed recurrence.
  double closed_form_beta() const;

  std::string describe() const;
};

/// Parameters of the distributed / fast-centralized construction (paper §3).
struct DistributedParams {
  Vertex n = 0;
  int kappa = 4;
  double rho = 0.45;
  double eps = 0.25;
  int i0 = 0;  // last exponential-growth phase

  // Ruling-set geometry (our digit-sweep construction).
  std::int64_t ruling_base = 2;  // b = max(2, ceil(n^rho))
  int ruling_levels = 1;         // c = number of base-b digits of n

  std::vector<Dist> rul;  // covering radii rul_i = c * (2 delta_i + 1)
  PhaseSchedule schedule;

  /// Validates and computes. Requires kappa >= 2, 1/kappa < rho < 0.5,
  /// 0 < eps < 1; throws std::invalid_argument otherwise, and
  /// std::overflow_error when beta_ell is not representable in int64. As
  /// with the centralized variant, `eps` is internal; see
  /// compute_rescaled().
  static DistributedParams compute(Vertex n, int kappa, double rho, double eps);

  /// §3.2.4 rescaling: largest internal eps with alpha_ell <= 1 + eps_target.
  /// Throws std::overflow_error when no representable schedule meets it.
  static DistributedParams compute_rescaled(Vertex n, int kappa, double rho,
                                            double eps_target);

  std::string describe() const;
};

/// Parameters of the near-additive spanner construction (paper §4).
struct SpannerParams {
  Vertex n = 0;
  int kappa = 4;
  double rho = 0.45;
  double eps = 0.25;
  int gamma = 2;
  int i0 = 0;

  std::int64_t ruling_base = 2;
  int ruling_levels = 1;
  std::vector<Dist> rul;
  PhaseSchedule schedule;

  static SpannerParams compute(Vertex n, int kappa, double rho, double eps);

  std::string describe() const;
};

/// deg_i = n^(2^i/kappa) for the Ep01 sequence (used by several modules).
double ep01_degree(Vertex n, int kappa, int phase);

/// The paper's size bound n^(1+1/kappa) (as a count of edges, rounded with
/// care — see util/math.hpp).
std::int64_t emulator_size_bound(Vertex n, int kappa);

}  // namespace usne
