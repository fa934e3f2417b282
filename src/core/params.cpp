#include "core/params.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "util/math.hpp"

namespace usne {
namespace {

/// Segment length L_i = ceil((1/eps)^i), at least 1.
Dist segment_length(double eps, int i) {
  const double value = std::pow(1.0 / eps, i);
  if (value >= 1e17) return static_cast<Dist>(1e17);  // guard; never reached in practice
  return std::max<Dist>(1, static_cast<Dist>(std::ceil(value - 1e-9)));
}

/// The recurrences grow exponentially in the phase index, so every step
/// saturates at kSaturated instead of overflowing (signed overflow is
/// undefined). Operands are non-negative.
constexpr Dist kSaturated = INT64_MAX;

Dist sat_add(Dist a, Dist b) noexcept {
  Dist out = 0;
  return __builtin_add_overflow(a, b, &out) ? kSaturated : out;
}

Dist sat_mul(Dist a, Dist b) noexcept {
  Dist out = 0;
  return __builtin_mul_overflow(a, b, &out) ? kSaturated : out;
}

/// Throws std::overflow_error when the schedule saturated. Every sequence
/// is non-decreasing and a saturated step saturates everything after it,
/// so the outermost radius and beta_ell witness any saturation.
void require_representable(const PhaseSchedule& s, const std::string& what) {
  if (s.radius.back() == kSaturated || s.beta_bound() == kSaturated) {
    throw std::overflow_error(
        what + ": the stretch schedule overflows int64 (beta is not "
               "representable); use a larger eps or a smaller kappa");
  }
}

/// Fills the delta / radius / beta / alpha recurrences given deg and the
/// radius step rule. `radius_step(i)` returns R_{i+1} - R_i as a function of
/// delta_i (already stored).
template <typename RadiusStep>
void fill_schedule(PhaseSchedule& s, double eps, RadiusStep radius_step) {
  const int ell = s.ell();
  s.seg.resize(static_cast<std::size_t>(ell) + 1);
  s.delta.resize(static_cast<std::size_t>(ell) + 1);
  s.radius.assign(static_cast<std::size_t>(ell) + 2, 0);
  s.beta.assign(static_cast<std::size_t>(ell) + 1, 0);
  s.alpha.assign(static_cast<std::size_t>(ell) + 1, 1.0);

  for (int i = 0; i <= ell; ++i) {
    s.seg[static_cast<std::size_t>(i)] = segment_length(eps, i);
    s.delta[static_cast<std::size_t>(i)] =
        sat_add(s.seg[static_cast<std::size_t>(i)],
                sat_mul(2, s.radius[static_cast<std::size_t>(i)]));
    s.radius[static_cast<std::size_t>(i) + 1] =
        sat_add(s.radius[static_cast<std::size_t>(i)], radius_step(i));
    if (i >= 1) {
      s.beta[static_cast<std::size_t>(i)] =
          sat_add(sat_mul(2, s.beta[static_cast<std::size_t>(i) - 1]),
                  sat_mul(6, s.radius[static_cast<std::size_t>(i)]));
      s.alpha[static_cast<std::size_t>(i)] =
          s.alpha[static_cast<std::size_t>(i) - 1] +
          static_cast<double>(s.beta[static_cast<std::size_t>(i)]) /
              static_cast<double>(s.seg[static_cast<std::size_t>(i)]);
    }
  }
}

/// Shared rescaling search: the largest internal eps in (lo, eps_target]
/// whose schedule (produced by `make`) has alpha_ell <= 1 + eps_target.
/// alpha decreases monotonically as eps shrinks (beta_i and 1/L_i both
/// shrink), so a binary search converges; 60 iterations give full double
/// precision. A probe whose schedule saturates (`make` throws
/// std::overflow_error) is never accepted, and when no probe fits — the
/// schedule the budget needs does not fit in int64 — the search throws
/// std::overflow_error instead of returning an unverified schedule.
template <typename Make>
auto rescale_search(double eps_target, Make make) {
  if (!(eps_target > 0.0 && eps_target < 1.0)) {
    throw std::invalid_argument("eps_target must be in (0, 1)");
  }
  const auto fits = [&](double eps) {
    try {
      return make(eps).schedule.alpha_bound() <= 1.0 + eps_target;
    } catch (const std::overflow_error&) {
      return false;
    }
  };
  double lo = 1e-9;
  double hi = eps_target;
  // If even the full eps_target satisfies the budget, use it directly.
  if (fits(hi)) return make(hi);
  bool found = false;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      lo = mid;
      found = true;
    } else {
      hi = mid;
    }
  }
  if (!found) {
    throw std::overflow_error(
        "rescaling: no internal eps gives a schedule representable in int64 "
        "with alpha <= 1 + eps_target; use a larger eps or a smaller kappa");
  }
  return make(lo);
}

void check_common(Vertex n, int kappa, double eps) {
  if (n < 0) throw std::invalid_argument("n must be non-negative");
  if (kappa < 1) throw std::invalid_argument("kappa must be >= 1");
  if (!(eps > 0.0 && eps < 1.0)) {
    throw std::invalid_argument("eps must be in (0, 1)");
  }
}

}  // namespace

double ep01_degree(Vertex n, int kappa, int phase) {
  const double exponent =
      static_cast<double>(ipow_sat(2, phase)) / static_cast<double>(kappa);
  return std::pow(static_cast<double>(std::max<Vertex>(n, 1)), exponent);
}

std::int64_t emulator_size_bound(Vertex n, int kappa) {
  return size_bound_edges(n, kappa);
}

CentralizedParams CentralizedParams::compute(Vertex n, int kappa, double eps) {
  check_common(n, kappa, eps);
  CentralizedParams p;
  p.n = n;
  p.kappa = kappa;
  p.eps = eps;

  // ell = ceil(log2((kappa+1)/2)); the smallest ell with kappa <= 2^(ell+1)-1,
  // which guarantees |P_ell| <= deg_ell (paper eq. 1).
  int ell = 0;
  while (ipow_sat(2, ell + 1) - 1 < kappa) ++ell;

  p.schedule.deg.resize(static_cast<std::size_t>(ell) + 1);
  for (int i = 0; i <= ell; ++i) {
    p.schedule.deg[static_cast<std::size_t>(i)] = ep01_degree(n, kappa, i);
  }
  // Centralized radius step: R_{i+1} = 2 delta_i + R_i.
  fill_schedule(p.schedule, eps, [&](int i) {
    return sat_mul(2, p.schedule.delta[static_cast<std::size_t>(i)]);
  });
  require_representable(p.schedule, "CentralizedParams");
  return p;
}

CentralizedParams CentralizedParams::compute_rescaled(Vertex n, int kappa,
                                                      double eps_target) {
  return rescale_search(eps_target, [&](double eps) {
    return CentralizedParams::compute(n, kappa, eps);
  });
}

double CentralizedParams::closed_form_beta() const {
  const int ell = schedule.ell();
  return 30.0 * std::pow(1.0 / eps, ell - 1);
}

std::string CentralizedParams::describe() const {
  std::ostringstream out;
  out << "CentralizedParams{n=" << n << " kappa=" << kappa << " eps=" << eps
      << " ell=" << schedule.ell() << " beta=" << schedule.beta_bound()
      << " alpha=" << schedule.alpha_bound() << " delta=[";
  for (std::size_t i = 0; i < schedule.delta.size(); ++i) {
    out << (i ? "," : "") << schedule.delta[i];
  }
  out << "] deg=[";
  for (std::size_t i = 0; i < schedule.deg.size(); ++i) {
    out << (i ? "," : "") << schedule.deg[i];
  }
  out << "]}";
  return out.str();
}

DistributedParams DistributedParams::compute(Vertex n, int kappa, double rho,
                                             double eps) {
  check_common(n, kappa, eps);
  if (kappa < 2) throw std::invalid_argument("distributed variant needs kappa >= 2");
  if (!(rho > 1.0 / kappa && rho < 0.5)) {
    throw std::invalid_argument("rho must satisfy 1/kappa < rho < 1/2");
  }
  DistributedParams p;
  p.n = n;
  p.kappa = kappa;
  p.rho = rho;
  p.eps = eps;

  // i0 = floor(log2(kappa*rho)); ell = i0 + ceil((kappa+1)/(kappa*rho)) - 1.
  const double kr = kappa * rho;
  p.i0 = static_cast<int>(std::floor(std::log2(kr)));
  const int ell =
      p.i0 + static_cast<int>(std::ceil((kappa + 1.0) / kr)) - 1;

  const double n_rho = std::pow(static_cast<double>(std::max<Vertex>(n, 2)), rho);
  p.ruling_base =
      std::max<std::int64_t>(2, static_cast<std::int64_t>(std::ceil(n_rho - 1e-9)));
  p.ruling_levels = digits_in_base(std::max<Vertex>(n, 2), p.ruling_base);

  p.schedule.deg.resize(static_cast<std::size_t>(ell) + 1);
  for (int i = 0; i <= ell; ++i) {
    p.schedule.deg[static_cast<std::size_t>(i)] =
        (i <= p.i0) ? ep01_degree(n, kappa, i) : n_rho;
  }

  p.rul.assign(static_cast<std::size_t>(ell) + 1, 0);
  // Distributed radius step: R_{i+1} = 2 (rul_i + delta_i) + R_i, with
  // rul_i = levels * (2 delta_i + 1) from our ruling-set construction.
  fill_schedule(p.schedule, eps, [&](int i) {
    const Dist delta = p.schedule.delta[static_cast<std::size_t>(i)];
    p.rul[static_cast<std::size_t>(i)] = sat_mul(
        static_cast<Dist>(p.ruling_levels), sat_add(sat_mul(2, delta), 1));
    return sat_mul(2, sat_add(p.rul[static_cast<std::size_t>(i)], delta));
  });
  require_representable(p.schedule, "DistributedParams");
  return p;
}

DistributedParams DistributedParams::compute_rescaled(Vertex n, int kappa,
                                                      double rho,
                                                      double eps_target) {
  return rescale_search(eps_target, [&](double eps) {
    return DistributedParams::compute(n, kappa, rho, eps);
  });
}

std::string DistributedParams::describe() const {
  std::ostringstream out;
  out << "DistributedParams{n=" << n << " kappa=" << kappa << " rho=" << rho
      << " eps=" << eps << " i0=" << i0 << " ell=" << schedule.ell()
      << " base=" << ruling_base << " levels=" << ruling_levels
      << " beta=" << schedule.beta_bound() << " alpha=" << schedule.alpha_bound()
      << "}";
  return out.str();
}

SpannerParams SpannerParams::compute(Vertex n, int kappa, double rho, double eps) {
  check_common(n, kappa, eps);
  if (kappa < 2) throw std::invalid_argument("spanner variant needs kappa >= 2");
  if (!(rho >= 1.0 / kappa && rho <= 0.5)) {
    throw std::invalid_argument("rho must satisfy 1/kappa <= rho <= 1/2");
  }
  SpannerParams p;
  p.n = n;
  p.kappa = kappa;
  p.rho = rho;
  p.eps = eps;

  // gamma = max{2, log log kappa}.
  const double loglog =
      kappa >= 4 ? std::log2(std::log2(static_cast<double>(kappa))) : 0.0;
  p.gamma = std::max(2, static_cast<int>(std::ceil(loglog - 1e-9)));

  // i0 = min{ floor(log_gamma(kappa*rho)), floor(kappa*rho) }.
  const double kr = kappa * rho;
  const int by_log = kr >= 1.0
                         ? static_cast<int>(std::floor(std::log(kr) /
                                                       std::log(static_cast<double>(p.gamma))))
                         : 0;
  const int by_linear = static_cast<int>(std::floor(kr));
  p.i0 = std::max(0, std::min(by_log, by_linear));

  const int ell = p.i0 + static_cast<int>(std::ceil(1.0 / rho - 0.5));

  const double nd = static_cast<double>(std::max<Vertex>(n, 2));
  const double n_rho = std::pow(nd, rho);
  p.ruling_base =
      std::max<std::int64_t>(2, static_cast<std::int64_t>(std::ceil(n_rho - 1e-9)));
  p.ruling_levels = digits_in_base(std::max<Vertex>(n, 2), p.ruling_base);

  p.schedule.deg.resize(static_cast<std::size_t>(ell) + 1);
  for (int i = 0; i <= ell; ++i) {
    double deg = 0;
    if (i <= p.i0) {
      // deg_i = n^((2^i - 1)/(gamma*kappa) + 1/kappa).
      const double exponent =
          (static_cast<double>(ipow_sat(2, i)) - 1.0) /
              (static_cast<double>(p.gamma) * kappa) +
          1.0 / kappa;
      deg = std::pow(nd, exponent);
    } else if (i == p.i0 + 1) {
      deg = std::pow(nd, rho / 2.0);  // transition phase
    } else {
      deg = n_rho;
    }
    p.schedule.deg[static_cast<std::size_t>(i)] = deg;
  }

  p.rul.assign(static_cast<std::size_t>(ell) + 1, 0);
  fill_schedule(p.schedule, eps, [&](int i) {
    const Dist delta = p.schedule.delta[static_cast<std::size_t>(i)];
    p.rul[static_cast<std::size_t>(i)] = sat_mul(
        static_cast<Dist>(p.ruling_levels), sat_add(sat_mul(2, delta), 1));
    return sat_mul(2, sat_add(p.rul[static_cast<std::size_t>(i)], delta));
  });
  require_representable(p.schedule, "SpannerParams");
  return p;
}

std::string SpannerParams::describe() const {
  std::ostringstream out;
  out << "SpannerParams{n=" << n << " kappa=" << kappa << " rho=" << rho
      << " eps=" << eps << " gamma=" << gamma << " i0=" << i0
      << " ell=" << schedule.ell() << " beta=" << schedule.beta_bound() << "}";
  return out.str();
}

}  // namespace usne
