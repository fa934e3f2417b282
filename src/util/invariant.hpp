#pragma once

// Runtime invariant layer: machine-checked conservation laws for the hot
// subsystems.
//
// The repository's guarantees — bit-identical parallel CONGEST execution,
// deterministic transport injection, answer-stable serving — are enforced
// by the test suite at the *output* level (checksums, count diffs). This
// layer checks the *internal ledgers* those outputs rest on, at runtime,
// where a violation points at the component that broke conservation rather
// than at a drifted checksum three layers up:
//
//   kTransport   staged == delivered + dropped + in-flight (duplicates
//                accounted) across the Network / DeliveryModel handoff
//   kScheduler   parallel staged-send replay conservation and idle-round
//                accounting in the CONGEST Scheduler
//   kServeCache  the QueryEngine cache ledger: hits + misses == queries,
//                resident entries within the cache_mb budget
//   kSssp        SSSP kernel postconditions: source distance, no ring
//                slot collision, relaxation fixpoint
//   kCsr         WeightedGraph::Csr structural validity (sorted offsets,
//                in-range targets, symmetric arcs)
//   kDaemon      net::Server request conservation: every well-framed
//                request is answered, rejected, or in flight — at
//                shutdown, accepted == answered + rejected and
//                in_flight == 0
//
// Two macro tiers:
//
//   USNE_CHECK(category, cond, msg)   always on, every build. For cold
//       points (program end, batch end, validators) where the check is
//       O(1)-ish and the invariant is load-bearing.
//   USNE_AUDIT(category, cond, msg)   debug-or-opt-in. Compiled in (unless
//       USNE_NO_AUDITS), but `cond` and `msg` are evaluated only while
//       audits_enabled() — a single relaxed load + predictable branch when
//       disabled, so release-path counts, checksums and qps are unchanged.
//       Audits default ON in debug builds (!NDEBUG) and OFF in release;
//       opt in at runtime via set_audits_enabled(true) or by exporting
//       USNE_AUDIT=1 before the process starts.
//
// A failing check increments the category's `fired` counter and dispatches
// the installed fail handler (default: throw InvariantViolation). Every
// evaluation increments `checked` — the counters are the proof that an
// audit category is actually exercised, surfaced by counters_json() (the
// stats hook usne_run embeds in its JSON records when audits are on, and
// scripts/pins.json asserts against).

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace usne::inv {

/// Audit categories, one per instrumented subsystem ledger.
enum class Category : int {
  kTransport = 0,
  kScheduler,
  kServeCache,
  kSssp,
  kCsr,
  kDaemon,
};

inline constexpr int kNumCategories = 6;

/// Stable lowercase name ("transport" | "scheduler" | "serve_cache" |
/// "sssp" | "csr" | "daemon") for counters_json and fail messages.
const char* category_name(Category c) noexcept;

/// What the default fail handler throws.
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Per-category evaluation/violation counts (cumulative since process
/// start or the last reset_counters()).
struct CategoryCounters {
  const char* name = nullptr;
  std::int64_t checked = 0;  ///< times a check in this category evaluated
  std::int64_t fired = 0;    ///< of those, how many failed
};

/// Called when a check fails, *after* the fired counter is bumped.
/// The default handler throws InvariantViolation("[category] expr: msg").
using FailHandler =
    std::function<void(Category, const char* expr, const std::string& msg)>;

/// Installs `handler` (empty = restore the default throwing handler) and
/// returns the previous one. Thread-safe; the handler runs outside the
/// registry lock, so it may itself check invariants.
FailHandler set_fail_handler(FailHandler handler);

/// Whether USNE_AUDIT sites evaluate. Initial value: true in debug builds
/// (!NDEBUG), otherwise the USNE_AUDIT environment variable ("1"/"on").
bool audits_enabled() noexcept;
void set_audits_enabled(bool on) noexcept;

/// Snapshot of every category's counters, in Category order.
std::vector<CategoryCounters> counters();

/// Zeroes all counters (tests).
void reset_counters() noexcept;

/// One-line JSON of the counters, sorted by category name:
/// {"csr": {"checked": N, "fired": M}, ...} — the stats hook usne_run
/// embeds when audits are enabled.
std::string counters_json();

/// RAII audit toggle for tests and tools.
class ScopedAuditsEnabled {
 public:
  explicit ScopedAuditsEnabled(bool on = true) : prev_(audits_enabled()) {
    set_audits_enabled(on);
  }
  ~ScopedAuditsEnabled() { set_audits_enabled(prev_); }
  ScopedAuditsEnabled(const ScopedAuditsEnabled&) = delete;
  ScopedAuditsEnabled& operator=(const ScopedAuditsEnabled&) = delete;

 private:
  bool prev_;
};

/// RAII fail-handler swap for tests (capture instead of throw).
class ScopedFailHandler {
 public:
  explicit ScopedFailHandler(FailHandler handler)
      : prev_(set_fail_handler(std::move(handler))) {}
  ~ScopedFailHandler() { set_fail_handler(std::move(prev_)); }
  ScopedFailHandler(const ScopedFailHandler&) = delete;
  ScopedFailHandler& operator=(const ScopedFailHandler&) = delete;

 private:
  FailHandler prev_;
};

namespace detail {
/// Bumps the category's checked counter (relaxed; safe from any thread).
void note_checked(Category c) noexcept;
/// Bumps the fired counter and dispatches the fail handler.
void fail(Category c, const char* expr, const std::string& msg);
}  // namespace detail

}  // namespace usne::inv

/// Always-on invariant check. `msg` is evaluated only on failure, so a
/// string build in the message position costs nothing on the hot path.
#define USNE_CHECK(category, cond, msg)                          \
  do {                                                           \
    ::usne::inv::detail::note_checked(category);                 \
    if (!(cond)) {                                               \
      ::usne::inv::detail::fail(category, #cond, (msg));         \
    }                                                            \
  } while (0)

/// Debug-or-opt-in audit: `cond` (which may be an expensive scan) and
/// `msg` are evaluated only while audits are enabled. Define
/// USNE_NO_AUDITS to compile every audit site out entirely.
#ifdef USNE_NO_AUDITS
#define USNE_AUDIT(category, cond, msg) \
  do {                                  \
  } while (0)
#else
#define USNE_AUDIT(category, cond, msg)       \
  do {                                        \
    if (::usne::inv::audits_enabled()) {      \
      USNE_CHECK(category, cond, msg);        \
    }                                         \
  } while (0)
#endif
