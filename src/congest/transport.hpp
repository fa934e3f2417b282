#pragma once

// Pluggable transport layer for the CONGEST simulator.
//
// The Network enforces *sending* constraints (per-edge cap, word cap) and
// owns the delivery arena; what happens to a staged message between the
// send and the next round's inbox is the transport's policy. A
// DeliveryModel consumes each round's staged sends and decides which
// messages materialize in the delivery batch, when, and how many times.
// Three engines ship:
//
//   Ideal   every message is delivered exactly once at the start of the
//           next round — the classic synchronous CONGEST model. This is
//           the default and is bit-for-bit identical to the pre-transport
//           engine (BENCH_congest.json counts are the regression gate).
//   Faulty  a seeded per-message drop/duplicate policy: each staged
//           message is dropped with probability drop_p; survivors are
//           additionally duplicated with probability dup_p, the copies
//           arriving at the end of the round's batch (observably
//           reordered relative to other senders). Models lossy links.
//   Async   each message draws an integer latency L in [1, latency_max]
//           and rides a round-indexed wheel: staged in round r, it lands
//           in the inbox of round r + L. latency_max = 1 degenerates to
//           Ideal exactly. Models heterogeneous link delays.
//
// Determinism is a hard guarantee for every model: randomness is a
// stateless hash of (seed, round, sender, receiver) — never a sequential
// RNG — so the injected events are a pure function of the traffic, not of
// thread interleaving or batch order. A fixed seed reproduces the same
// drops/duplicates/latencies at 1, 2, or 8 execution threads
// (tests/test_congest_transport.cpp enforces this).
//
// NodePrograms need no changes to run under any model: the algorithms in
// this repository keep their fixed, parameter-determined schedules and the
// Scheduler generalizes quiescence to "no staged and no in-flight
// messages" (see engine.hpp). Outputs under Faulty/Async are whatever the
// protocol computes from the degraded traffic — that is the point: the
// paper's constructions can now be stressed beyond the idealized model.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace usne::congest {

/// Which delivery engine a TransportSpec selects.
enum class TransportModel { kIdeal, kFaulty, kAsync };

/// Stable lowercase name ("ideal" | "faulty" | "async") for CLIs and JSON.
const char* transport_model_name(TransportModel model) noexcept;

/// Inverse of transport_model_name. Throws std::invalid_argument listing
/// the known names on anything else.
TransportModel parse_transport_model(const std::string& name);

/// A complete, serializable description of one transport configuration.
/// Each model consumes the subset of knobs that applies; the rest are
/// ignored (but still validated).
struct TransportSpec {
  TransportModel model = TransportModel::kIdeal;

  /// Seed of the stateless per-message hash (Faulty and Async).
  std::uint64_t seed = 1;

  /// Faulty: per-message drop probability in [0, 1].
  double drop_p = 0.0;

  /// Faulty: per-surviving-message duplication probability in [0, 1].
  double dup_p = 0.0;

  /// Async: per-message latency is uniform in [1, latency_max] rounds.
  /// 1 (the default) is synchronous delivery.
  std::int64_t latency_max = 1;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// Cumulative injected-event counters of one DeliveryModel instance.
/// All zero under Ideal.
struct TransportCounters {
  std::int64_t dropped = 0;      ///< messages removed by the faulty model
  std::int64_t duplicated = 0;   ///< extra copies injected
  std::int64_t delayed = 0;      ///< messages assigned latency > 1
  std::int64_t delay_rounds = 0; ///< sum of (latency - 1) over delayed
};

/// The transport policy: owns the staged-send -> delivery-batch handoff
/// that Network::advance_round delegates. Implementations must be
/// deterministic functions of (spec, traffic) — see the file comment.
class DeliveryModel {
 public:
  virtual ~DeliveryModel() = default;

  virtual TransportModel kind() const noexcept = 0;
  const char* name() const noexcept { return transport_model_name(kind()); }
  bool ideal() const noexcept { return kind() == TransportModel::kIdeal; }

  /// Consumes the messages staged during round `round` (`staged`, in
  /// staging order; left cleared) and appends the batch to be delivered at
  /// the start of round `round + 1` to `deliver` (empty on entry). A model
  /// may drop messages, append extra copies, or retain messages for a
  /// later collect call. Called exactly once per round, serially, except
  /// that the Network delivers a dense broadcast-only round itself, by
  /// pull, when the built-in Ideal model is installed (network.hpp).
  virtual void collect(std::int64_t round, std::vector<Staged>& staged,
                       std::vector<Staged>& deliver) = 0;

  /// Messages retained for delivery in a strictly later round (Async's
  /// wheel). The Scheduler's quiescence test is
  /// `pending_messages() + in_flight() == 0`.
  virtual std::int64_t in_flight() const noexcept { return 0; }

  /// Guarantees at most one delivery per (sender, receiver) per round —
  /// true for Ideal only. The arena's per-run sender sort relies on this
  /// to stay allocation-free; other models use a stable sort.
  virtual bool unique_senders_per_round() const noexcept { return false; }

  const TransportCounters& counters() const noexcept { return counters_; }

 protected:
  TransportCounters counters_;
};

/// Builds the DeliveryModel described by `spec` (validates first).
std::unique_ptr<DeliveryModel> make_delivery_model(const TransportSpec& spec);

}  // namespace usne::congest
