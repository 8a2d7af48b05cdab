#pragma once

// RecoveryManager — coordinated checkpoint/restore for one DesMachine
// (optionally wrapped in a net::Cluster).
//
// Checkpoints are taken only at *safe instants* (DesMachine::checkpoint_safe:
// no controlled section, no in-flight transactions, no host callbacks
// pending), at three opportunities wired through htm::RecoveryClient: run
// entry, quiescence boundaries, and — gated by Options::ckpt_interval_ns —
// mid-run event boundaries. A checkpoint serializes the engine core (clock,
// commit stamp, unit stamps, stripe table, per-thread RNG/clock/stats, the
// pending events that are neither callbacks nor droppable), the raw heap
// bytes, every registered host-side component blob, and the cluster's
// reliable-delivery protocol state, sealed with a chained digest
// (recovery::Snapshot).
//
// A crash (htm::CrashError out of the engine) rolls the whole system back
// to the last sealed snapshot: volatile engine state, all in-sim callbacks
// and droppable protocol events are dropped, host components rewind
// through the same durable() field lists that saved them, and the network
// layer re-arms a retransmit timer for every send that was unacked at the
// checkpoint — peers replay those messages and the receiver's sequence
// dedup discards the ones it had already applied. Crash draws live in the
// FaultInjector (the external world) and are never rolled back, so
// recovery terminates.
//
// Snapshots are double-buffered: the previous sealed snapshot is kept
// until the next one seals, so a crash *during* checkpointing (torn
// write) can always fall back to a verified-intact predecessor.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "htm/des_engine.hpp"
#include "htm/resilience.hpp"
#include "net/cluster.hpp"
#include "recovery/snapshot.hpp"

namespace aam::recovery {

/// Recovery telemetry exported into bench JSON (see bench_record.sh v5).
struct RecoveryStats {
  std::uint64_t checkpoints = 0;     ///< snapshots sealed
  std::uint64_t crashes = 0;         ///< crash-stops recovered from
  std::uint64_t replayed_sends = 0;  ///< unacked sends re-armed at restores
  double lost_work_ns = 0;       ///< Σ simulated ns rolled back per crash
  std::uint64_t snapshot_bytes = 0;  ///< size of the last sealed snapshot
  // NetStats counter deltas erased by rollbacks. Restoring stats_ to its
  // checkpoint value forgets drops/dups/retransmits that happened between
  // checkpoint and crash; the injector's counters don't forget, so exact
  // accounting is injected == final NetStats + rolled_back_*.
  std::uint64_t rolled_back_dropped = 0;
  std::uint64_t rolled_back_duplicated = 0;
  std::uint64_t rolled_back_retransmitted = 0;
  std::uint64_t rolled_back_acked = 0;
  std::uint64_t rolled_back_dedup_discarded = 0;
};

struct RecoveryOptions {
  /// Mid-run checkpoint cadence in simulated ns; <= 0 restricts
  /// checkpoints to run entry and quiescence boundaries.
  double ckpt_interval_ns = 5.0e4;
};

class RecoveryManager final : public htm::RecoveryClient {
 public:
  using Options = RecoveryOptions;

  /// Machine-only recovery (no network section in snapshots).
  explicit RecoveryManager(htm::DesMachine& machine, Options options = {});
  /// Cluster recovery: snapshots include protocol state, restores re-arm
  /// retransmissions for unacked sends.
  explicit RecoveryManager(net::Cluster& cluster, Options options = {});
  ~RecoveryManager() override;

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // htm::RecoveryClient
  void on_run_entry(htm::DesMachine& machine) override;
  void on_quiescence(htm::DesMachine& machine) override;
  void on_event_boundary(htm::DesMachine& machine) override;
  bool on_crash(htm::DesMachine& machine,
                const htm::CrashDiagnostic& diagnostic) override;
  std::uint64_t register_host_state(htm::HostState durable) override;
  void unregister_host_state(std::uint64_t token) override;
  std::uint64_t last_checkpoint_id() const override { return last_ckpt_id_; }
  std::uint64_t inflight_messages() const override {
    return cluster_ != nullptr ? cluster_->in_flight() : 0;
  }

  /// Forces a checkpoint at the current instant (must be checkpoint_safe);
  /// test surface for the round-trip property test.
  void take_checkpoint_now();
  /// The last sealed snapshot, byte-exact (empty if none). Tests truncate
  /// or flip bits in a copy and feed it to restore_from_bytes.
  const std::vector<std::uint8_t>& last_snapshot_bytes() const;
  /// Verifies and restores an arbitrary sealed buffer. On verification
  /// failure returns false with a reason in `error` and the machine
  /// untouched — a torn snapshot can never half-apply.
  bool restore_from_bytes(const std::vector<std::uint8_t>& sealed,
                          std::string* error);

  const RecoveryStats& stats() const { return stats_; }

 private:
  void take_checkpoint(htm::DesMachine& machine);
  /// Applies a verified snapshot (core → heap → host → net).
  void apply(const Snapshot& snap);

  htm::DesMachine& machine_;
  net::Cluster* cluster_ = nullptr;
  Options options_;
  double last_ckpt_now_ = -1.0;
  std::uint64_t last_ckpt_id_ = 0;
  std::uint64_t next_ckpt_id_ = 1;
  // Double buffer of sealed snapshots; active_ indexes the newest, -1
  // until the first checkpoint seals.
  std::vector<std::uint8_t> sealed_[2];
  int active_ = -1;
  std::vector<std::pair<std::uint64_t, htm::HostState>> host_state_;
  std::uint64_t next_token_ = 1;
  RecoveryStats stats_;
};

}  // namespace aam::recovery
