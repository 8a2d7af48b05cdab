#pragma once

// --mechanism=auto: the executor that consults the static recommendation
// table (src/analysis/recommend.*) and validates it against live abort
// telemetry.
//
// Layering: core cannot depend on analysis, so the table crosses the
// boundary as plain data — an AutoPolicy holds one MechanismPlan per
// OperatorId, filled by analysis::make_auto_policy() (or by hand in
// tests). At batch start the AutoExecutor routes the batch to the
// recommended mechanism's concrete executor; while HTM runs, the
// TxnOutcome stream (PR 5 telemetry, via the OutcomeHook seam) checks the
// observed abort rate against the predicted band. A miss descends the
// speculation ladder HTM -> STM -> serialized — the hybrid-TM fallback
// path whose cost the static score already charged (Alistarh et al.,
// "Inherent Limitations of Hybrid TM"; Brown & Ravi, "On the Cost of
// Concurrency in Hybrid TM") — and bumps a prediction_miss counter so the
// model's accuracy is itself measurable. A livelock escalation
// (TxnOutcome::escalated, the §4.1 watermark machinery) jumps straight to
// the serialized rung.
//
// Routing and validation are host-side only: an auto run charges exactly
// the simulated costs of the mechanisms it routes to, so a policy that
// always resolves to one mechanism reproduces that fixed run bit for bit.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/executor.hpp"

namespace aam::core {

/// Per-operator entry of the static recommendation table.
struct MechanismPlan {
  Mechanism recommended = Mechanism::kAtomicOps;
  /// Expected HTM aborts per completed activity at the planned batch size
  /// (from the conflict model); 0 when the plan is not speculative.
  double predicted_aborts = 0;
  /// Tolerated observed aborts per completed activity before the executor
  /// declares a prediction miss and descends one rung.
  double abort_band = 1e9;
  /// Static capacity bound: largest batch that provably fits the write/read
  /// capacity (analysis::CapacityBound::max_safe_coarsening). 0 = no bound.
  std::uint64_t htm_c_safe = 0;
};

/// Host-side counters an auto run accumulates; read them from the policy
/// after the run (mutable so benches can keep the policy const).
struct AutoTelemetry {
  std::uint64_t batches = 0;          ///< batches routed
  std::uint64_t prediction_miss = 0;  ///< band violations + escalations
  std::uint64_t descents = 0;         ///< rungs descended (never re-ascends)
  std::uint64_t capacity_clamps = 0;  ///< batches rerouted for c_safe

  bool operator==(const AutoTelemetry&) const = default;
};

inline constexpr std::size_t kNumOperatorIds =
    static_cast<std::size_t>(OperatorId::kStVisit) + 1;

/// The static table: one plan per OperatorId. Slot 0 (kUnknown) is the
/// default for untagged batches — ad-hoc lambdas, init loops — and should
/// stay a robust non-speculative choice.
struct AutoPolicy {
  MechanismPlan plans[kNumOperatorIds];
  mutable AutoTelemetry telemetry;

  const MechanismPlan& plan(OperatorId op) const {
    return plans[static_cast<std::size_t>(op)];
  }
  MechanismPlan& plan(OperatorId op) {
    return plans[static_cast<std::size_t>(op)];
  }
};

/// Routes each batch to the concrete executor of the operator's current
/// ladder rung: execute_batch calls route() and then runs the batch on the
/// returned executor's templated path, like any fixed-mechanism batch.
class AutoExecutor final : public ActivityExecutor {
 public:
  /// Builds one inner executor per reachable rung; they carry
  /// `exec.recorder`, so a --check recorder sees each batch under the
  /// mechanism it was routed to. `lock_stripes` sizes the inner rungs'
  /// lock and orec tables (see make_executor). `policy` must outlive the
  /// executor.
  AutoExecutor(htm::DesMachine& machine, const AutoPolicy& policy,
               const ExecConfig& exec, std::uint32_t lock_stripes);
  ~AutoExecutor() override;

  /// Picks the rung for a batch of `count` items of `op_id` (with the
  /// capacity clamp), counts it in the policy telemetry, and returns that
  /// rung's executor.
  ActivityExecutor& route(htm::ThreadCtx& ctx, std::uint64_t count,
                          OperatorId op_id);

  int preferred_batch() const override {
    return adaptive_ != nullptr ? adaptive_->batch() : batch_;
  }
  void set_batch(int m) override;
  void set_adaptive(AdaptiveBatch* adaptive) override;

  /// Completed activities between abort-rate checks.
  inline static constexpr std::uint64_t kValidationWindow = 32;

  /// Checkpoint support: the per-operator ladder rungs and validation
  /// windows, the per-thread batch attribution, and every inner executor's
  /// own state. Policy telemetry is deliberately NOT rolled back — like
  /// the fault injector it counts work *performed*, replays included.
  void durable(util::BlobIo& io) override;

 private:
  struct OpState {
    Mechanism level = Mechanism::kAtomicOps;
    std::uint64_t window_done = 0;
    std::uint64_t window_aborts = 0;
  };

  void on_outcome(htm::ThreadCtx& ctx, const htm::TxnOutcome& outcome);
  void descend(OpState& st, Mechanism to);

  const AutoPolicy& policy_;
  std::unique_ptr<ActivityExecutor> inners_[5];  ///< by Mechanism value
  OpState state_[kNumOperatorIds];
  std::vector<OperatorId> per_thread_op_;  ///< batch attribution for the hook
};

/// One rung down the speculation ladder: htm -> stm -> serial-lock; the
/// non-speculative mechanisms are terminal.
Mechanism descend_mechanism(Mechanism mechanism);

}  // namespace aam::core
