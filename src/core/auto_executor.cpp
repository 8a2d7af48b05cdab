#include "core/auto_executor.hpp"

#include "htm/des_engine.hpp"
#include "util/check.hpp"

namespace aam::core {

Mechanism descend_mechanism(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kHtmCoarsened: return Mechanism::kStm;
    case Mechanism::kStm: return Mechanism::kSerialLock;
    default: return mechanism;
  }
}

AutoExecutor::AutoExecutor(htm::DesMachine& machine, const AutoPolicy& policy,
                           const ExecConfig& exec, std::uint32_t lock_stripes)
    : ActivityExecutor(std::nullopt, exec),
      policy_(policy),
      per_thread_op_(static_cast<std::size_t>(machine.num_threads()),
                     OperatorId::kUnknown) {
  for (std::size_t i = 0; i < kNumOperatorIds; ++i) {
    state_[i].level = policy_.plans[i].recommended;
  }
  // Build every reachable rung eagerly, in enum order: lazy construction
  // would make simulated-heap layout (lock tables, orecs) depend on the
  // first batch that happens to route there.
  bool needed[5] = {};
  for (const MechanismPlan& plan : policy_.plans) {
    Mechanism m = plan.recommended;
    needed[static_cast<std::size_t>(m)] = true;
    while (descend_mechanism(m) != m) {
      m = descend_mechanism(m);
      needed[static_cast<std::size_t>(m)] = true;
    }
  }
  // Inners are plain fixed executors: recorder kept, auto_policy cleared.
  ExecConfig inner_exec = exec;
  inner_exec.auto_policy = nullptr;
  for (const Mechanism m : all_mechanisms()) {
    if (!needed[static_cast<std::size_t>(m)]) continue;
    inner_exec.mechanism = m;
    inners_[static_cast<std::size_t>(m)] =
        make_executor(machine, inner_exec, lock_stripes);
  }
  if (auto& htm = inners_[static_cast<std::size_t>(Mechanism::kHtmCoarsened)];
      htm != nullptr) {
    htm->set_outcome_hook(
        [this](htm::ThreadCtx& ctx, const htm::TxnOutcome& outcome) {
          on_outcome(ctx, outcome);
        });
  }
}

AutoExecutor::~AutoExecutor() = default;

ActivityExecutor& AutoExecutor::route(htm::ThreadCtx& ctx,
                                      std::uint64_t count, OperatorId op_id) {
  const OpState& st = state_[static_cast<std::size_t>(op_id)];
  const MechanismPlan& plan = policy_.plan(op_id);
  Mechanism level = st.level;
  // Capacity guard: never run a batch whose write set statically exceeds
  // c_safe under HTM — it could only abort its way to the fallback path.
  // Clamping reroutes this batch without descending the ladder.
  if (level == Mechanism::kHtmCoarsened && plan.htm_c_safe > 0 &&
      count > plan.htm_c_safe) {
    level = descend_mechanism(level);
    ++policy_.telemetry.capacity_clamps;
  }
  ++policy_.telemetry.batches;
  per_thread_op_[ctx.thread_id()] = op_id;
  auto& executor = inners_[static_cast<std::size_t>(level)];
  AAM_CHECK_MSG(executor != nullptr, "auto routed to an unbuilt mechanism");
  return *executor;
}

void AutoExecutor::set_batch(int m) {
  batch_ = m;
  for (auto& executor : inners_) {
    if (executor != nullptr) executor->set_batch(m);
  }
}

void AutoExecutor::set_adaptive(AdaptiveBatch* adaptive) {
  adaptive_ = adaptive;
  for (auto& executor : inners_) {
    if (executor != nullptr) executor->set_adaptive(adaptive);
  }
}

void AutoExecutor::durable(util::BlobIo& io) {
  ActivityExecutor::durable(io);
  for (OpState& st : state_) {
    io.as<std::uint8_t>(st.level);
    io(st.window_done, st.window_aborts);
  }
  io.each(per_thread_op_, "auto snapshot thread count mismatch");
  for (auto& executor : inners_) {
    io.expect(executor != nullptr, "auto snapshot inner executor set mismatch");
    if (executor != nullptr) executor->durable(io);
  }
}

void AutoExecutor::descend(OpState& st, Mechanism to) {
  if (st.level == to) return;
  st.level = to;
  st.window_done = 0;
  st.window_aborts = 0;
  ++policy_.telemetry.descents;
}

void AutoExecutor::on_outcome(htm::ThreadCtx& ctx,
                              const htm::TxnOutcome& outcome) {
  // The hook fires from the HTM inner's done path; stage_transaction is the
  // last action of a worker dispatch, so the thread's attributed operator
  // is still the one that staged this activity.
  const OperatorId op = per_thread_op_[ctx.thread_id()];
  OpState& st = state_[static_cast<std::size_t>(op)];
  if (st.level != Mechanism::kHtmCoarsened) return;  // stale rung outcome
  const MechanismPlan& plan = policy_.plan(op);
  if (outcome.escalated) {
    // Livelock watermark hit: the engine already serialized this thread;
    // stop speculating for the operator altogether.
    ++policy_.telemetry.prediction_miss;
    descend(st, Mechanism::kSerialLock);
    return;
  }
  st.window_aborts += static_cast<std::uint64_t>(outcome.aborts);
  ++st.window_done;
  if (st.window_done < kValidationWindow) return;
  const double observed = static_cast<double>(st.window_aborts) /
                          static_cast<double>(st.window_done);
  if (observed > plan.abort_band) {
    ++policy_.telemetry.prediction_miss;
    descend(st, descend_mechanism(st.level));
    return;
  }
  st.window_done = 0;
  st.window_aborts = 0;
}

}  // namespace aam::core
