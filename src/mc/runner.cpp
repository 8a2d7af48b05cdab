#include "mc/runner.hpp"

#include <memory>
#include <sstream>

#include "check/check.hpp"
#include "core/auto_executor.hpp"
#include "core/executor_impl.hpp"
#include "htm/des_engine.hpp"
#include "htm/resilience.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "util/check.hpp"

namespace aam::mc {

namespace {

/// The model-checking machine: a deliberately featureless config. Every
/// stochastic or timing-model term that could couple the schedule back
/// into values is off — no "other" aborts, no SMT evictions, no atomic
/// serialization gaps — and conflict detection is word-granular so the
/// engine's conflict units coincide exactly with the workloads' word
/// footprints (the currency of the DPOR dependence relation).
const model::MachineConfig& mc_machine() {
  static const model::MachineConfig config = [] {
    model::MachineConfig m;
    m.name = "MC";
    m.cores = 4;
    m.smt = 1;
    m.atomics.cas_ns = 10;
    m.atomics.acc_ns = 10;
    m.atomics.load_ns = 1;
    m.atomics.store_ns = 1;
    m.atomics.line_transfer_ns = 0;
    m.atomics.global_gap_ns = 0;
    m.supported_htm = {model::HtmKind::kRtm};
    model::HtmCosts h;
    h.begin_ns = 10;
    h.commit_ns = 10;
    h.read_ns = 2;
    h.write_ns = 2;
    h.abort_ns = 10;
    h.backoff_base_ns = 20;
    h.backoff_max_ns = 80;
    h.max_retries = 2;
    h.serialize_after_first_abort = false;
    h.hardware_retry = false;
    h.other_abort_per_us = 0;
    h.smt_evict_per_line = 0;
    h.conflict_granularity_bytes = 8;
    h.read_capacity_lines = 4096;
    h.serialize_acquire_ns = 10;
    for (model::HtmCosts& slot : m.htm_costs_) slot = h;
    return m;
  }();
  return config;
}

/// Runs one thread's program through the executor seam: each McTxn is one
/// batch of `ops.size()` item invocations (one op per item), emissions
/// accumulated from committed attempts only.
class McWorker final : public htm::Worker {
 public:
  McWorker(const McThreadProgram& program, core::ActivityExecutor& exec,
           std::uint64_t* words)
      : program_(program), exec_(exec), words_(words) {}

  bool next(htm::ThreadCtx& ctx) override {
    if (done()) return false;
    const McTxn& txn = program_.txns[idx_];
    if (txn_gives_up(txn, emits_)) {
      gave_up_ = true;
      return false;
    }
    core::execute_batch(
        exec_, ctx, txn.ops.size(),
        [this, &txn](auto& access, std::uint64_t i) {
          apply_op(txn.ops[i], access, words_);
        },
        [this](htm::ThreadCtx&, std::span<const std::uint64_t> emitted) {
          ++idx_;
          emits_.insert(emits_.end(), emitted.begin(), emitted.end());
        });
    // Transactional executors stage the batch (completion re-activates the
    // thread); synchronous ones already fired BatchDone, so resolve a
    // pending give-up eagerly instead of parking as merely "unfinished".
    if (ctx.has_staged()) return true;
    if (idx_ < program_.txns.size() &&
        txn_gives_up(program_.txns[idx_], emits_)) {
      gave_up_ = true;
    }
    return !done();
  }

  bool done() const { return idx_ >= program_.txns.size() || gave_up_; }
  bool gave_up() const { return gave_up_; }
  std::size_t completed() const { return idx_; }
  const std::vector<std::uint64_t>& emits() const { return emits_; }

 private:
  const McThreadProgram& program_;
  core::ActivityExecutor& exec_;
  std::uint64_t* words_;
  std::size_t idx_ = 0;
  bool gave_up_ = false;
  std::vector<std::uint64_t> emits_;
};

/// Bridges a PickFn to the engine's controller seam: records the
/// dispatched trace, enforces the step budget, and runs the zombie-commit
/// oracle around every kCommitFinal it dispatches.
class RecordingController final : public sim::ScheduleController {
 public:
  RecordingController(const PickFn& pick, htm::DesMachine& machine,
                      std::vector<ViolationInfo>& violations)
      : pick_(pick), machine_(machine), violations_(violations) {}

  std::size_t choose(std::span<const sim::Choice> ready) override {
    resolve_pending();
    if (trace_.size() >= kMaxRunSteps) {
      stopped_ = true;
      return kStopRun;
    }
    const std::size_t pick = pick_(ready);
    if (pick == kStopRun) {
      stopped_ = true;
      return pick;
    }
    AAM_CHECK_MSG(pick < ready.size(), "controller pick out of range");
    const sim::Choice& c = ready[pick];
    if (c.kind == sim::ChoiceKind::kCommitFinal) {
      // Sample the honest validation verdict *before* the engine decides;
      // resolved at the next decision point (or at run end), once the
      // commit's effect on the thread's stats is observable.
      pending_ = Pending{c.thread(), machine_.commit_would_conflict(c.thread()),
                         machine_.thread_stats(c.thread()).committed};
    }
    trace_.push_back(Step{c.thread(), c.kind});
    return pick;
  }

  void finish() { resolve_pending(); }

  const Trace& trace() const { return trace_; }
  bool stopped() const { return stopped_; }

 private:
  struct Pending {
    std::uint32_t tid = 0;
    bool would_conflict = false;
    std::uint64_t committed_before = 0;
  };

  void resolve_pending() {
    if (!pending_.has_value()) return;
    const htm::HtmStats& st = machine_.thread_stats(pending_->tid);
    if (st.committed == pending_->committed_before + 1 &&
        pending_->would_conflict) {
      std::ostringstream os;
      os << "thread " << pending_->tid << " committed a transaction whose "
         << "footprint was overwritten after its start (zombie commit; "
         << "honest validation says abort)";
      violations_.push_back(
          ViolationInfo{ViolationInfo::Kind::kZombieCommit, os.str()});
    }
    pending_.reset();
  }

  const PickFn& pick_;
  htm::DesMachine& machine_;
  std::vector<ViolationInfo>& violations_;
  Trace trace_;
  bool stopped_ = false;
  std::optional<Pending> pending_;
};

}  // namespace

const char* to_string(ViolationInfo::Kind kind) {
  switch (kind) {
    case ViolationInfo::Kind::kNotSerializable: return "not-serializable";
    case ViolationInfo::Kind::kLostUpdate: return "lost-update";
    case ViolationInfo::Kind::kZombieCommit: return "zombie-commit";
    case ViolationInfo::Kind::kInvariant: return "invariant";
    case ViolationInfo::Kind::kIncomplete: return "incomplete";
    case ViolationInfo::Kind::kCheckerDivergence: return "checker-divergence";
    case ViolationInfo::Kind::kReplayError: return "replay-error";
  }
  return "?";
}

Runner::Runner(RunConfig config)
    : config_(std::move(config)),
      workload_(make_workload(config_.workload, config_.mutation)),
      serial_(serial_outcomes(workload_)),
      footprints_(thread_footprints(workload_)) {}

bool Runner::next_writes() const {
  return config_.mech.is_auto() ||
         *config_.mech.fixed != core::Mechanism::kHtmCoarsened;
}

RunResult Runner::run(const PickFn& pick) {
  const std::size_t num_threads = workload_.threads.size();
  RunResult result;

  // Fresh machinery per schedule, constructed in a deterministic order so
  // heap layout — and with it every conflict unit — is schedule-invariant.
  mem::SimHeap heap;
  htm::DesMachine machine(mc_machine(), model::HtmKind::kRtm,
                          static_cast<int>(num_threads), heap, /*seed=*/1,
                          /*num_domains=*/1);
  if (config_.mutation == Mutation::kSkipReadValidation) {
    machine.set_seeded_bug(htm::DesMachine::SeededBug::kSkipReadValidation);
  }
  if (config_.livelock_watermark > 0) {
    htm::ResilienceConfig r;
    r.livelock_watermark = config_.livelock_watermark;
    machine.set_resilience(r);
  }

  check::CheckConfig check_cfg;
  check_cfg.serial = true;
  check::Checker checker(machine, check_cfg);

  core::ExecConfig opts;
  opts.batch = 8;
  opts.mechanism = config_.mech.fixed.value_or(core::Mechanism::kHtmCoarsened);
  opts.recorder = &checker;
  core::AutoPolicy policy;
  if (config_.mech.is_auto()) {
    core::MechanismPlan& plan = policy.plan(core::OperatorId::kUnknown);
    // The plan predicts no aborts: an observed rate above the band is a
    // prediction miss.
    plan.recommended = core::Mechanism::kHtmCoarsened;
    plan.abort_band = config_.auto_abort_band;
    opts.auto_policy = &policy;
  }
  std::unique_ptr<core::ActivityExecutor> exec =
      core::make_executor(machine, opts, /*lock_stripes=*/64);

  std::span<std::uint64_t> words =
      heap.alloc<std::uint64_t>(workload_.num_words, "mc.words");
  for (std::size_t i = 0; i < workload_.init.size(); ++i) {
    words[i] = workload_.init[i];
  }

  std::vector<std::unique_ptr<McWorker>> workers;
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers.push_back(std::make_unique<McWorker>(workload_.threads[t], *exec,
                                                 words.data()));
    machine.set_worker(static_cast<std::uint32_t>(t), workers.back().get());
  }

  RecordingController controller(pick, machine, result.violations);
  machine.run_controlled(controller);
  controller.finish();

  result.trace = controller.trace();
  result.steps = result.trace.size();
  result.reached_quiescence = !controller.stopped();
  const htm::HtmStats stats = machine.stats();
  result.aborts = stats.total_aborts();
  result.serialized = stats.serialized;
  result.committed = stats.committed;
  result.auto_descents = policy.telemetry.descents;
  result.auto_misses = policy.telemetry.prediction_miss;

  result.outcome.finals.assign(words.begin(), words.end());
  for (const std::unique_ptr<McWorker>& w : workers) {
    result.outcome.emits.push_back(w->emits());
  }

  // Value-based oracles apply only to complete schedules; a stopped run's
  // prefix recurs inside some completed schedule of the exploration.
  if (result.reached_quiescence) {
    if (!checker.passed()) {
      std::ostringstream os;
      os << checker.violations_total() << " check:: violation(s); first: ";
      if (!checker.violations().empty()) {
        const check::Violation& v = checker.violations().front();
        os << check::to_string(v.kind) << " — " << v.detail;
      }
      result.violations.push_back(
          ViolationInfo{ViolationInfo::Kind::kCheckerDivergence, os.str()});
    }
    for (std::size_t t = 0; t < workers.size(); ++t) {
      if (!workers[t]->done()) {
        std::ostringstream os;
        os << "thread " << t << " quiesced after " << workers[t]->completed()
           << " of " << workload_.threads[t].txns.size() << " transactions";
        result.violations.push_back(
            ViolationInfo{ViolationInfo::Kind::kIncomplete, os.str()});
      }
    }
    const std::string key = canonical(result.outcome);
    if (serial_.find(key) == serial_.end()) {
      std::ostringstream os;
      os << "outcome '" << key
         << "' is unreachable by any serial transaction order";
      result.violations.push_back(ViolationInfo{
          workload_.commutative ? ViolationInfo::Kind::kLostUpdate
                                : ViolationInfo::Kind::kNotSerializable,
          os.str()});
    }
    if (workload_.invariant) {
      if (std::optional<std::string> broken =
              workload_.invariant(result.outcome)) {
        result.violations.push_back(
            ViolationInfo{ViolationInfo::Kind::kInvariant, *broken});
      }
    }
  }
  return result;
}

RunResult Runner::replay(const Trace& trace) {
  std::size_t at = 0;
  std::optional<std::string> error;
  const PickFn pick = [&](std::span<const sim::Choice> ready) -> std::size_t {
    if (at >= trace.size()) return sim::ScheduleController::kStopRun;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      if (ready[i].thread() == trace[at].thread &&
          ready[i].kind == trace[at].kind) {
        ++at;
        return i;
      }
    }
    std::ostringstream os;
    os << "trace step " << (at + 1) << " (t" << trace[at].thread << " "
       << sim::to_string(trace[at].kind)
       << ") is not enabled in the replayed frontier";
    error = os.str();
    return sim::ScheduleController::kStopRun;
  };
  RunResult result = run(pick);
  if (error.has_value()) {
    result.violations.push_back(
        ViolationInfo{ViolationInfo::Kind::kReplayError, *error});
  } else if (at < trace.size()) {
    std::ostringstream os;
    os << "replay quiesced after " << at << " of " << trace.size()
       << " trace steps";
    result.violations.push_back(
        ViolationInfo{ViolationInfo::Kind::kReplayError, os.str()});
  }
  return result;
}

}  // namespace aam::mc
