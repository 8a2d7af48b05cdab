#pragma once

// One controlled execution of a model-checking workload.
//
// The Runner owns everything that stays fixed across the schedule space —
// the workload, its serial-outcome oracle set, and the per-thread static
// footprints — and builds a fresh simulation stack (SimHeap, DesMachine,
// Checker, executor, workers) for every schedule it runs, so schedules
// are perfectly independent: stateless model checking, one full machine
// re-run per explored interleaving.
//
// A run is driven by a PickFn choosing among the frontier of schedulable
// decision points (sim/schedule.hpp); the Runner records the dispatched
// (thread, kind) trace and evaluates four value-based oracles against the
// completed run:
//
//   * serial membership — the committed (finals, emissions) outcome must
//     equal some program-order-respecting serial transaction order
//     (kNotSerializable; reported as kLostUpdate for commutative
//     counter workloads, where that is the classic symptom);
//   * per-workload invariant — the McWorkload's own predicate;
//   * checker divergence — the aam::check serial-replay differ, attached
//     as the executor's recorder during every schedule (per-batch oracle);
//   * zombie commits — at each kCommitFinal dispatch the Runner asks the
//     engine for an honest first-committer-wins verdict
//     (DesMachine::commit_would_conflict) and flags any transaction the
//     engine nevertheless commits: an opacity violation, observable only
//     with a seeded validation bug.

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "mc/trace.hpp"
#include "mc/workload.hpp"
#include "sim/schedule.hpp"

namespace aam::mc {

/// What to run: workload x mutation x mechanism (or auto), plus the knobs
/// that make the auto ladder reachable at model-checking scale.
struct RunConfig {
  std::string workload = "counter";
  Mutation mutation = Mutation::kNone;
  core::MechanismSelection mech{core::Mechanism::kHtmCoarsened};
  /// Auto-dispatch plan for the workload's (untagged) batches: the
  /// observed abort rate that counts as a prediction miss.
  double auto_abort_band = 1e9;
  /// Livelock watermark override (0 = engine default): small values make
  /// the escalated htm -> serial-lock path reachable within tiny runs.
  int livelock_watermark = 0;
};

/// Hard per-run dispatch cap; exceeding it stops the run without
/// quiescence (a diverging schedule, counted as budget-pruned).
inline constexpr std::uint64_t kMaxRunSteps = 1 << 20;

struct ViolationInfo {
  enum class Kind : std::uint8_t {
    kNotSerializable,    ///< outcome outside the serial-order set
    kLostUpdate,         ///< same, on a commutative counter workload
    kZombieCommit,       ///< engine committed a provably conflicted txn
    kInvariant,          ///< workload invariant failed
    kIncomplete,         ///< quiescence with unfinished thread programs
    kCheckerDivergence,  ///< aam::check batch-level oracle fired
    kReplayError,        ///< trace step never matched the live frontier
  };
  Kind kind = Kind::kNotSerializable;
  std::string detail;
};

const char* to_string(ViolationInfo::Kind kind);

/// Everything observed in one schedule.
struct RunResult {
  Outcome outcome;
  Trace trace;
  std::vector<ViolationInfo> violations;
  bool reached_quiescence = false;
  std::uint64_t steps = 0;       ///< decision points dispatched
  std::uint64_t aborts = 0;      ///< speculative aborts (all reasons)
  std::uint64_t serialized = 0;  ///< fallback executions
  std::uint64_t committed = 0;   ///< speculative commits
  std::uint64_t auto_descents = 0;  ///< auto ladder rungs descended
  std::uint64_t auto_misses = 0;    ///< auto prediction misses
};

/// Picks the index of the next frontier entry to dispatch (or
/// sim::ScheduleController::kStopRun to abandon the run).
using PickFn = std::function<std::size_t(std::span<const sim::Choice>)>;

class Runner {
 public:
  explicit Runner(RunConfig config);

  /// Executes one full schedule under `pick`.
  RunResult run(const PickFn& pick);

  /// Re-executes a recorded schedule by (thread, kind) identity.
  RunResult replay(const Trace& trace);

  const RunConfig& config() const { return config_; }
  const McWorkload& workload() const { return workload_; }
  const std::set<std::string>& serial() const { return serial_; }
  const std::vector<ThreadFootprint>& footprints() const {
    return footprints_;
  }

  /// True when a kNext dispatch may write shared words: non-HTM fixed
  /// mechanisms execute their batch synchronously inside the staging
  /// kNext, and auto may route to one of them. HTM stages only — its
  /// kNext is read-free, and writes land at kCommitFinal/kSerialCommit.
  bool next_writes() const;

 private:
  RunConfig config_;
  McWorkload workload_;
  std::set<std::string> serial_;
  std::vector<ThreadFootprint> footprints_;
};

}  // namespace aam::mc
