#pragma once

// Bounded stateless exploration of a workload's schedule space.
//
// The explorer drives Runner::run once per schedule, maintaining a DFS
// stack over the decision tree of frontier choices. Two reductions:
//
//   * sleep sets (Godefroid) keyed on a *static* dependence relation:
//     two decision points commute unless they are on the same thread,
//     either is a serialization/callback event (the domain lock is global
//     state), or their threads' static may-write/may-touch footprints
//     (PR 4 abstract interpretation, word-granular — the same granularity
//     the MC machine detects conflicts at) overlap. Equivalent
//     interleavings share final state and emissions, so the value-based
//     oracles lose nothing; see DESIGN.md §11 for the argument and its
//     caveats.
//
//   * preemption bounding (CHESS-style): cap involuntary context switches
//     per schedule. Unsound but useful both as the budget fallback for
//     configs whose full space is too large and as a trace minimizer —
//     the first failure found at the smallest failing bound is a
//     canonical, fewest-preemptions witness.
//
// Exploration is deterministic: candidate order is frontier order, the
// machine is rebuilt identically per run, and prefix replay asserts the
// frontier is reproduced exactly.

#include <cstdint>
#include <optional>
#include <vector>

#include "mc/runner.hpp"

namespace aam::mc {

/// Total dispatched choices one exploration may spend.
inline constexpr std::uint64_t kMaxExploreSteps = 20'000'000;

struct ExploreConfig {
  bool sleep_sets = true;     ///< conflict-based POR on static footprints
  int preemption_bound = -1;  ///< max involuntary switches; -1 = unbounded
  std::uint64_t max_runs = 200000;       ///< machine executions
  bool stop_at_first_violation = false;
};

struct ExploreStats {
  std::uint64_t runs = 0;       ///< machine executions started
  std::uint64_t schedules = 0;  ///< complete (quiescent) schedules
  std::uint64_t pruned = 0;     ///< runs abandoned (sleep-blocked/bounded)
  std::uint64_t steps = 0;      ///< decision points dispatched in total
  /// Largest auto-ladder descent count any single schedule exhibited
  /// (--mechanism=auto only): proof the descent path was exercised
  /// somewhere in the certified space.
  std::uint64_t max_auto_descents = 0;
  bool budget_exhausted = false;
};

struct FoundViolation {
  ViolationInfo info;
  Trace trace;  ///< complete replayable schedule exhibiting it
};

struct ExploreResult {
  ExploreStats stats;
  /// First kMaxStored violations, in discovery order.
  std::vector<FoundViolation> violations;
  /// Complete schedules with at least one violation (uncapped count).
  std::uint64_t violating_schedules = 0;

  inline static constexpr std::size_t kMaxStored = 8;
};

/// Systematic DFS over every inequivalent schedule (within budgets).
ExploreResult explore(Runner& runner, const ExploreConfig& config);

/// Canonical minimized failing schedule: iterative-deepening over the
/// preemption bound (0, 1, ..., max_bound), returning the first failure
/// of the first failing bound. nullopt when no bound yields one.
std::optional<FoundViolation> find_minimal(Runner& runner, int max_bound = 8,
                                           std::uint64_t max_runs = 200000);

/// The static dependence relation the sleep sets key on (exposed for
/// tests): true when the two decision points may not commute.
bool steps_depend(const Step& a, const Step& b,
                  const std::vector<ThreadFootprint>& footprints,
                  bool next_writes);

}  // namespace aam::mc
