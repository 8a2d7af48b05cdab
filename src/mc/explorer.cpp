#include "mc/explorer.hpp"

#include <utility>

#include "util/check.hpp"

namespace aam::mc {

namespace {

constexpr std::size_t kNoChoice = static_cast<std::size_t>(-1);

/// True for decision points that interact through the serialization
/// domain (the elision/fallback lock is global state every speculative
/// transaction subscribes to) or the callback table — never commuted.
bool globally_dependent(sim::ChoiceKind kind) {
  return kind == sim::ChoiceKind::kSerialAcquire ||
         kind == sim::ChoiceKind::kSerialCommit ||
         kind == sim::ChoiceKind::kCallback;
}

/// Words the step may write at its dispatch. HTM speculation buffers
/// writes: they reach committed state (words *and* conflict-unit stamps)
/// only at kCommitFinal / kSerialCommit. Non-HTM batches execute
/// synchronously inside the staging kNext, so there kNext writes too.
std::uint64_t writes_of(const Step& s,
                        const std::vector<ThreadFootprint>& fp,
                        bool next_writes) {
  switch (s.kind) {
    case sim::ChoiceKind::kCommitFinal:
    case sim::ChoiceKind::kSerialCommit:
      return fp[s.thread].writes;
    case sim::ChoiceKind::kNext:
      return next_writes ? fp[s.thread].writes : 0;
    default:
      return 0;
  }
}

/// Units the step's outcome may depend on: value reads (body execution at
/// kNext/kSpecRetry) plus conflict-stamp validation of the whole
/// footprint (probes and commits).
std::uint64_t touch_of(const Step& s,
                       const std::vector<ThreadFootprint>& fp) {
  return fp[s.thread].reads | fp[s.thread].writes;
}

/// One node of the DFS stack: the frontier at this depth, which branches
/// are asleep or already explored, and the branch the current path takes.
struct Node {
  std::vector<Step> enabled;
  std::vector<char> sleep;
  std::vector<char> explored;
  std::size_t chosen = kNoChoice;
  std::uint32_t prev_thread = 0;  ///< thread dispatched at depth-1
  bool has_prev = false;
  int preemptions_before = 0;  ///< preemptions among steps [0, depth)
};

class Explorer {
 public:
  Explorer(Runner& runner, const ExploreConfig& config)
      : runner_(runner),
        config_(config),
        fp_(runner.footprints()),
        next_writes_(runner.next_writes()) {}

  ExploreResult run_all() {
    ExploreResult out;
    std::vector<Node> path;
    bool exhausted_space = false;
    while (!exhausted_space) {
      if (out.stats.runs >= config_.max_runs ||
          out.stats.steps >= kMaxExploreSteps) {
        out.stats.budget_exhausted = true;
        break;
      }
      std::size_t depth = 0;
      const PickFn pick =
          [&](std::span<const sim::Choice> ready) -> std::size_t {
        if (depth < path.size()) return replay_prefix(path, depth++, ready);
        Node n = make_node(path, ready);
        n.chosen = first_candidate(n);
        const std::size_t pick_index = n.chosen;
        path.push_back(std::move(n));
        ++depth;
        return pick_index == kNoChoice ? sim::ScheduleController::kStopRun
                                       : pick_index;
      };
      RunResult r = runner_.run(pick);
      ++out.stats.runs;
      out.stats.steps += r.steps;
      if (r.auto_descents > out.stats.max_auto_descents) {
        out.stats.max_auto_descents = r.auto_descents;
      }
      if (r.reached_quiescence) {
        ++out.stats.schedules;
        if (!r.violations.empty()) {
          ++out.violating_schedules;
          for (const ViolationInfo& v : r.violations) {
            if (out.violations.size() < ExploreResult::kMaxStored) {
              out.violations.push_back(FoundViolation{v, r.trace});
            }
          }
          if (config_.stop_at_first_violation) break;
        }
      } else {
        ++out.stats.pruned;
      }
      exhausted_space = !backtrack(path);
    }
    return out;
  }

 private:
  bool depends(const Step& a, const Step& b) const {
    return steps_depend(a, b, fp_, next_writes_);
  }

  /// Dispatching `c` at `n` is a preemption when the previously running
  /// thread could have continued but a different thread runs instead.
  bool is_preemption(const Node& n, const Step& c) const {
    if (!n.has_prev || c.thread == n.prev_thread) return false;
    for (const Step& e : n.enabled) {
      if (e.thread == n.prev_thread) return true;
    }
    return false;
  }

  bool candidate_ok(const Node& n, std::size_t i) const {
    if (n.explored[i] != 0 || n.sleep[i] != 0) return false;
    if (config_.preemption_bound < 0) return true;
    const int cost = is_preemption(n, n.enabled[i]) ? 1 : 0;
    return n.preemptions_before + cost <= config_.preemption_bound;
  }

  std::size_t first_candidate(const Node& n) const {
    for (std::size_t i = 0; i < n.enabled.size(); ++i) {
      if (candidate_ok(n, i)) return i;
    }
    return kNoChoice;
  }

  /// Replays the recorded branch at `depth`, asserting the frontier is
  /// bit-identical to the recorded one (determinism guard: any divergence
  /// would silently invalidate the whole exploration).
  std::size_t replay_prefix(const std::vector<Node>& path, std::size_t depth,
                            std::span<const sim::Choice> ready) const {
    const Node& n = path[depth];
    AAM_CHECK_MSG(n.enabled.size() == ready.size(),
                  "mc: frontier size diverged during prefix replay");
    for (std::size_t i = 0; i < ready.size(); ++i) {
      AAM_CHECK_MSG(ready[i].thread() == n.enabled[i].thread &&
                        ready[i].kind == n.enabled[i].kind,
                    "mc: frontier contents diverged during prefix replay");
    }
    AAM_CHECK(n.chosen < ready.size());
    return n.chosen;
  }

  /// Builds the fresh node for the current frontier, inheriting the sleep
  /// set from the parent: a branch sleeps when the parent had already
  /// explored (or was already sleeping on) the same thread's pending
  /// decision and that decision commutes with the branch the parent took.
  /// The dispatched thread's own next decision is a new action and never
  /// inherits sleep; threads absent from the parent frontier (e.g. a
  /// serialization waiter the parent's dispatch admitted) start awake.
  Node make_node(const std::vector<Node>& path,
                 std::span<const sim::Choice> ready) const {
    Node n;
    n.enabled.reserve(ready.size());
    for (const sim::Choice& c : ready) {
      n.enabled.push_back(Step{c.thread(), c.kind});
    }
    n.sleep.assign(ready.size(), 0);
    n.explored.assign(ready.size(), 0);
    if (path.empty()) return n;
    const Node& p = path.back();
    const Step taken = p.enabled[p.chosen];
    n.has_prev = true;
    n.prev_thread = taken.thread;
    n.preemptions_before =
        p.preemptions_before + (is_preemption(p, taken) ? 1 : 0);
    if (!config_.sleep_sets) return n;
    for (std::size_t i = 0; i < n.enabled.size(); ++i) {
      if (n.enabled[i].thread == taken.thread) continue;
      for (std::size_t j = 0; j < p.enabled.size(); ++j) {
        if (p.enabled[j].thread != n.enabled[i].thread) continue;
        // At most one pending decision per thread: entry j IS branch i's
        // action, unchanged by the parent's dispatch of another thread.
        if (j != p.chosen && (p.sleep[j] != 0 || p.explored[j] != 0) &&
            !depends(p.enabled[j], taken)) {
          n.sleep[i] = 1;
        }
        break;
      }
    }
    return n;
  }

  /// Advances the deepest node with an unexplored branch; pops fully
  /// explored nodes. False when the whole space is done.
  static bool backtrack_advance(std::vector<Node>& path,
                                const Explorer& self) {
    while (!path.empty()) {
      Node& n = path.back();
      if (n.chosen != kNoChoice) n.explored[n.chosen] = 1;
      const std::size_t next = self.first_candidate(n);
      if (next != kNoChoice) {
        n.chosen = next;
        return true;
      }
      path.pop_back();
    }
    return false;
  }

  bool backtrack(std::vector<Node>& path) const {
    return backtrack_advance(path, *this);
  }

  Runner& runner_;
  const ExploreConfig& config_;
  const std::vector<ThreadFootprint>& fp_;
  const bool next_writes_;
};

}  // namespace

bool steps_depend(const Step& a, const Step& b,
                  const std::vector<ThreadFootprint>& footprints,
                  bool next_writes) {
  if (a.thread == b.thread) return true;
  if (globally_dependent(a.kind) || globally_dependent(b.kind)) return true;
  const std::uint64_t wa = writes_of(a, footprints, next_writes);
  const std::uint64_t wb = writes_of(b, footprints, next_writes);
  return (wa & touch_of(b, footprints)) != 0 ||
         (wb & touch_of(a, footprints)) != 0;
}

ExploreResult explore(Runner& runner, const ExploreConfig& config) {
  Explorer explorer(runner, config);
  return explorer.run_all();
}

std::optional<FoundViolation> find_minimal(Runner& runner, int max_bound,
                                           std::uint64_t max_runs) {
  for (int bound = 0; bound <= max_bound; ++bound) {
    ExploreConfig config;
    // Plain bounded DFS: sleep sets off so the witness is the canonical
    // first failure in frontier order at the smallest failing bound.
    config.sleep_sets = false;
    config.preemption_bound = bound;
    config.stop_at_first_violation = true;
    config.max_runs = max_runs;
    ExploreResult result = explore(runner, config);
    if (!result.violations.empty()) {
      return result.violations.front();
    }
  }
  return std::nullopt;
}

}  // namespace aam::mc
