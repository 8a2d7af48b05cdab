#pragma once

// Pluggable activity executors (§4.1, §6.1).
//
// The paper's central comparison treats coarsened HTM transactions, atomic
// operations, and fine-grained locks as interchangeable ways of applying a
// batch of single-element operators. This header makes that seam explicit:
// an ActivityExecutor applies `count` operator invocations under ONE
// synchronization mechanism, and every algorithm is written once against
// the mechanism-neutral `Access` surface.
//
//   kHtmCoarsened — M operators per hardware transaction (§4.2 Listing 8);
//                   the AAM default, with adaptive-M support.
//   kAtomicOps    — one CAS/ACC per item, Graph500-style (§6.1 baseline).
//   kFineLocks    — per-element striped spinlock around each guarded
//                   update, Galois-like (§6.1.2).
//   kSerialLock   — one global lock around the whole batch: the §4.1
//                   coarse-lock lower bound.
//   kStm          — software TM (§8): direct execution of the batch on
//                   the simulated heap + a first-order TL2 cost model.
//
// Operator results that must survive transactional re-execution (claimed
// vertices, recolor requests, FR replies) are not returned from the body —
// bodies may run several times on aborts. Instead the operator calls
// `Access::emit(value)`; the executor stages emissions per attempt and the
// `BatchDone` callback receives exactly the committed attempt's values.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/adaptive.hpp"
#include "htm/des_engine.hpp"
#include "util/blob.hpp"

namespace aam::util {
class Cli;
}

namespace aam::core {

enum class Mechanism {
  kHtmCoarsened,
  kAtomicOps,
  kFineLocks,
  kSerialLock,
  kStm,
};

/// Identity of the operator body a batch executes. Call sites that route a
/// named operator from algorithms/operators.hpp tag their batches so the
/// check:: layer can hold the dynamic footprint against the operator's
/// static effect signature (src/analysis/). kUnknown batches (ad-hoc
/// lambdas, baselines) are executed identically but skip that audit.
enum class OperatorId : std::uint8_t {
  kUnknown = 0,
  kBfsVisit,
  kPagerankPush,
  kSsspRelax,
  kUfRoot,
  kUfUnion,
  kColorAssign,
  kStVisit,
};

/// Canonical operator names ("bfs_visit", ...); "?" for kUnknown.
const char* to_string(OperatorId op);

/// The analyzable operators, in enum order (excludes kUnknown).
std::span<const OperatorId> all_operator_ids();

/// Canonical names: "htm", "atomics", "fine-locks", "serial-lock", "stm".
const char* to_string(Mechanism mechanism);

/// Inverse of to_string (exact match only); nullopt for unknown names.
std::optional<Mechanism> parse_mechanism(std::string_view name);

/// All mechanisms, in enum order (for sweeps and tests).
std::span<const Mechanism> all_mechanisms();

/// Comma-separated list of the canonical mechanism names (diagnostics).
std::string mechanism_names();

/// A --mechanism value at a seam that also accepts "auto": either one
/// fixed mechanism or the policy-driven auto dispatch.
struct MechanismSelection {
  std::optional<Mechanism> fixed;  ///< nullopt = auto
  bool is_auto() const { return !fixed.has_value(); }
};

/// Parses a mechanism name or "auto"; nullopt for anything else.
std::optional<MechanismSelection> parse_mechanism_selection(
    std::string_view name);

/// mechanism_names() plus the "auto" spelling (diagnostics).
std::string mechanism_selection_names();

/// One-line diagnostic for a bad --mechanism value: names the flag,
/// echoes the offending value, and lists every valid spelling; same shape
/// as check_error / fault flag errors.
std::string mechanism_selection_error(const std::string& flag,
                                      const std::string& value);

/// Reads `--<flag>=<name>` accepting every mechanism name plus "auto";
/// exits 2 with mechanism_selection_error() on a bad value.
MechanismSelection mechanism_selection_flag(util::Cli& cli,
                                            const std::string& flag,
                                            const std::string& def);

/// Mechanism-neutral memory access surface handed to operators. Typed
/// overloads (rather than a word-granular API) so that the atomic
/// executors never CAS a full 8-byte word when the element is a packed
/// 4-byte vertex — adjacent elements must stay independent.
class Access {
 public:
  virtual ~Access() = default;

  virtual std::uint32_t load(const std::uint32_t& ref) = 0;
  virtual std::uint64_t load(const std::uint64_t& ref) = 0;
  virtual double load(const double& ref) = 0;

  virtual void store(std::uint32_t& ref, std::uint32_t value) = 0;
  virtual void store(std::uint64_t& ref, std::uint64_t value) = 0;
  virtual void store(double& ref, double value) = 0;

  /// Guarded compare-and-swap: atomic w.r.t. the executor's mechanism.
  virtual bool cas(std::uint32_t& ref, std::uint32_t expect,
                   std::uint32_t desired) = 0;
  virtual bool cas(std::uint64_t& ref, std::uint64_t expect,
                   std::uint64_t desired) = 0;
  virtual bool cas(double& ref, double expect, double desired) = 0;

  virtual std::uint64_t fetch_add(std::uint64_t& ref, std::uint64_t delta) = 0;
  virtual double fetch_add(double& ref, double delta) = 0;

  /// True when accesses are buffered into a transaction (the operator may
  /// rely on all-or-nothing visibility of its writes).
  virtual bool transactional() const = 0;

  /// Records a per-item result for the batch's BatchDone callback. Under a
  /// transactional executor the emissions of aborted attempts are
  /// discarded; only the committed attempt's values are delivered.
  /// (Virtual so wrappers — e.g. the check:: recording layer — can route
  /// emissions to the wrapped executor's staging buffer.)
  virtual void emit(std::uint64_t value) { results_->push_back(value); }

 protected:
  explicit Access(std::vector<std::uint64_t>* results) : results_(results) {}

 private:
  std::vector<std::uint64_t>* results_;
};

/// Applies batches of single-element operators under one mechanism.
class ActivityExecutor {
 public:
  /// The single-element operator: item indices are [0, count) within the
  /// batch passed to execute(). Captured references must stay valid until
  /// the batch's BatchDone fires (transactional executors run the batch
  /// after the staging next() call returns).
  using ItemOp = std::function<void(Access&, std::uint64_t item)>;
  /// Fires exactly once per execute() with the committed emissions.
  using BatchDone =
      std::function<void(htm::ThreadCtx&, std::span<const std::uint64_t>)>;
  /// Host-side observer of per-activity transaction outcomes (HTM executor
  /// only): the auto-dispatch layer uses it to validate predicted abort
  /// rates against live telemetry. Never charges simulated cost.
  using OutcomeHook =
      std::function<void(htm::ThreadCtx&, const htm::TxnOutcome&)>;

  virtual ~ActivityExecutor() = default;

  ActivityExecutor(const ActivityExecutor&) = delete;
  ActivityExecutor& operator=(const ActivityExecutor&) = delete;

  virtual Mechanism mechanism() const = 0;

  /// True only for the concrete executors of executor_impl.hpp: a promise
  /// that this object IS the concrete class for mechanism(), so
  /// execute_batch may static_cast and take the templated fast path.
  /// Decorating executors (check::) must leave this false — their whole
  /// point is interposing on the type-erased execute() seam.
  virtual bool devirtualized() const { return false; }

  /// Applies op(access, i) for i in [0, count) under the mechanism.
  /// Transactional executors stage the batch: the call must then be the
  /// last action of the current Worker::next(). Non-transactional
  /// executors apply synchronously, and `done` (if any) fires before
  /// execute returns. `op_id` names the operator body for analysis layers
  /// (concrete executors ignore it; execution never depends on it).
  virtual void execute(htm::ThreadCtx& ctx, std::uint64_t count,
                       const ItemOp& op, BatchDone done = {},
                       OperatorId op_id = OperatorId::kUnknown) = 0;

  /// The executor's preferred operators-per-batch for work claiming (M
  /// for HTM — live from the adaptive controller when one is attached;
  /// the configured batch otherwise). Virtual (with set_batch and the
  /// adaptive hooks) so decorating executors can forward to the inner one.
  virtual int preferred_batch() const { return batch_; }
  virtual void set_batch(int m) { batch_ = m; }

  /// Online M selection (§7): HtmCoarsened claims the controller's batch
  /// size and feeds activity outcomes back; other mechanisms ignore it.
  virtual void set_adaptive(AdaptiveBatch* adaptive) { adaptive_ = adaptive; }
  virtual AdaptiveBatch* adaptive() const { return adaptive_; }

  /// Outcome telemetry tap (HtmCoarsened fires it per completed activity,
  /// after the adaptive controller; other mechanisms never do). Virtual so
  /// decorating executors can forward to the inner one.
  virtual void set_outcome_hook(OutcomeHook hook) {
    outcome_hook_ = std::move(hook);
  }

  /// Checkpoint support (src/recovery/): serializes the executor's durable
  /// host-side control state — batch size, the attached adaptive
  /// controller, and mechanism-specific fields (e.g. the serial lock's
  /// virtual-time release point, the auto dispatcher's ladder rungs).
  /// Heap-resident tables (lock stripes, orecs) restore with the heap
  /// image and are not re-serialized here. Overrides must call the base
  /// first and append in the same order on both sides.
  virtual void save_state(util::BlobWriter& w) const;
  virtual void restore_state(util::BlobReader& r);

 protected:
  explicit ActivityExecutor(int batch) : batch_(batch) {}

  int batch_;
  AdaptiveBatch* adaptive_ = nullptr;
  OutcomeHook outcome_hook_;
};

/// Wraps a freshly built executor in an analysis layer. Implemented by
/// check::Checker (src/check/); declared here so the construction seam
/// (make_executor and the ExecConfig that feeds it) can carry a
/// checker without the core layer depending on the check subsystem.
class ExecutorDecorator {
 public:
  virtual ~ExecutorDecorator() = default;
  virtual std::unique_ptr<ActivityExecutor> wrap(
      std::unique_ptr<ActivityExecutor> inner) = 0;
};

struct AutoPolicy;  // core/auto_executor.hpp (plain data filled by analysis::)

/// How a run executes its batches: the one executor configuration shared
/// by make_executor, AamRuntime and every intra-node algorithm's Options.
struct ExecConfig {
  int batch = 16;  ///< M: operators per coarse batch
  Mechanism mechanism = Mechanism::kHtmCoarsened;
  /// Optional dynamic-analysis wrapper (see src/check/); nullptr = none.
  ExecutorDecorator* decorator = nullptr;
  /// --mechanism=auto: when set, make_executor ignores `mechanism` and
  /// builds an AutoExecutor routing each batch per the policy's
  /// recommendation table. The decorator then wraps the *inner* fixed
  /// executors (one per reachable rung), not the auto shell. The policy
  /// must outlive the executor.
  const AutoPolicy* auto_policy = nullptr;
};

/// Builds the executor for `exec.mechanism` on `machine` (lock, orec and
/// version-clock tables live on the machine's heap), or the
/// auto-dispatching executor when exec.auto_policy is set. `lock_stripes`
/// sizes the kFineLocks lock table and the kStm orec table (rounded up to
/// a power of two; allocated on the machine's SimHeap).
std::unique_ptr<ActivityExecutor> make_executor(
    htm::DesMachine& machine, const ExecConfig& exec,
    std::uint32_t lock_stripes = 1u << 13);

}  // namespace aam::core
