#pragma once

// Pluggable activity executors (§4.1, §6.1).
//
// The paper's central comparison treats coarsened HTM transactions, atomic
// operations, and fine-grained locks as interchangeable ways of applying a
// batch of single-element operators. This header makes that seam explicit:
// an ActivityExecutor applies `count` operator invocations under ONE
// synchronization mechanism, and every algorithm is written once as a
// generic operator body over the access surface of executor_impl.hpp.
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
// `access.emit(value)`; the executor stages emissions per attempt and the
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

class BatchRecorder;  // core/recorder.hpp (implemented by check::Checker)
struct AutoPolicy;  // core/auto_executor.hpp (plain data filled by analysis::)

/// How a run executes its batches: the one executor configuration shared
/// by make_executor, AamRuntime and every intra-node algorithm's Options.
struct ExecConfig {
  int batch = 16;  ///< M: operators per coarse batch
  Mechanism mechanism = Mechanism::kHtmCoarsened;
  /// --check (src/check/): when set, every batch's accesses are logged
  /// to the recorder, which may also replay it; nullptr = unchecked.
  BatchRecorder* recorder = nullptr;
  /// --mechanism=auto: when set, make_executor ignores `mechanism` and
  /// builds an AutoExecutor routing each batch per the policy's
  /// recommendation table. The recorder then sees each batch under the
  /// fixed mechanism it was routed to. The policy must outlive the
  /// executor.
  const AutoPolicy* auto_policy = nullptr;
};

/// Applies batches of single-element operators under one mechanism. A
/// batch runs through core::execute_batch (core/executor_impl.hpp), which
/// dispatches on mechanism() to the concrete executor's templated
/// run_batch.
class ActivityExecutor {
 public:
  /// Fires exactly once per batch with the committed emissions.
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

  /// The mechanism every batch runs under; nullopt for the auto
  /// dispatcher, which routes each batch to a fixed inner executor.
  std::optional<Mechanism> mechanism() const { return mechanism_; }

  BatchRecorder* recorder() const { return recorder_; }

  /// The executor's preferred operators-per-batch for work claiming (M
  /// for HTM — live from the adaptive controller when one is attached;
  /// the configured batch otherwise). Virtual (with set_batch and
  /// set_adaptive) so the auto dispatcher can forward to its rungs.
  virtual int preferred_batch() const { return batch_; }
  virtual void set_batch(int m) { batch_ = m; }

  /// Online M selection (§7): HtmCoarsened claims the controller's batch
  /// size and feeds activity outcomes back; other mechanisms ignore it.
  virtual void set_adaptive(AdaptiveBatch* adaptive) { adaptive_ = adaptive; }
  AdaptiveBatch* adaptive() const { return adaptive_; }

  /// Outcome telemetry tap (HtmCoarsened fires it per completed activity,
  /// after the adaptive controller; other mechanisms never do).
  void set_outcome_hook(OutcomeHook hook) { outcome_hook_ = std::move(hook); }

  /// Checkpoint support (src/recovery/): the executor's durable host-side
  /// control state — batch size, the attached adaptive controller, and
  /// mechanism-specific fields (e.g. the serial lock's virtual-time
  /// release point, the auto dispatcher's ladder rungs). Heap-resident
  /// tables (lock stripes, orecs) restore with the heap image and are not
  /// re-serialized here. An override calls the base first, then lists its
  /// own fields; the one list serves save and restore alike.
  virtual void durable(util::BlobIo& io);

 protected:
  ActivityExecutor(std::optional<Mechanism> mechanism, const ExecConfig& exec)
      : mechanism_(mechanism), recorder_(exec.recorder), batch_(exec.batch) {}

  const std::optional<Mechanism> mechanism_;
  BatchRecorder* const recorder_;
  int batch_;
  AdaptiveBatch* adaptive_ = nullptr;
  OutcomeHook outcome_hook_;
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
