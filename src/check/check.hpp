#pragma once

// aam::check — opt-in dynamic analysis for the executor seam (the "is the
// simulation actually race-free and serializable?" question).
//
// Every algorithm in this repository funnels its shared-state mutations
// through core::execute_batch, and every modelled write that reaches
// committed memory passes a handful of DesMachine choke points. That makes
// three strong checks cheap to piggyback on the existing seams (the
// per-access record and serial replay live in core/recorder.hpp):
//
//  * escaped-write detector (races) — keeps a shadow copy of the SimHeap's
//    committed state, synchronised from the engine's WriteObserver hooks,
//    and flags any byte that changed without flowing through a modelled
//    channel: a raw pointer write that no mechanism synchronizes, bumps
//    conflict stamps for, or charges costs to. Reported with the heap
//    offset, 64-byte line id, owning allocation label, and batch index.
//
//  * serializability checker (serial) — re-executes each committed batch
//    serially against the batch's recorded pre-images on a shadow overlay
//    and diffs both the final words and the emission sequence against what
//    the mechanism actually committed. A batch whose outcome cannot be
//    reproduced by some serial order of its own operators is not
//    linearizable — the exact property coarsened transactions claim.
//
//  * footprint auditor (footprint) — cross-checks the engine's declared
//    FootprintTracker read/write conflict-unit sets against the accesses
//    the operator actually made (HTM executor only — the tracker belongs
//    to the transactional attempt), and folds every committed (word,
//    value) pair into a chained FNV-1a digest for run-to-run determinism
//    regression tests.
//
// All three are wired through one CheckConfig (CLI: --check=none|races|
// serial|footprint|all). When disabled nothing is allocated, no recorder
// is attached, and the engine's observer branch stays unset — zero
// overhead. When enabled, all bookkeeping happens host-side: no modelled
// cost is charged, so enabling checks never perturbs simulated time.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/executor.hpp"
#include "core/recorder.hpp"
#include "htm/des_engine.hpp"
#include "mem/footprint.hpp"
#include "mem/sim_heap.hpp"

namespace aam::util {
class Cli;
}

namespace aam::check {

struct CheckConfig {
  bool races = false;      ///< escaped-write detector
  bool serial = false;     ///< serial re-execution differ
  bool footprint = false;  ///< declared-footprint audit + commit digest

  bool enabled() const { return races || serial || footprint; }
};

/// Parses a --check value: "none", "races", "serial", "footprint", "all".
/// nullopt for anything else.
std::optional<CheckConfig> parse_check(std::string_view name);

/// Comma-separated list of the valid --check spellings (diagnostics).
std::string check_names();

/// The full diagnostic for a bad --check value: names the flag, echoes the
/// offending value, lists every valid spelling (as
/// core::mechanism_selection_error does).
std::string check_error(const std::string& flag, const std::string& value);

/// Reads `--<flag>=<name>` into a CheckConfig; aborts with check_error()
/// on a bad value.
CheckConfig check_flag(util::Cli& cli, const std::string& flag = "check");

struct Violation {
  enum class Kind : std::uint8_t {
    kEscapedWrite,       ///< committed memory changed outside all channels
    kSerialDivergence,   ///< batch outcome != serial re-execution outcome
    kFootprintMismatch,  ///< access outside the declared conflict sets
    kStaticEscape,       ///< access outside the operator's static signature
    kCapacityGuard,      ///< HTM batch larger than the static c_safe bound
  };
  Kind kind;
  std::uint64_t batch = 0;   ///< global batch (activity) sequence number
  std::uint64_t offset = 0;  ///< heap byte offset of the disagreement
  std::string detail;        ///< human-readable description
};

const char* to_string(Violation::Kind kind);

/// The checker. Construct with the machine under test and a config, then
/// pass it as core::ExecConfig::recorder (AamRuntime::Options is one, the
/// algorithm Options inherit one and DistributedRuntime::Options carries
/// one) so every batch the run executes is recorded and audited. One
/// Checker serves any number of executors on the same machine; the DES
/// event loop is single-threaded, so no locking.
class Checker final : public core::BatchRecorder, public mem::WriteObserver {
 public:
  Checker(htm::DesMachine& machine, CheckConfig config);
  ~Checker() override;

  // core::BatchRecorder
  void on_batch_done(std::uint32_t tid, core::Mechanism mechanism,
                     std::uint64_t count,
                     std::span<const std::uint64_t> results) override;

  // mem::WriteObserver (registered on the machine only in races mode)
  void on_legitimate_write(std::uint64_t offset, std::uint32_t len) override;
  void on_run_start() override;
  void on_quiescence() override;

  const CheckConfig& config() const { return config_; }
  htm::DesMachine& machine() { return machine_; }

  /// Arms the capacity-guard audit: every committed HTM batch tagged with
  /// a known OperatorId whose item count exceeds the policy's static
  /// c_safe bound becomes a kCapacityGuard violation. Used with
  /// --mechanism=auto to prove the auto dispatcher never speculates past
  /// its own capacity analysis (the clamp reroutes such batches). The
  /// policy must outlive the checker's use.
  void set_capacity_policy(const core::AutoPolicy* policy);

  /// Violations found so far (capped at kMaxStored; the total keeps
  /// counting past the cap).
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t violations_total() const { return violations_total_; }
  bool passed() const { return violations_total_ == 0; }

  std::uint64_t batches_checked() const { return batches_; }

  /// Chained FNV-1a digest over every committed batch's (word offset,
  /// value) write set in commit order (footprint mode). Two runs of a
  /// deterministic simulation must produce identical digests.
  std::uint64_t digest() const { return digest_; }

  /// Per-operator maxima over all committed batches tagged with a known
  /// OperatorId (footprint mode). The word counts come from the recording
  /// wrapper (operator-surface accesses only); the line counts from the
  /// HTM tracker at commit time, so they are zero for non-transactional
  /// mechanisms. `items_at_max_*` is the batch size of the batch that
  /// achieved the corresponding word maximum — the pair lets tests bound
  /// per-batch footprints against `count x per-item static signature`.
  struct FootprintStats {
    std::uint64_t batches = 0;
    std::uint64_t max_read_words = 0;
    std::uint64_t items_at_max_read = 0;
    std::uint64_t max_write_words = 0;
    std::uint64_t items_at_max_write = 0;
    std::uint64_t max_read_lines = 0;
    std::uint64_t max_write_lines = 0;
  };
  const FootprintStats& footprint_stats(core::OperatorId op) const {
    return footprint_stats_[static_cast<std::size_t>(op)];
  }

  /// Writes every stored violation (plus a summary line) to `out`.
  void report(std::ostream& out) const;

  inline static constexpr std::size_t kMaxStored = 64;

 private:
  /// dynamic-vs-static audit: every recorded word must fall in a heap
  /// allocation whose label the operator's static signature covers.
  void audit_static_signature(std::uint32_t tid, std::uint64_t batch_no);
  void update_footprint_stats(std::uint32_t tid, core::Mechanism mechanism,
                              std::uint64_t count);

  /// serial: diffs the replay (overlay_, replay_results_) against the
  /// committed state and emissions.
  void diff_serial(const core::BatchRecord& rec,
                   std::span<const std::uint64_t> results,
                   std::uint64_t batch_no);
  void audit_footprint_for(std::uint32_t tid, std::uint64_t batch_no);
  void fold_digest(const core::BatchRecord& rec, std::uint64_t count);

  void scan_shadow(std::uint64_t batch_no);
  void sync_shadow_growth();
  void refresh_exempt();
  void compare_range(std::uint64_t lo, std::uint64_t hi,
                     std::uint64_t batch_no);

  void add_violation(Violation::Kind kind, std::uint64_t batch,
                     std::uint64_t offset, std::string detail);

  htm::DesMachine& machine_;
  CheckConfig config_;

  // races: shadow of the committed heap (pending legitimate intervals are
  // the recorder's legit_).
  std::vector<std::byte> shadow_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> exempt_;  ///< [lo,hi)
  std::size_t exempt_allocs_seen_ = 0;

  std::uint64_t batches_ = 0;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::vector<Violation> violations_;
  std::uint64_t violations_total_ = 0;

  // footprint: per-OperatorId maxima (indexed by the enum value; slot 0 =
  // kUnknown stays untouched).
  std::vector<FootprintStats> footprint_stats_;

  // capacity-guard audit (set_capacity_policy); nullptr = audit disarmed.
  const core::AutoPolicy* capacity_policy_ = nullptr;
};

}  // namespace aam::check
