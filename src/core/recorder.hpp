#pragma once

// The --check seam of the executor layer: what execute_batch records about
// every batch when ExecConfig::recorder is set.
//
// A checked batch runs the operator against RecordingAccess<Access>
// (executor_impl.hpp), a non-virtual wrapper around the mechanism's own
// access type that logs every touched word here, and — when the recorder
// replays — once more after commit against ReplayAccess, which re-executes
// the batch serially on an overlay of the recorded pre-images. Both access
// types live in core, so a checked batch takes the same templated
// run_batch as an unchecked one. The audits that read the record (shadow
// scans, footprint and static-signature audits, the commit digest, the
// serial diff) live in check::Checker, which derives from BatchRecorder.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "mem/footprint.hpp"
#include "mem/sim_heap.hpp"

namespace aam::core {

/// Everything recorded about one in-flight batch on one thread. Reset at
/// batch start and again at each transactional retry (item 0 re-entry), so
/// at BatchDone it describes exactly the committed attempt.
struct BatchRecord {
  mem::WordMap pre;       ///< word offset -> committed pre-image
  mem::EpochSet read_set;
  mem::EpochSet write_set;
  std::vector<std::uint64_t> read_words;   ///< first-touch order
  std::vector<std::uint64_t> write_words;  ///< first-write order
  bool transactional = false;
  bool foreign = false;  ///< an access touched memory off the SimHeap
  OperatorId op_id = OperatorId::kUnknown;
};

/// Per-thread batch records plus the serial-replay scratch. The DES event
/// loop is single-threaded, so no locking.
class BatchRecorder {
 public:
  virtual ~BatchRecorder() = default;

  BatchRecorder(const BatchRecorder&) = delete;
  BatchRecorder& operator=(const BatchRecorder&) = delete;

  void begin_batch(std::uint32_t tid, OperatorId op_id);
  void begin_attempt(std::uint32_t tid);
  BatchRecord& record(std::uint32_t tid) { return records_[tid]; }

  /// Log one access into `rec`: the committed pre-image on first touch
  /// (call before the access can mutate it), the word sets in first-touch
  /// order, and the byte interval of every legitimate write — the only
  /// legitimate-write channel for STM batches, which write heap memory
  /// directly without passing a DesMachine choke point.
  void note_read(BatchRecord& rec, const void* p);
  void note_write(BatchRecord& rec, const void* p, std::uint32_t len);

  /// True when every committed batch is re-executed through ReplayAccess
  /// before on_batch_done.
  bool replays() const { return replays_; }

  /// Fires once per committed batch, after its replay (if any), with the
  /// mechanism it ran under and its committed emissions.
  virtual void on_batch_done(std::uint32_t tid, Mechanism mechanism,
                             std::uint64_t count,
                             std::span<const std::uint64_t> results) = 0;

  /// The committed 8-byte word at heap offset `word` (word-aligned; reads
  /// fewer bytes at the very end of the used region).
  std::uint64_t committed_word(std::uint64_t word) const;

 protected:
  /// `record_words`: keep pre-images and word sets; `log_writes`: append
  /// legitimate-write intervals to legit_; `replays`: see replays().
  BatchRecorder(mem::SimHeap& heap, int threads, bool record_words,
                bool log_writes, bool replays);

  mem::SimHeap& heap_;
  std::vector<BatchRecord> records_;  ///< per thread id
  std::vector<std::pair<std::uint64_t, std::uint32_t>> legit_;
  // Serial replay scratch, reused across batches: the words the replay
  // wrote and the emissions it produced.
  mem::WordMap overlay_;
  std::vector<std::uint64_t> replay_results_;

 private:
  friend class ReplayAccess;

  void capture_pre(BatchRecord& rec, std::uint64_t word);

  bool record_words_;
  bool log_writes_;
  bool replays_;
};

}  // namespace aam::core
