#include "core/recorder.hpp"

#include <algorithm>
#include <cstring>

namespace aam::core {

BatchRecorder::BatchRecorder(mem::SimHeap& heap, int threads,
                             bool record_words, bool log_writes, bool replays)
    : heap_(heap),
      records_(static_cast<std::size_t>(threads)),
      record_words_(record_words),
      log_writes_(log_writes),
      replays_(replays) {}

void BatchRecorder::begin_batch(std::uint32_t tid, OperatorId op_id) {
  records_[tid].op_id = op_id;
  begin_attempt(tid);
}

void BatchRecorder::begin_attempt(std::uint32_t tid) {
  BatchRecord& rec = records_[tid];
  rec.pre.clear();
  rec.read_set.clear();
  rec.write_set.clear();
  rec.read_words.clear();
  rec.write_words.clear();
  rec.foreign = false;
}

void BatchRecorder::note_read(BatchRecord& rec, const void* p) {
  if (!heap_.contains(p)) {
    rec.foreign = true;
    return;
  }
  if (!record_words_) return;
  const std::uint64_t word = heap_.offset_of(p) & ~std::uint64_t{7};
  capture_pre(rec, word);
  if (rec.read_set.insert(word)) rec.read_words.push_back(word);
}

void BatchRecorder::note_write(BatchRecord& rec, const void* p,
                               std::uint32_t len) {
  if (!heap_.contains(p)) {
    rec.foreign = true;
    return;
  }
  const std::uint64_t offset = heap_.offset_of(p);
  if (log_writes_) legit_.emplace_back(offset, len);
  if (!record_words_) return;
  const std::uint64_t word = offset & ~std::uint64_t{7};
  capture_pre(rec, word);
  if (rec.write_set.insert(word)) rec.write_words.push_back(word);
}

void BatchRecorder::capture_pre(BatchRecord& rec, std::uint64_t word) {
  std::uint64_t value = 0;
  if (rec.pre.lookup(word, value)) return;
  rec.pre.insert_or_assign(word, committed_word(word));
}

std::uint64_t BatchRecorder::committed_word(std::uint64_t word) const {
  std::uint64_t value = 0;
  const std::size_t avail =
      std::min<std::size_t>(8, heap_.used_bytes() - word);
  std::memcpy(&value, heap_.addr_of(word), avail);
  return value;
}

}  // namespace aam::core
