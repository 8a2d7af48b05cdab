#pragma once

// The executor hot path: the access types operators run against, the
// concrete executors' templated run_batch, and execute_batch, the one
// dispatch every batch takes.
//
// execute_batch instantiates the operator body once per (executor,
// operator) pair against a non-virtual access type, so every access
// compiles down to direct calls into the DES engine. The auto dispatcher
// routes a batch to one concrete executor first; a --check recorder wraps
// the concrete access type in RecordingAccess and replays through
// ReplayAccess. Checked, auto and fixed batches therefore all run the same
// run_batch bodies.
//
// Operator bodies must be generic over the access type
// (`[](auto& access, std::uint64_t i)`): each is instantiated against every
// access type here, so anything outside their common typed surface fails
// to compile instead of diverging at runtime.

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "core/recorder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::core {

/// The value types of the access surface. Every access class constrains
/// its member templates to exactly these, so an operator that compiles
/// against one compiles against all.
template <typename T>
concept AccessValue = std::same_as<T, std::uint32_t> ||
                      std::same_as<T, std::uint64_t> || std::same_as<T, double>;

/// Accumulator types (fetch_add): the 4-byte case is excluded on purpose.
template <typename T>
concept AccumValue = std::same_as<T, std::uint64_t> || std::same_as<T, double>;

// --------------------------------------------------------------------------
// Mechanism access types.
// --------------------------------------------------------------------------

/// Emission staging shared by the mechanism access classes.
class StagedAccessBase {
 public:
  void emit(std::uint64_t value) { results_->push_back(value); }

 protected:
  explicit StagedAccessBase(std::vector<std::uint64_t>* results)
      : results_(results) {}

 private:
  std::vector<std::uint64_t>* results_;
};

/// Transactional accesses through the DES HTM engine.
class TxnAccess final : public StagedAccessBase {
 public:
  TxnAccess(htm::Txn& tx, std::vector<std::uint64_t>* results)
      : StagedAccessBase(results), tx_(tx) {}

  template <AccessValue T>
  T load(const T& ref) {
    return tx_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    tx_.store(ref, value);
  }
  // Inside a transaction CAS needs no hardware atomic: a load + store pair
  // is atomic by isolation (the §4.2 point that coarse transactions remove
  // fine-grained synchronization from the operator bodies).
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    if (tx_.load(ref) != expect) return false;
    tx_.store(ref, desired);
    return true;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    return tx_.fetch_add(ref, delta);
  }
  bool transactional() const { return true; }

 private:
  htm::Txn& tx_;
};

/// Hardware atomics (CAS/ACC) per guarded update; plain loads/stores.
class AtomicAccess final : public StagedAccessBase {
 public:
  AtomicAccess(htm::ThreadCtx& ctx, std::vector<std::uint64_t>* results)
      : StagedAccessBase(results), ctx_(ctx) {}

  template <AccessValue T>
  T load(const T& ref) {
    return ctx_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    ctx_.store(ref, value);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    return ctx_.cas(ref, expect, desired);
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    return ctx_.fetch_add(ref, delta);
  }
  bool transactional() const { return false; }

 private:
  htm::ThreadCtx& ctx_;
};

/// Striped per-element spinlocks around every guarded update. Within one
/// DES dispatch no other thread runs, so a lock acquired and released in
/// the same next() never actually spins: its cost is the modelled CAS on
/// the lock word (plus line contention).
class FineLockAccess final : public StagedAccessBase {
 public:
  FineLockAccess(htm::ThreadCtx& ctx, const mem::SimHeap& heap,
                 std::span<std::uint32_t> locks,
                 std::vector<std::uint64_t>* results)
      : StagedAccessBase(results), ctx_(ctx), heap_(heap), locks_(locks) {}

  template <AccessValue T>
  T load(const T& ref) {
    return ctx_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    acquire(&ref);
    ctx_.store(ref, value);
    release(&ref);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    acquire(&ref);
    const bool ok = ctx_.load(ref) == expect;
    if (ok) ctx_.store(ref, desired);
    release(&ref);
    return ok;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    acquire(&ref);
    const T old = ctx_.load(ref);
    ctx_.store(ref, static_cast<T>(old + delta));
    release(&ref);
    return old;
  }
  bool transactional() const { return false; }

 private:
  std::uint32_t& lock_of(const void* p) {
    // Hash the heap offset, not the host address: host addresses change
    // run to run (ASLR) and would break bit-reproducibility.
    return locks_[util::mix64(heap_.offset_of(p) >> 2) & (locks_.size() - 1)];
  }
  void acquire(const void* p) {
    std::uint32_t& lock = lock_of(p);
    while (!ctx_.cas(lock, 0u, 1u)) {
    }
  }
  void release(const void* p) { ctx_.store(lock_of(p), 0u); }

  htm::ThreadCtx& ctx_;
  const mem::SimHeap& heap_;
  std::span<std::uint32_t> locks_;
};

/// Plain accesses: correct only under external mutual exclusion (the
/// serial-lock executor holds the global lock around the whole batch).
class PlainAccess final : public StagedAccessBase {
 public:
  PlainAccess(htm::ThreadCtx& ctx, std::vector<std::uint64_t>* results)
      : StagedAccessBase(results), ctx_(ctx) {}

  template <AccessValue T>
  T load(const T& ref) {
    return ctx_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    ctx_.store(ref, value);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    const bool ok = ctx_.load(ref) == expect;
    if (ok) ctx_.store(ref, desired);
    return ok;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    const T old = ctx_.load(ref);
    ctx_.store(ref, static_cast<T>(old + delta));
    return old;
  }
  bool transactional() const { return false; }

 private:
  htm::ThreadCtx& ctx_;
};

/// Software-TM accesses: the batch runs directly on heap memory, counting
/// loads and recording written addresses for the TL2 cost model (the
/// write set drives the commit-time orec locking replayed against the DES
/// machine).
class StmCountedAccess final : public StagedAccessBase {
 public:
  StmCountedAccess(std::vector<std::uint64_t>* results, std::uint64_t& loads,
                   std::vector<const void*>& writes)
      : StagedAccessBase(results), loads_(loads), writes_(writes) {}

  template <AccessValue T>
  T load(const T& ref) {
    ++loads_;
    return ref;
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    writes_.push_back(&ref);
    ref = value;
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    ++loads_;
    if (ref != expect) return false;
    ref = desired;
    writes_.push_back(&ref);
    return true;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    ++loads_;
    writes_.push_back(&ref);
    const T old = ref;
    ref = static_cast<T>(old + delta);
    return old;
  }
  bool transactional() const { return true; }

 private:
  std::uint64_t& loads_;
  std::vector<const void*>& writes_;
};

// --------------------------------------------------------------------------
// Checked access types (--check, see core/recorder.hpp).
// --------------------------------------------------------------------------

/// Forwards every operation to the mechanism's access while logging the
/// touched words into the thread's BatchRecord. Pre-images are captured
/// before the forwarded operation can mutate them.
template <typename Inner>
class RecordingAccess {
 public:
  RecordingAccess(Inner& inner, BatchRecorder& recorder, BatchRecord& rec)
      : inner_(inner), recorder_(recorder), rec_(rec) {
    rec_.transactional = inner.transactional();
  }

  template <AccessValue T>
  T load(const T& ref) {
    recorder_.note_read(rec_, &ref);
    return inner_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    recorder_.note_write(rec_, &ref, sizeof(T));
    inner_.store(ref, value);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    recorder_.note_read(rec_, &ref);
    const bool ok = inner_.cas(ref, expect, desired);
    if (ok) recorder_.note_write(rec_, &ref, sizeof(T));
    return ok;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    recorder_.note_read(rec_, &ref);
    const T old = inner_.fetch_add(ref, delta);
    recorder_.note_write(rec_, &ref, sizeof(T));
    return old;
  }
  bool transactional() const { return inner_.transactional(); }
  void emit(std::uint64_t value) { inner_.emit(value); }

 private:
  Inner& inner_;
  BatchRecorder& recorder_;
  BatchRecord& rec_;
};

/// Serial re-execution of a committed batch against its pre-images: reads
/// hit the replay overlay first, then the recorded pre-image, then (for
/// words the real execution never touched — only reachable once control
/// flow has already diverged) committed memory; writes land in the overlay
/// only. Accesses off the SimHeap read through and drop writes — host
/// memory is outside transactional isolation and is not replayed.
/// Construction clears the recorder's overlay and replay emissions.
class ReplayAccess {
 public:
  ReplayAccess(BatchRecorder& recorder, std::uint32_t tid)
      : recorder_(recorder), rec_(recorder.records_[tid]) {
    recorder_.overlay_.clear();
    recorder_.replay_results_.clear();
  }

  template <AccessValue T>
  T load(const T& ref) {
    if (!recorder_.heap_.contains(&ref)) return ref;
    const std::uint64_t offset = recorder_.heap_.offset_of(&ref);
    const std::uint64_t word = word_value(offset & ~std::uint64_t{7});
    T out;
    std::memcpy(&out, reinterpret_cast<const char*>(&word) + (offset & 7u),
                sizeof(T));
    return out;
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    if (!recorder_.heap_.contains(&ref)) return;
    const std::uint64_t offset = recorder_.heap_.offset_of(&ref);
    const std::uint64_t word_off = offset & ~std::uint64_t{7};
    std::uint64_t word = word_value(word_off);
    std::memcpy(reinterpret_cast<char*>(&word) + (offset & 7u), &value,
                sizeof(T));
    recorder_.overlay_.insert_or_assign(word_off, word);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    if (load(ref) != expect) return false;
    store(ref, desired);
    return true;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    const T old = load(ref);
    store(ref, static_cast<T>(old + delta));
    return old;
  }
  bool transactional() const { return rec_.transactional; }
  void emit(std::uint64_t value) { recorder_.replay_results_.push_back(value); }

 private:
  std::uint64_t word_value(std::uint64_t word) {
    std::uint64_t value = 0;
    if (recorder_.overlay_.lookup(word, value)) return value;
    if (rec_.pre.lookup(word, value)) return value;
    return recorder_.committed_word(word);
  }

  BatchRecorder& recorder_;
  const BatchRecord& rec_;
};

// --------------------------------------------------------------------------
// Concrete executors: one templated run_batch each.
// --------------------------------------------------------------------------

/// Per-thread emission staging shared by all executors.
class StagedExecutor : public ActivityExecutor {
 protected:
  StagedExecutor(htm::DesMachine& machine, Mechanism mechanism,
                 const ExecConfig& exec)
      : ActivityExecutor(mechanism, exec),
        staging_(static_cast<std::size_t>(machine.num_threads())) {}

  std::vector<std::uint64_t>& staging(htm::ThreadCtx& ctx) {
    return staging_[ctx.thread_id()];
  }

 private:
  std::vector<std::vector<std::uint64_t>> staging_;
};

class HtmCoarsenedExecutor final : public StagedExecutor {
 public:
  HtmCoarsenedExecutor(htm::DesMachine& machine, const ExecConfig& exec)
      : StagedExecutor(machine, Mechanism::kHtmCoarsened, exec) {}

  int preferred_batch() const override {
    return adaptive_ ? adaptive_->batch() : batch_;
  }

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, Op op,
                 BatchDone done = {}) {
    auto& stage = staging(ctx);
    if (count == 0) {
      stage.clear();
      if (done) done(ctx, stage);
      return;
    }
    // One coarse activity: `count` operators in a single transaction
    // (§4.2, Listing 8). The body may re-execute on retries, so emissions
    // restage from scratch each attempt; `done` sees the committed set.
    // The operator is captured by value: the staged body outlives the
    // caller's next() frame.
    ctx.stage_transaction(
        [&stage, op = std::move(op), count](htm::Txn& tx) {
          stage.clear();
          TxnAccess access(tx, &stage);
          for (std::uint64_t i = 0; i < count; ++i) op(access, i);
        },
        [this, &stage, done = std::move(done)](htm::ThreadCtx& done_ctx,
                                               const htm::TxnOutcome& outcome) {
          if (adaptive_ != nullptr) adaptive_->record(outcome);
          if (outcome_hook_) outcome_hook_(done_ctx, outcome);
          if (done) done(done_ctx, stage);
          stage.clear();
        });
  }
};

class AtomicOpsExecutor final : public StagedExecutor {
 public:
  AtomicOpsExecutor(htm::DesMachine& machine, const ExecConfig& exec)
      : StagedExecutor(machine, Mechanism::kAtomicOps, exec) {}

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, const Op& op,
                 BatchDone done = {}) {
    auto& stage = staging(ctx);
    stage.clear();
    AtomicAccess access(ctx, &stage);
    for (std::uint64_t i = 0; i < count; ++i) op(access, i);
    if (done) done(ctx, stage);
    stage.clear();
  }
};

class FineLocksExecutor final : public StagedExecutor {
 public:
  FineLocksExecutor(htm::DesMachine& machine, const ExecConfig& exec,
                    std::uint32_t stripes)
      : StagedExecutor(machine, Mechanism::kFineLocks, exec),
        heap_(machine.heap()),
        locks_(machine.heap().alloc<std::uint32_t>(std::bit_ceil(stripes),
                                                   "fine-locks.stripes")) {
    for (auto& lock : locks_) lock = 0;
  }

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, const Op& op,
                 BatchDone done = {}) {
    auto& stage = staging(ctx);
    stage.clear();
    FineLockAccess access(ctx, heap_, locks_, &stage);
    for (std::uint64_t i = 0; i < count; ++i) op(access, i);
    if (done) done(ctx, stage);
    stage.clear();
  }

 private:
  const mem::SimHeap& heap_;
  std::span<std::uint32_t> locks_;
};

class SerialLockExecutor final : public StagedExecutor {
 public:
  SerialLockExecutor(htm::DesMachine& machine, const ExecConfig& exec)
      : StagedExecutor(machine, Mechanism::kSerialLock, exec),
        lock_(machine.heap().alloc<std::uint32_t>(1, "serial-lock.word")) {
    lock_[0] = 0;
  }

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, const Op& op,
                 BatchDone done = {}) {
    // True virtual-time mutual exclusion: a thread arriving while the lock
    // is "held" (free_at_ in its future) first waits it out, then runs the
    // whole batch under the lock. Each DES dispatch is sequential, so the
    // CAS always succeeds in program terms; waiting + the hot-line CAS
    // model the §4.1 coarse-lock serialization cost.
    if (free_at_ > ctx.now()) ctx.compute(free_at_ - ctx.now());
    while (!ctx.cas(lock_[0], 0u, 1u)) {
    }
    auto& stage = staging(ctx);
    stage.clear();
    PlainAccess access(ctx, &stage);
    for (std::uint64_t i = 0; i < count; ++i) op(access, i);
    ctx.store(lock_[0], 0u);
    free_at_ = ctx.now();
    if (done) done(ctx, stage);
    stage.clear();
  }

  // free_at_ is host-side virtual-time state (the lock word itself lives
  // on the heap and restores with the heap image).
  void durable(util::BlobIo& io) override {
    ActivityExecutor::durable(io);
    io(free_at_);
  }

 private:
  std::span<std::uint32_t> lock_;
  double free_at_ = 0;
};

class StmExecutor final : public StagedExecutor {
 public:
  StmExecutor(htm::DesMachine& machine, const ExecConfig& exec,
              std::uint32_t stripes)
      : StagedExecutor(machine, Mechanism::kStm, exec),
        costs_(machine.config().atomics),
        heap_(machine.heap()),
        orecs_(machine.heap().alloc<std::uint32_t>(std::bit_ceil(stripes),
                                                   "stm.orecs")),
        clock_(machine.heap().alloc<std::uint32_t>(1, "stm.clock")),
        writes_(static_cast<std::size_t>(machine.num_threads())) {
    for (auto& orec : orecs_) orec = 0;
    clock_[0] = 0;
  }

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, const Op& op,
                 BatchDone done = {}) {
    auto& stage = staging(ctx);
    auto& writes = writes_[ctx.thread_id()];
    std::uint64_t loads = 0;
    // The batch runs directly on heap memory: within one DES dispatch it
    // is alone, so a software transaction would commit first try and
    // publish exactly these values. Its cost follows a first-order TL2
    // model:
    //  * read: orec load + value load, revalidated at commit (3 loads),
    //    plus per-access bookkeeping (hashing, set lookups, version
    //    compares) — charged as a multiple of the cached load cost, the
    //    model's proxy for core speed;
    //  * write: buffered (read-set-style bookkeeping during the body),
    //    then at commit the orec lock CAS, write-back store, and orec
    //    release store. The lock/release pair is replayed below as REAL
    //    modeled atomics on a striped orec table, so it queues at the
    //    machine's atomic unit exactly like the plain-atomics executor
    //    does (on BGQ that is the machine-wide L2 gap — the serialization
    //    a compute-only charge would silently bypass);
    //  * a global version-clock load at begin and CAS at commit.
    stage.clear();
    writes.clear();
    StmCountedAccess access(&stage, loads, writes);
    for (std::uint64_t i = 0; i < count; ++i) op(access, i);
    (void)ctx.load(clock_[0]);  // begin: sample the global version clock
    const double bookkeeping_ns = 4.0 * costs_.load_ns;
    const double access_ns =
        static_cast<double>(loads) * (3.0 * costs_.load_ns + bookkeeping_ns) +
        static_cast<double>(writes.size()) * (costs_.load_ns + bookkeeping_ns);
    ctx.compute(access_ns);
    for (const void* addr : writes) {
      std::uint32_t& orec = orec_of(addr);
      while (!ctx.cas(orec, 0u, 1u)) {
      }
      ctx.compute(costs_.store_ns);  // write back the buffered value
      ctx.store(orec, 0u);
    }
    if (!writes.empty()) {
      const std::uint32_t version = ctx.load(clock_[0]);
      ctx.cas(clock_[0], version, version + 1);
    }
    if (done) done(ctx, stage);
    stage.clear();
  }

 private:
  std::uint32_t& orec_of(const void* p) {
    // Heap offset, not host address: deterministic across runs (no ASLR).
    return orecs_[util::mix64(heap_.offset_of(p) >> 2) & (orecs_.size() - 1)];
  }

  const model::AtomicCosts& costs_;
  const mem::SimHeap& heap_;
  std::span<std::uint32_t> orecs_;
  std::span<std::uint32_t> clock_;
  std::vector<std::vector<const void*>> writes_;
};

// --------------------------------------------------------------------------
// Dispatch.
// --------------------------------------------------------------------------

/// Runs the batch on `executor`, the concrete class for `mechanism`.
template <typename Op>
void run_concrete(ActivityExecutor& executor, Mechanism mechanism,
                  htm::ThreadCtx& ctx, std::uint64_t count, Op&& op,
                  ActivityExecutor::BatchDone done) {
  switch (mechanism) {
    case Mechanism::kHtmCoarsened:
      static_cast<HtmCoarsenedExecutor&>(executor).run_batch(
          ctx, count, std::forward<Op>(op), std::move(done));
      return;
    case Mechanism::kAtomicOps:
      static_cast<AtomicOpsExecutor&>(executor).run_batch(
          ctx, count, std::forward<Op>(op), std::move(done));
      return;
    case Mechanism::kFineLocks:
      static_cast<FineLocksExecutor&>(executor).run_batch(
          ctx, count, std::forward<Op>(op), std::move(done));
      return;
    case Mechanism::kSerialLock:
      static_cast<SerialLockExecutor&>(executor).run_batch(
          ctx, count, std::forward<Op>(op), std::move(done));
      return;
    case Mechanism::kStm:
      static_cast<StmExecutor&>(executor).run_batch(
          ctx, count, std::forward<Op>(op), std::move(done));
      return;
  }
}

/// Applies op(access, i) for i in [0, count) under the executor's
/// mechanism — for the auto dispatcher, under the mechanism it routes this
/// batch to. Transactional executors stage the batch: the call must then
/// be the last action of the current Worker::next(). Non-transactional
/// executors apply synchronously, and `done` (if any) fires before
/// execute_batch returns. Captured references must stay valid until
/// `done` fires. `op_id` names the operator body for auto routing and the
/// check audits; the mechanisms never read it.
template <typename Op>
void execute_batch(ActivityExecutor& executor, htm::ThreadCtx& ctx,
                   std::uint64_t count, Op&& op,
                   ActivityExecutor::BatchDone done = {},
                   OperatorId op_id = OperatorId::kUnknown) {
  ActivityExecutor& target =
      executor.mechanism().has_value()
          ? executor
          : static_cast<AutoExecutor&>(executor).route(ctx, count, op_id);
  const Mechanism mechanism = *target.mechanism();
  BatchRecorder* const recorder = target.recorder();
  if (recorder == nullptr) {
    run_concrete(target, mechanism, ctx, count, std::forward<Op>(op),
                 std::move(done));
    return;
  }
  // Checked batch. One shared copy of the operator: the recording wrapper
  // runs it during (possibly re-executed) attempts, the serial replay
  // after commit. Recording restarts at item 0 of every attempt, so the
  // done-time record describes exactly the committed attempt.
  const std::uint32_t tid = ctx.thread_id();
  recorder->begin_batch(tid, op_id);
  auto body = std::make_shared<const std::decay_t<Op>>(std::forward<Op>(op));
  run_concrete(
      target, mechanism, ctx, count,
      [recorder, tid, body](auto& access, std::uint64_t i) {
        if (i == 0) recorder->begin_attempt(tid);
        RecordingAccess recording(access, *recorder, recorder->record(tid));
        (*body)(recording, i);
      },
      [recorder, tid, mechanism, count, body, done = std::move(done)](
          htm::ThreadCtx& done_ctx, std::span<const std::uint64_t> results) {
        if (recorder->replays() && count > 0) {
          ReplayAccess replay(*recorder, tid);
          for (std::uint64_t i = 0; i < count; ++i) (*body)(replay, i);
        }
        recorder->on_batch_done(tid, mechanism, count, results);
        if (done) done(done_ctx, results);
      });
}

}  // namespace aam::core
