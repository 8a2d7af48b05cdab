#pragma once

// Devirtualized executor hot path (two-tier dispatch, see DESIGN.md).
//
// The seam in executor.hpp is intentionally type-erased: a virtual Access
// surface plus a std::function ItemOp is what lets the check:: decorators
// interpose on every access. But that same erasure costs two indirect
// calls per simulated memory access on the innermost loop of the whole
// system. This header provides the fast tier: non-virtual Access
// implementations and the concrete executors' `run_batch<Op>` templates,
// which instantiate the operator body once per (executor, operator) pair
// so every access compiles down to direct calls into the DES engine.
//
// Dispatch rule (execute_batch below): an executor whose devirtualized()
// is true IS one of the concrete classes here and is dispatched by a
// static_cast on mechanism(); anything else (currently the check::
// decorators) takes the virtual execute() path, which funnels the same
// run_batch bodies through the ErasedAccess/ErasedItemOp adapters — one
// code path to test, two call costs.
//
// Operator bodies must therefore be generic over the access type
// (`[](auto& access, std::uint64_t i)`), never `core::Access&`-typed:
// both tiers instantiate the body, so anything outside the common typed
// surface fails to compile at the seam instead of diverging at runtime.

#include <bit>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::core {

/// The value types of the Access surface. The fast-path classes constrain
/// their member templates to exactly these so they cannot accept more
/// types than the virtual seam (which would compile under one tier only).
template <typename T>
concept AccessValue = std::same_as<T, std::uint32_t> ||
                      std::same_as<T, std::uint64_t> || std::same_as<T, double>;

/// Accumulator types (fetch_add): the 4-byte case is excluded on purpose,
/// matching the virtual Access overload set.
template <typename T>
concept AccumValue = std::same_as<T, std::uint64_t> || std::same_as<T, double>;

// --------------------------------------------------------------------------
// Non-virtual Access implementations (fast tier).
//
// Same semantics, costs, and emission staging as the virtual adapters the
// executors used before devirtualization; kept structurally parallel to
// Access so ErasedAccess can forward one-to-one.
// --------------------------------------------------------------------------

/// Emission staging shared by the fast-path access classes.
class FastAccessBase {
 public:
  void emit(std::uint64_t value) { results_->push_back(value); }
  std::vector<std::uint64_t>* results() const { return results_; }

 protected:
  explicit FastAccessBase(std::vector<std::uint64_t>* results)
      : results_(results) {}

 private:
  std::vector<std::uint64_t>* results_;
};

/// Transactional accesses through the DES HTM engine.
class TxnAccess final : public FastAccessBase {
 public:
  TxnAccess(htm::Txn& tx, std::vector<std::uint64_t>* results)
      : FastAccessBase(results), tx_(tx) {}

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
class AtomicAccess final : public FastAccessBase {
 public:
  AtomicAccess(htm::ThreadCtx& ctx, std::vector<std::uint64_t>* results)
      : FastAccessBase(results), ctx_(ctx) {}

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
class FineLockAccess final : public FastAccessBase {
 public:
  FineLockAccess(htm::ThreadCtx& ctx, const mem::SimHeap& heap,
                 std::span<std::uint32_t> locks,
                 std::vector<std::uint64_t>* results)
      : FastAccessBase(results), ctx_(ctx), heap_(heap), locks_(locks) {}

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
class PlainAccess final : public FastAccessBase {
 public:
  PlainAccess(htm::ThreadCtx& ctx, std::vector<std::uint64_t>* results)
      : FastAccessBase(results), ctx_(ctx) {}

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

/// Software-TM accesses, counting loads and recording written addresses
/// for the TL2 cost model (the write set drives the commit-time orec
/// locking replayed against the DES machine).
class StmCountedAccess final : public FastAccessBase {
 public:
  StmCountedAccess(htm::StmTxn& tx, std::vector<std::uint64_t>* results,
                   std::uint64_t& loads, std::vector<const void*>& writes)
      : FastAccessBase(results), tx_(tx), loads_(loads), writes_(writes) {}

  template <AccessValue T>
  T load(const T& ref) {
    ++loads_;
    return tx_.load(ref);
  }
  template <AccessValue T>
  void store(T& ref, T value) {
    writes_.push_back(&ref);
    tx_.store(ref, value);
  }
  template <AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    ++loads_;
    if (tx_.load(ref) != expect) return false;
    tx_.store(ref, desired);
    writes_.push_back(&ref);
    return true;
  }
  template <AccumValue T>
  T fetch_add(T& ref, T delta) {
    ++loads_;
    writes_.push_back(&ref);
    return tx_.fetch_add(ref, delta);
  }
  bool transactional() const { return true; }

 private:
  htm::StmTxn& tx_;
  std::uint64_t& loads_;
  std::vector<const void*>& writes_;
};

// --------------------------------------------------------------------------
// Type-erasure adapters: the virtual execute() path reuses the templated
// run_batch bodies through these, so both tiers run identical logic.
// --------------------------------------------------------------------------

/// Presents a fast-path access implementation as a virtual core::Access.
/// Shares the impl's staging vector, so the inherited emit() lands
/// emissions in the same per-attempt buffer the executor manages.
template <typename Impl>
class ErasedAccess final : public Access {
 public:
  explicit ErasedAccess(Impl& impl) : Access(impl.results()), impl_(impl) {}

  std::uint32_t load(const std::uint32_t& ref) override { return impl_.load(ref); }
  std::uint64_t load(const std::uint64_t& ref) override { return impl_.load(ref); }
  double load(const double& ref) override { return impl_.load(ref); }
  void store(std::uint32_t& ref, std::uint32_t value) override {
    impl_.store(ref, value);
  }
  void store(std::uint64_t& ref, std::uint64_t value) override {
    impl_.store(ref, value);
  }
  void store(double& ref, double value) override { impl_.store(ref, value); }
  bool cas(std::uint32_t& ref, std::uint32_t expect,
           std::uint32_t desired) override {
    return impl_.cas(ref, expect, desired);
  }
  bool cas(std::uint64_t& ref, std::uint64_t expect,
           std::uint64_t desired) override {
    return impl_.cas(ref, expect, desired);
  }
  bool cas(double& ref, double expect, double desired) override {
    return impl_.cas(ref, expect, desired);
  }
  std::uint64_t fetch_add(std::uint64_t& ref, std::uint64_t delta) override {
    return impl_.fetch_add(ref, delta);
  }
  double fetch_add(double& ref, double delta) override {
    return impl_.fetch_add(ref, delta);
  }
  bool transactional() const override { return impl_.transactional(); }

 private:
  Impl& impl_;
};

/// Wraps a type-erased ItemOp as a generic operator body so the virtual
/// execute() entry points can call run_batch. Owns a copy of the ItemOp:
/// the HTM executor stages the body past the caller's stack frame.
class ErasedItemOp {
 public:
  explicit ErasedItemOp(ActivityExecutor::ItemOp op) : op_(std::move(op)) {}

  template <typename Impl>
  void operator()(Impl& impl, std::uint64_t i) const {
    ErasedAccess<Impl> access(impl);
    op_(access, i);
  }

 private:
  ActivityExecutor::ItemOp op_;
};

// --------------------------------------------------------------------------
// Concrete executors. Each pairs a templated run_batch (fast tier) with a
// virtual execute() that routes the same body through ErasedItemOp.
// --------------------------------------------------------------------------

/// Per-thread emission staging shared by all executors.
class StagedExecutor : public ActivityExecutor {
 public:
  bool devirtualized() const override { return true; }

 protected:
  StagedExecutor(htm::DesMachine& machine, int batch)
      : ActivityExecutor(batch),
        staging_(static_cast<std::size_t>(machine.num_threads())) {}

  std::vector<std::uint64_t>& staging(htm::ThreadCtx& ctx) {
    return staging_[ctx.thread_id()];
  }

 private:
  std::vector<std::vector<std::uint64_t>> staging_;
};

class HtmCoarsenedExecutor final : public StagedExecutor {
 public:
  HtmCoarsenedExecutor(htm::DesMachine& machine, int batch)
      : StagedExecutor(machine, batch) {}

  Mechanism mechanism() const override { return Mechanism::kHtmCoarsened; }

  int preferred_batch() const override {
    return adaptive_ ? adaptive_->batch() : batch_;
  }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               OperatorId /*op_id*/ = OperatorId::kUnknown) override {
    run_batch(ctx, count, ErasedItemOp(op), std::move(done));
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
  AtomicOpsExecutor(htm::DesMachine& machine, int batch)
      : StagedExecutor(machine, batch) {}

  Mechanism mechanism() const override { return Mechanism::kAtomicOps; }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               OperatorId /*op_id*/ = OperatorId::kUnknown) override {
    run_batch(ctx, count, ErasedItemOp(op), std::move(done));
  }

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
  FineLocksExecutor(htm::DesMachine& machine, int batch, std::uint32_t stripes)
      : StagedExecutor(machine, batch),
        heap_(machine.heap()),
        locks_(machine.heap().alloc<std::uint32_t>(std::bit_ceil(stripes),
                                                   "fine-locks.stripes")) {
    for (auto& lock : locks_) lock = 0;
  }

  Mechanism mechanism() const override { return Mechanism::kFineLocks; }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               OperatorId /*op_id*/ = OperatorId::kUnknown) override {
    run_batch(ctx, count, ErasedItemOp(op), std::move(done));
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
  SerialLockExecutor(htm::DesMachine& machine, int batch)
      : StagedExecutor(machine, batch),
        lock_(machine.heap().alloc<std::uint32_t>(1, "serial-lock.word")) {
    lock_[0] = 0;
  }

  Mechanism mechanism() const override { return Mechanism::kSerialLock; }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               OperatorId /*op_id*/ = OperatorId::kUnknown) override {
    run_batch(ctx, count, ErasedItemOp(op), std::move(done));
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
  void save_state(util::BlobWriter& w) const override {
    ActivityExecutor::save_state(w);
    w.put<double>(free_at_);
  }
  void restore_state(util::BlobReader& r) override {
    ActivityExecutor::restore_state(r);
    free_at_ = r.get<double>();
  }

 private:
  std::span<std::uint32_t> lock_;
  double free_at_ = 0;
};

class StmExecutor final : public StagedExecutor {
 public:
  StmExecutor(htm::DesMachine& machine, int batch, std::uint32_t stripes)
      : StagedExecutor(machine, batch),
        costs_(machine.config().atomics),
        heap_(machine.heap()),
        orecs_(machine.heap().alloc<std::uint32_t>(std::bit_ceil(stripes),
                                                   "stm.orecs")),
        clock_(machine.heap().alloc<std::uint32_t>(1, "stm.clock")),
        writes_(static_cast<std::size_t>(machine.num_threads())) {
    for (auto& orec : orecs_) orec = 0;
    clock_[0] = 0;
  }

  Mechanism mechanism() const override { return Mechanism::kStm; }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               OperatorId /*op_id*/ = OperatorId::kUnknown) override {
    run_batch(ctx, count, ErasedItemOp(op), std::move(done));
  }

  template <typename Op>
  void run_batch(htm::ThreadCtx& ctx, std::uint64_t count, const Op& op,
                 BatchDone done = {}) {
    auto& stage = staging(ctx);
    auto& writes = writes_[ctx.thread_id()];
    std::uint64_t loads = 0;
    // The software transaction runs for real against heap memory; within
    // one DES dispatch it is uncontended and commits first try. Its cost
    // follows a first-order TL2 model:
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
    engine_.atomically(txn_, [&](htm::StmTxn& tx) {
      stage.clear();
      writes.clear();
      loads = 0;
      StmCountedAccess access(tx, &stage, loads, writes);
      for (std::uint64_t i = 0; i < count; ++i) op(access, i);
    });
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
  htm::StmEngine engine_;
  /// The transaction context of every batch, cleared at each begin. The
  /// software transaction runs synchronously inside one DES dispatch, so
  /// the simulated threads' transactions never overlap on the host and
  /// one context serves them all; per-thread contexts would each keep
  /// their grown buffers alive.
  htm::StmTxn txn_{engine_};
};

// --------------------------------------------------------------------------
// Dispatch.
// --------------------------------------------------------------------------

/// Applies op(access, i) for i in [0, count) under the executor's
/// mechanism, picking the fast tier when the executor is one of the
/// concrete classes above (devirtualized() == true) and falling back to
/// the virtual execute() — instantiating `op` against core::Access — for
/// decorated executors. Semantics match ActivityExecutor::execute.
template <typename Op>
void execute_batch(ActivityExecutor& executor, htm::ThreadCtx& ctx,
                   std::uint64_t count, Op&& op,
                   ActivityExecutor::BatchDone done = {},
                   OperatorId op_id = OperatorId::kUnknown) {
  if (executor.devirtualized()) {
    switch (executor.mechanism()) {
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
  executor.execute(ctx, count,
                   ActivityExecutor::ItemOp(std::forward<Op>(op)),
                   std::move(done), op_id);
}

}  // namespace aam::core
