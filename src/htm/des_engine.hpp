#pragma once

// Discrete-event HTM machine.
//
// DesMachine simulates one machine configuration (§5.1) with T logical
// threads sharing a SimHeap. Each thread runs a Worker; the engine drives
// all threads in virtual-time order through a deterministic event queue.
//
// Transactions follow an optimistic two-phase protocol that reproduces the
// dynamics of real HTM under the lazy-subscription model:
//
//   * at its start event, a transaction executes its body speculatively
//     against the committed memory state of that instant, buffering writes
//     and accumulating cost from the machine's HTM cost table;
//   * a commit event is scheduled at start + duration; at that event the
//     footprint is validated against per-line commit timestamps — any line
//     committed by an overlapping transaction/atomic aborts it (first
//     committer wins);
//   * aborted transactions retry per the variant policy: RTM retries in
//     software with exponential backoff, HLE serializes after the first
//     abort, BG/Q auto-retries up to max_rollbacks then serializes.
//
// Capacity aborts fire during the speculative run when the footprint
// exceeds the variant's cache geometry; "other" aborts are injected with a
// duration-proportional Poisson model. Serialized (fallback) execution
// takes a global elision lock that every speculative transaction subscribes
// to, so overlapping speculation aborts exactly as on real hardware.
//
// Atomics (CAS/ACC) execute at their linearization instant with a
// cache-line contention model: a hot line delays the next atomic from
// another thread by the line-transfer time, which reproduces the Fig 3
// latency growth of contended CAS/ACC with T.

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "htm/abort.hpp"
#include "htm/resilience.hpp"
#include "mem/footprint.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "sim/event_queue.hpp"
#include "sim/schedule.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::htm {

class DesMachine;
class ThreadCtx;

/// A transactional execution context handed to activity bodies. All data
/// accessed through it must live on the machine's SimHeap.
class Txn {
 public:
  /// Transactional load of a trivially-copyable value of at most 8 bytes.
  template <typename T>
  T load(const T& ref) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    std::uint64_t word = load_word(reinterpret_cast<std::uintptr_t>(&ref));
    T out;
    const std::size_t off = reinterpret_cast<std::uintptr_t>(&ref) & 7u;
    std::memcpy(&out, reinterpret_cast<const char*>(&word) + off, sizeof(T));
    return out;
  }

  /// Transactional store (buffered until commit).
  template <typename T>
  void store(T& ref, T value) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&ref);
    const std::uint64_t offset = checked_offset(addr);
    // Fetch the containing word without charging a transactional read:
    // the cost of a store already covers bringing the line into the buffer.
    std::uint64_t word = current_word(offset, addr);
    const std::size_t off = addr & 7u;
    std::memcpy(reinterpret_cast<char*>(&word) + off, &value, sizeof(T));
    store_word(offset, addr, word);
  }

  /// Read-modify-write convenience (costs one load + one store).
  template <typename T>
  T fetch_add(T& ref, T delta) {
    const T old = load(ref);
    store(ref, static_cast<T>(old + delta));
    return old;
  }

  /// Explicit abort: throws TxAbort; the retry policy applies as usual.
  [[noreturn]] void abort();

  /// True when running on the serialized (irrevocable) fallback path.
  bool serialized() const { return serialized_; }

  /// Virtual time at which this attempt began.
  double start_time() const { return start_; }

 private:
  friend class DesMachine;
  Txn() = default;

  // Defined inline at the bottom of this header (they need DesMachine):
  // they run once per modelled transactional access.
  /// Heap offset of `addr`; aborts when the address is off-heap.
  std::uint64_t checked_offset(std::uintptr_t addr) const;
  std::uint64_t load_word(std::uintptr_t addr);
  /// The word containing `addr` as this attempt sees it (own buffered
  /// write, else committed memory), with no footprint or cost.
  std::uint64_t current_word(std::uint64_t offset, std::uintptr_t addr) const;
  void store_word(std::uint64_t offset, std::uintptr_t addr,
                  std::uint64_t word);

  DesMachine* machine_ = nullptr;
  std::uint32_t tid_ = 0;
  double start_ = 0;
  bool serialized_ = false;
};

using TxnBody = std::function<void(Txn&)>;
using TxnDone = std::function<void(ThreadCtx&, const TxnOutcome&)>;

/// Per-thread non-transactional context: plain/atomic memory operations
/// with modelled costs, timing, RNG, and transaction staging.
class ThreadCtx {
 public:
  double now() const { return clock_; }
  std::uint32_t thread_id() const { return tid_; }
  util::Rng& rng() { return rng_; }
  DesMachine& machine() { return *machine_; }

  /// Plain load with modelled cost (no synchronization).
  template <typename T>
  T load(const T& ref) {
    charge_load();
    return ref;
  }

  /// Plain store with modelled cost; bumps the line version so overlapping
  /// transactions observe the write.
  template <typename T>
  void store(T& ref, T value) {
    charge_store(reinterpret_cast<const void*>(&ref), sizeof(T));
    ref = value;
  }

  /// Advance this thread's clock by `cost_ns` of local computation.
  void compute(double cost_ns) { clock_ += cost_ns; }

  /// Atomic compare-and-swap (§2.3) with the contention model.
  template <typename T>
  bool cas(T& target, T expect, T desired) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    begin_atomic(&target, /*is_cas=*/true);
    const bool ok = target == expect;
    if (ok) {
      target = desired;
      commit_atomic_write(&target, sizeof(T));
    }
    return ok;
  }

  /// Atomic fetch-and-add / accumulate (§2.3).
  template <typename T>
  T fetch_add(T& target, T delta) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    begin_atomic(&target, /*is_cas=*/false);
    const T old = target;
    target = static_cast<T>(old + delta);
    commit_atomic_write(&target, sizeof(T));
    return old;
  }

  /// Stage a transactional activity. Must be the last action of the
  /// current Worker::next() call; the body may run several times (retries)
  /// and `done` fires once the activity completes (committed/serialized).
  void stage_transaction(TxnBody body, TxnDone done = {});

  /// True if a transaction has been staged in the current next() call.
  bool has_staged() const { return staged_; }

 private:
  friend class DesMachine;
  void charge_load();
  void charge_store(const void* p, std::size_t len);
  void begin_atomic(const void* p, bool is_cas);
  void commit_atomic_write(const void* p, std::size_t len);

  DesMachine* machine_ = nullptr;
  std::uint32_t tid_ = 0;
  double clock_ = 0;
  util::Rng rng_;
  bool staged_ = false;
  TxnBody staged_body_;
  TxnDone staged_done_;
};

/// Work source for one logical thread.
class Worker {
 public:
  virtual ~Worker() = default;
  /// Perform the thread's next unit of work through `ctx` (plain/atomic
  /// ops synchronously, or stage one transaction). Return false to park
  /// the thread; it can be re-activated via DesMachine::wake().
  virtual bool next(ThreadCtx& ctx) = 0;
};

/// Called when every thread is parked and no events remain. Return true if
/// new work was injected (threads woken) and the simulation should go on.
using QuiescenceHook = std::function<bool(DesMachine&)>;

class DesMachine {
 public:
  /// `kind` selects the HTM variant used for all staged transactions.
  /// `num_domains` partitions the threads into serialization domains (one
  /// per simulated node): each domain has its own elision/fallback lock,
  /// matching per-node HTM fallback on a cluster. Threads are assigned to
  /// domains in contiguous blocks of num_threads/num_domains.
  DesMachine(const model::MachineConfig& config, model::HtmKind kind,
             int num_threads, mem::SimHeap& heap, std::uint64_t seed = 1,
             int num_domains = 1);
  ~DesMachine();

  DesMachine(const DesMachine&) = delete;
  DesMachine& operator=(const DesMachine&) = delete;

  /// Assign the worker for a thread (not owned; must outlive run()).
  void set_worker(std::uint32_t tid, Worker* worker);
  void set_quiescence_hook(QuiescenceHook hook) { quiescence_ = std::move(hook); }

  /// Drive the simulation until global quiescence.
  void run();

  // --- horizon-bounded stepping (parallel DES backend) ---------------------
  //
  // An external driver (sim::WindowedCoSim) can run the machine as one
  // shard of a conservative co-simulation: begin_external_run() performs
  // run()'s entry work (observer notification, progress stamp, waking all
  // workers), then repeated step(h) calls drain events up to each safe
  // horizon h. run() itself is implemented on top of the same primitives,
  // so the sequential and windowed paths dispatch identical event
  // sequences.

  /// run()'s entry protocol without the drain loop.
  void begin_external_run();

  /// Dispatch every pending event with time <= `horizon` (in the usual
  /// deterministic order). Returns true if events remain beyond the
  /// horizon. Does NOT invoke the quiescence hook — the external driver
  /// owns the decision to inject more work.
  bool step(double horizon);

  /// True when the event queue is non-empty.
  bool has_pending_events() const { return !queue_.empty(); }
  /// Earliest pending event time; only valid when has_pending_events().
  double next_event_time() const { return queue_.peek_time(); }

  /// Binds the machine's event queue to the shard that owns it (see
  /// sim::EventQueue::bind_shard): every subsequent schedule/dispatch must
  /// come from that shard's job.
  void bind_shard(sim::ShardId shard) { queue_.bind_shard(shard); }

  // --- externally scheduled execution (model checker; sim/schedule.hpp) ----
  //
  // Instead of draining events in (time, seq) order, expose every pending
  // event — the frontier of schedulable thread decision points — to a
  // ScheduleController and dispatch whichever it picks. Global virtual
  // time then only tracks the maximum dispatched timestamp (per-thread
  // event chains stay monotone on their own), so cost accounting is
  // schedule-dependent; the mc oracles are value-based and ignore time.
  // run()/step() never take this path: uncontrolled runs dispatch
  // bit-identical event sequences with or without this seam.

  /// Drives the simulation to quiescence (or until the controller returns
  /// kStopRun) with `controller` picking each dispatch. Not reentrant.
  void run_controlled(sim::ScheduleController& controller);

  /// True while run_controlled() is driving the machine.
  bool controlled() const { return controlled_; }

  /// Honest first-committer-wins validation of `tid`'s in-flight
  /// speculative transaction, without side effects: true when some unit
  /// of its footprint was committed after the attempt started. The mc
  /// zombie-commit oracle compares this against what the engine (possibly
  /// carrying a seeded bug) actually does at the commit event.
  bool commit_would_conflict(std::uint32_t tid) const;

  /// Deliberately planted engine defects for mutation testing of the
  /// model checker (tests/mc_test.cpp). kNone (the default) is the
  /// production engine: no seeded branch is ever taken.
  enum class SeededBug : std::uint8_t {
    kNone,
    /// Commit validation skips the read set: transactions whose reads
    /// were overwritten mid-flight commit anyway (lost serializability,
    /// zombie commits).
    kSkipReadValidation,
  };
  void set_seeded_bug(SeededBug bug) { seeded_bug_ = bug; }
  SeededBug seeded_bug() const { return seeded_bug_; }

  /// Wake a parked thread; it resumes at max(its clock, machine time).
  void wake(std::uint32_t tid);

  /// Release every parked thread at (max thread clock + barrier_cost_ns):
  /// a synchronization barrier. Typically used from the quiescence hook.
  void barrier_release(double barrier_cost_ns);

  /// Schedule an arbitrary callback at virtual time `t` (used by the
  /// network layer for message deliveries).
  void schedule_callback(double t, std::function<void()> fn);

  /// Like schedule_callback, but the callback is *droppable*: losing it in
  /// a crash-restore is safe because the scheduling subsystem re-derives
  /// it from its own checkpointed state (the reliable-delivery protocol's
  /// deliveries, acks and retransmit timers — all reconstructible from the
  /// pending-send maps). Droppable callbacks do not block checkpoints;
  /// generic ones do, because the engine cannot re-create an opaque
  /// std::function after dropping it.
  void schedule_callback_droppable(double t, std::function<void()> fn);

  // --- crash-stop recovery (src/recovery/) --------------------------------
  //
  // A RecoveryClient observes the engine at safe checkpoint instants (no
  // transaction in flight, no generic callback pending, uncontrolled) and
  // restores the whole machine after FaultHook::inject_crash fires. The
  // engine serializes its own durable core — virtual clocks, RNG streams,
  // conflict stamps, stripe metadata, and every pending non-callback
  // event — so a restore replays the exact schedule from the checkpoint.

  /// Registers (or clears, with nullptr) the recovery client. Not owned;
  /// must outlive run(). When unset the engine takes no recovery branches.
  void set_recovery_client(RecoveryClient* client) { recovery_ = client; }
  RecoveryClient* recovery_client() const { return recovery_; }

  /// True at instants where save_core captures a complete, restorable
  /// machine state.
  bool checkpoint_safe() const {
    return !controlled_ && inflight_txns_ == 0 &&
           generic_callbacks_pending_ == 0;
  }

  /// Serializes the durable core into `w`. Must be called at a safe
  /// instant (checkpoint_safe()); aborts otherwise.
  void save_core(util::BlobWriter& w) const;

  /// Restores the durable core from `r` (a blob produced by save_core on
  /// this same machine/heap layout). Drops all volatile state: in-flight
  /// transactions, pending events, and every scheduled callback. Pending
  /// non-callback events are re-pushed in saved (time, seq) order, so the
  /// post-restore schedule is bit-identical to the checkpoint's future.
  void restore_core(util::BlobReader& r);

  /// Generic (non-droppable) callbacks currently scheduled; must be zero
  /// for a checkpoint to be safe.
  int generic_callbacks_pending() const { return generic_callbacks_pending_; }

  // --- introspection -------------------------------------------------------
  double now() const { return now_; }
  double thread_clock(std::uint32_t tid) const;
  /// Makespan: the largest thread clock (all threads' completion time).
  double makespan() const;
  int num_threads() const { return static_cast<int>(threads_.size()); }
  const model::MachineConfig& config() const { return config_; }
  model::HtmKind htm_kind() const { return kind_; }
  mem::SimHeap& heap() { return heap_; }
  mem::StripeTable& stripes() { return stripes_; }

  /// log2 of the HTM variant's conflict-detection granularity (64B lines
  /// on Haswell-likes, 8B words on BG/Q). Heap offsets shifted right by
  /// this give the conflict units used for commit validation.
  std::uint32_t conflict_shift() const { return conflict_shift_; }

  /// Registers (or clears, with nullptr) the observer notified of every
  /// modelled write that reaches committed memory and of each run() entry.
  /// Not owned; used by check::Checker's escaped-write detector. Costs one
  /// predictable branch per committed write when unset.
  void set_write_observer(mem::WriteObserver* observer) {
    write_observer_ = observer;
  }
  mem::WriteObserver* write_observer() const { return write_observer_; }

  /// Registers (or clears, with nullptr) the fault-injection hook (see
  /// htm::FaultHook). Not owned; must outlive run(). When unset the engine
  /// takes no injection branches, so fault-free runs are bit-identical to
  /// builds without the seam.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Runtime-hardening knobs (livelock watermark, progress watchdog). The
  /// defaults never trigger in fault-free runs; see ResilienceConfig.
  void set_resilience(const ResilienceConfig& r) { resilience_ = r; }
  const ResilienceConfig& resilience() const { return resilience_; }

  /// The footprint of `tid`'s most recent transactional attempt. Valid
  /// inside the activity's done callback (fires after commit, before the
  /// next attempt resets it); used by check::Checker to audit declared
  /// read/write sets against the accesses the operator actually made.
  const mem::FootprintTracker& thread_footprint(std::uint32_t tid) const;

  /// Marks the conflict unit containing `p` as committed "now" in
  /// processing order: bumps the global commit stamp onto it so that
  /// overlapping transactions abort. Two events at the same virtual
  /// instant are ordered by processing sequence, and the stamp captures
  /// exactly that order. Used by the engine at commits and by the network
  /// layer for NIC-side atomics.
  void bump_addr(const void* p) {
    bump_unit(heap_.offset_of(p) >> conflict_shift_);
  }

  HtmStats stats() const;  ///< aggregated over all threads
  const HtmStats& thread_stats(std::uint32_t tid) const;
  std::uint64_t events_processed() const { return events_processed_; }

  /// Resets all thread clocks to `t` (e.g. between measured phases) and
  /// clears statistics if requested. All threads must be parked.
  void reset_clocks(double t, bool clear_stats);

 private:
  friend class Txn;
  friend class ThreadCtx;

  enum EventKind : std::uint32_t { kNext, kCommit, kRetry, kSerialCommit, kCallback };

  /// Per-thread engine state. Defined here (not in the .cpp) so the
  /// accessor hot paths below can inline straight into operator bodies.
  struct ThreadState {
    ThreadCtx ctx;
    Worker* worker = nullptr;
    bool parked = true;

    // Staged-transaction state. At most one activity is in flight per
    // thread.
    bool txn_inflight = false;
    bool want_serialize = false;
    TxnBody body;
    TxnDone done;
    int aborts_this_txn = 0;
    int capacity_aborts_this_txn = 0;
    /// Aborts since this thread last completed *any* activity (completion
    /// of a serialized activity also resets it: serialization is
    /// progress). Drives the livelock watermark.
    int consec_aborts = 0;
    bool escalated_this_txn = false;
    double first_start = 0;   ///< time of the first speculative attempt
    double spec_start = 0;    ///< time of the current attempt
    std::uint64_t start_stamp = 0;  ///< global commit stamp at attempt start
    double txn_duration = 0;  ///< accumulated cost of the current attempt
    mem::WordMap write_buffer;
    mem::FootprintTracker tracker;
    Txn txn;
    HtmStats stats;
  };

  void dispatch(const sim::Event& e);
  sim::ChoiceKind classify_choice(const sim::Event& e) const;
  void activate(std::uint32_t tid);      // call worker->next via kNext
  void on_next(std::uint32_t tid);
  void attempt_speculative(std::uint32_t tid);
  void on_commit(std::uint32_t tid, std::uint64_t attempt_token);
  void handle_abort(std::uint32_t tid, AbortReason reason, double at_time);
  void enter_serialized(std::uint32_t tid, double ready_time);
  void on_serial_commit(std::uint32_t tid);
  void finish_txn(std::uint32_t tid, bool serialized, double end_time);
  /// Starts `ts`'s attempt on an empty write buffer and footprint.
  void begin_footprint(ThreadState& ts);
  /// Cold path of Txn::checked_offset for an address past the footprint
  /// table's cover: aborts when it is off-heap, else extends the cover.
  void cover_heap_address(std::uintptr_t addr);

  // Word-granularity committed-memory access helpers for Txn.
  std::uint64_t read_committed_word(std::uintptr_t addr) const {
    std::uint64_t word;
    std::memcpy(&word, reinterpret_cast<const void*>(addr), 8);
    return word;
  }
  void write_committed_word(std::uintptr_t addr, std::uint64_t word) {
    std::memcpy(reinterpret_cast<void*>(addr), &word, 8);
    if (write_observer_ != nullptr) {
      write_observer_->on_legitimate_write(
          heap_.offset_of(reinterpret_cast<const void*>(addr)), 8);
    }
  }

  const model::MachineConfig& config_;
  model::HtmKind kind_;
  const model::HtmCosts& costs_;
  mem::SimHeap& heap_;
  mem::StripeTable stripes_;
  sim::EventQueue queue_;
  sim::Backoff backoff_;
  QuiescenceHook quiescence_;

  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::size_t> callback_free_;

  // Per-domain elision/fallback lock: every speculative transaction
  // subscribes to its domain's lock line; serialized executions own it
  // exclusively. Admission is managed with an explicit held flag plus a
  // FIFO waiter queue so that a waiter can never observe the holder's
  // pre-commit state, even when its retry event carries the same virtual
  // timestamp as the holder's commit.
  struct SerialDomain {
    std::uint64_t* lock = nullptr;
    bool held = false;
    std::vector<std::uint32_t> waiters;
    double free_at = 0;  ///< virtual time the fallback lock frees up
    /// Token bucket of the node's shared atomic unit (AtomicCosts::
    /// global_gap_ns): admits one atomic per gap of *event* time.
    double atomic_free = 0;
  };
  std::vector<SerialDomain> domains_;
  std::uint32_t threads_per_domain_ = 1;
  SerialDomain& domain_of(std::uint32_t tid) {
    return domains_[tid / threads_per_domain_];
  }

  /// Monotonic commit-order stamp over conflict units (heap offset >>
  /// conflict_shift_, per the HTM variant's detection granularity).
  std::uint64_t commit_stamp_ = 0;
  std::uint32_t conflict_shift_ = 6;
  std::vector<std::uint64_t> unit_stamps_;
  void bump_unit(std::uint64_t unit) {
    unit_stamps_[unit] = ++commit_stamp_;
  }
  /// First-touch dedup for every thread's tracker, covering the heap's
  /// used prefix from the first attempt on. One table serves the whole
  /// machine because attempt_speculative() and enter_serialized() run
  /// each body synchronously, one at a time.
  mem::FootprintTable footprints_;

  mem::WriteObserver* write_observer_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  RecoveryClient* recovery_ = nullptr;
  /// kCallback payload bit distinguishing generic callbacks (bit set;
  /// opaque, block checkpoints) from droppable ones (reconstructible).
  static constexpr std::uint64_t kGenericCallbackBit = 1ULL << 63;
  int generic_callbacks_pending_ = 0;
  void schedule_callback_impl(double t, std::function<void()> fn,
                              bool generic);
  ResilienceConfig resilience_;
  /// Virtual time of the last activity completion; with inflight_txns_ > 0
  /// and no completion for watchdog_ns, dispatch() throws StallError.
  double last_progress_ = 0;
  int inflight_txns_ = 0;

  double now_ = 0;
  std::uint64_t events_processed_ = 0;

  bool controlled_ = false;
  SeededBug seeded_bug_ = SeededBug::kNone;
};

// ---------------------------------------------------------------------------
// Accessor hot paths, inline so operator bodies compile down to straight
// table-index-and-charge sequences with no cross-TU calls.
// ---------------------------------------------------------------------------

inline std::uint64_t Txn::checked_offset(std::uintptr_t addr) const {
  DesMachine& m = *machine_;
  // An address below the heap wraps to a huge offset: one compare covers
  // both ends.
  const std::uint64_t offset =
      addr - reinterpret_cast<std::uintptr_t>(m.heap_.raw_bytes().data());
  if (offset >= m.footprints_.covered_bytes()) [[unlikely]] {
    m.cover_heap_address(addr);
  }
  return offset;
}

inline std::uint64_t Txn::load_word(std::uintptr_t addr) {
  DesMachine& m = *machine_;
  auto& ts = *m.threads_[tid_];
  const std::uint64_t offset = checked_offset(addr);

  if (serialized_) {
    ts.txn_duration += m.config_.atomics.load_ns;
    // Track the unit (no capacity limits) so stamps bump at commit.
    ts.tracker.add_read(offset);
  } else {
    ts.txn_duration += m.costs_.read_ns + m.config_.atomics.load_ns;
    if (ts.tracker.add_read(offset) == mem::FootprintTracker::Add::kOverflow) {
      throw TxAbort{AbortReason::kCapacity};
    }
  }
  return current_word(offset, addr);
}

inline std::uint64_t Txn::current_word(std::uint64_t offset,
                                       std::uintptr_t addr) const {
  // Every buffered word lies in a unit this attempt wrote (store_word
  // records the write before buffering), so an unwritten unit skips the
  // write-buffer probe.
  DesMachine& m = *machine_;
  auto& ts = *m.threads_[tid_];
  const std::uintptr_t word_addr = addr & ~std::uintptr_t{7};
  std::uint64_t word;
  if (!ts.tracker.wrote_unit(offset) ||
      !ts.write_buffer.lookup(word_addr, word)) {
    word = m.read_committed_word(word_addr);
  }
  return word;
}

inline void Txn::store_word(std::uint64_t offset, std::uintptr_t addr,
                            std::uint64_t word) {
  DesMachine& m = *machine_;
  auto& ts = *m.threads_[tid_];
  if (serialized_) {
    ts.txn_duration += m.config_.atomics.store_ns;
    ts.tracker.add_write(offset);
  } else {
    ts.txn_duration += m.costs_.write_ns + m.config_.atomics.store_ns;
    if (ts.tracker.add_write(offset) == mem::FootprintTracker::Add::kOverflow) {
      throw TxAbort{AbortReason::kCapacity};
    }
  }
  const std::uintptr_t word_addr = addr & ~std::uintptr_t{7};
  ts.write_buffer.insert_or_assign(word_addr, word);
}

inline void ThreadCtx::charge_load() {
  clock_ += machine_->config().atomics.load_ns;
}

inline void ThreadCtx::charge_store(const void* p, std::size_t len) {
  clock_ += machine_->config().atomics.store_ns;
  if (machine_->heap().contains(p)) {
    // A plain store is immediately visible: overlapping transactions that
    // touched this location must observe it as a conflict.
    machine_->bump_addr(p);
    if (machine_->write_observer_ != nullptr) {
      machine_->write_observer_->on_legitimate_write(
          machine_->heap().offset_of(p), static_cast<std::uint32_t>(len));
    }
  }
}

}  // namespace aam::htm
