#pragma once

// Discrete-event HTM machine.
//
// DesMachine simulates one machine configuration (§5.1) with T logical
// threads sharing a SimHeap. Each thread runs a Worker; the engine drives
// all threads in virtual-time order through a deterministic event queue.
//
// Transactions follow an optimistic protocol that reproduces the dynamics
// of real HTM under the lazy-subscription model:
//
//   * at its start event, a transaction executes its body speculatively
//     against the committed memory state of that instant, buffering writes
//     and accumulating cost from the machine's HTM cost table;
//   * its footprint is validated twice: by a probe event at start + 0.5 ×
//     duration (a conflict seen there aborts after half the work, as a
//     remote write invalidates a speculative line at once on real HTM) and
//     at the commit event at start + duration. Each validation compares
//     the commit stamp of every conflict unit in the footprint (64 B lines
//     on the Haswell models, 8 B words on BG/Q; see conflict_shift()) with
//     the global stamp taken when the attempt started: a unit committed
//     since by another transaction, atomic or plain store aborts it (first
//     committer wins);
//   * aborted transactions retry per the variant policy: RTM retries in
//     software with exponential backoff, HLE serializes after the first
//     abort, BG/Q auto-retries up to max_rollbacks then serializes. A
//     speculative retry whose footprint no commit touched since its last
//     body run would repeat that run exactly, so it reuses it.
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
#include <optional>
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
#include "util/inline_function.hpp"
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

  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

 private:
  friend class DesMachine;
  Txn() = default;

  // Defined inline at the bottom of this header: they run once per
  // modelled transactional access and inline into the operator body.
  /// Heap offset of `addr`; aborts when the address is off-heap.
  std::uint64_t checked_offset(std::uintptr_t addr);
  std::uint64_t load_word(std::uintptr_t addr);
  /// The word containing `addr` as this attempt sees it (own buffered
  /// write, else committed memory), with no footprint or cost.
  std::uint64_t current_word(std::uint64_t offset, std::uintptr_t addr) const;
  void store_word(std::uint64_t offset, std::uintptr_t addr,
                  std::uint64_t word);
  /// Cold path of checked_offset for an address past the cached cover:
  /// aborts when it is off-heap, else extends the footprint table's cover
  /// to memory allocated since the attempt began and refreshes the cache.
  void cover_heap_address(std::uintptr_t addr);

  /// One buffered word: its address and the value commit writes back.
  struct LoggedWord {
    std::uintptr_t addr = 0;
    std::uint64_t value = 0;
  };

  DesMachine* machine_ = nullptr;
  std::uintptr_t heap_base_ = 0;

  // The attempt's access path, set up by DesMachine::begin_footprint(): the
  // per-access charges of its path (speculative or serialized), copies of
  // the footprint table's cover and write index, and the attempt-scoped
  // footprint.
  double start_ = 0;
  bool serialized_ = false;
  std::size_t covered_bytes_ = 0;  ///< FootprintTable::covered_bytes() copy
  std::uint32_t* word_slots_ = nullptr;  ///< FootprintTable::word_slots() copy
  double load_ns_ = 0;   ///< charge per load
  double store_ns_ = 0;  ///< charge per store
  double duration_ = 0;  ///< accumulated cost of the attempt
  /// The redo log: the attempt's buffered words in first-write order, which
  /// is the order commit writes them back in. word_slots_ finds an entry.
  std::vector<LoggedWord> write_log_;
  mem::FootprintTracker tracker_;
};

/// Staged-transaction closures. They hold their callable inline (at most
/// kStagedClosureBytes, checked at compile time), so staging a transaction
/// never allocates on the host.
inline constexpr std::size_t kStagedClosureBytes = 64;
using TxnBody = util::InlineFunction<void(Txn&), kStagedClosureBytes>;
using TxnDone = util::InlineFunction<void(ThreadCtx&, const TxnOutcome&),
                                     kStagedClosureBytes>;

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
  /// What the body does must be a function of its captures and its Txn
  /// reads: a retry whose footprint nothing committed to since the last
  /// run reuses that run instead of calling the body again.
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
  /// The machine keeps a reference to `config`, which must outlive it;
  /// the deleted overload rejects a temporary at compile time.
  DesMachine(const model::MachineConfig& config, model::HtmKind kind,
             int num_threads, mem::SimHeap& heap, std::uint64_t seed = 1,
             int num_domains = 1);
  DesMachine(model::MachineConfig&& config, model::HtmKind kind,
             int num_threads, mem::SimHeap& heap, std::uint64_t seed = 1,
             int num_domains = 1) = delete;
  ~DesMachine();

  DesMachine(const DesMachine&) = delete;
  DesMachine& operator=(const DesMachine&) = delete;

  /// Assign the worker for a thread (not owned; must outlive run()).
  void set_worker(std::uint32_t tid, Worker* worker);
  void set_quiescence_hook(QuiescenceHook hook) { quiescence_ = std::move(hook); }

  /// Drive the simulation until global quiescence.
  void run();

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
  // run() never takes this path: uncontrolled runs dispatch
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

  /// Wake a parked thread; it resumes at max(its clock, machine time).
  void wake(std::uint32_t tid);

  /// Release every parked thread at (max thread clock + barrier_cost_ns):
  /// a synchronization barrier. Typically used from the quiescence hook.
  void barrier_release(double barrier_cost_ns);

  /// Schedule an arbitrary callback at virtual time `t` (used by
  /// net::RemoteAtomics and core::OwnershipProtocol; message deliveries
  /// are droppable events). A pending callback blocks checkpoints: the
  /// engine cannot re-create an opaque std::function after a restore
  /// dropped it.
  void schedule_callback(double t, std::function<void()> fn);

  /// Schedules a *droppable* event at virtual time `t`: at dispatch the
  /// registered DroppableSink receives `payload`. Losing the event in a
  /// crash-restore is safe because the sink re-derives it from its own
  /// checkpointed state (the cluster's message deliveries, acks and
  /// retransmit timers, all reconstructible from the pending-send
  /// windows), so droppable events do not block checkpoints. Costs no host
  /// allocation.
  void schedule_droppable(double t, std::uint64_t payload);

  /// Registers (or clears, with nullptr) the one sink of droppable events.
  /// Not owned; must outlive every droppable event it is sent.
  void set_droppable_sink(DroppableSink* sink) { droppable_sink_ = sink; }

  // --- crash-stop recovery (src/recovery/) --------------------------------
  //
  // A RecoveryClient observes the engine at safe checkpoint instants (no
  // transaction in flight, no callback pending, uncontrolled) and
  // restores the whole machine after FaultHook::inject_crash fires. The
  // engine serializes its own durable core — virtual clocks, RNG streams,
  // conflict stamps, stripe metadata, and every pending event that is
  // neither a callback nor droppable — so a restore replays the exact
  // schedule from the checkpoint.

  /// Registers (or clears, with nullptr) the recovery client. Not owned;
  /// must outlive run(). When unset the engine takes no recovery branches.
  void set_recovery_client(RecoveryClient* client) { recovery_ = client; }
  RecoveryClient* recovery_client() const { return recovery_; }

  /// True at instants where durable() captures a complete, restorable
  /// machine state.
  bool checkpoint_safe() const {
    return !controlled_ && inflight_txns_ == 0 &&
           callback_free_.size() == callbacks_.size();
  }

  /// Saves or restores the durable core. Saving must happen at a safe
  /// instant (checkpoint_safe()); it aborts otherwise. Restoring needs
  /// the same machine and heap layout, and drops all volatile state:
  /// in-flight transactions, pending events, every scheduled callback and
  /// every droppable event. The other pending events are re-pushed in
  /// saved (time, seq) order, so the post-restore schedule is
  /// bit-identical to the checkpoint's future.
  void durable(util::BlobIo& io);

  // --- introspection -------------------------------------------------------
  double now() const { return now_; }
  /// Makespan: the largest thread clock (all threads' completion time).
  double makespan() const;
  int num_threads() const { return static_cast<int>(threads_.size()); }
  const model::MachineConfig& config() const { return config_; }
  mem::SimHeap& heap() { return heap_; }
  mem::StripeTable& stripes() { return stripes_; }

  /// log2 of the HTM variant's conflict-detection granularity (64B lines
  /// on Haswell-likes, 8B words on BG/Q). Heap offsets shifted right by
  /// this give the conflict units used for commit validation.
  std::uint32_t conflict_shift() const { return conflict_shift_; }

  /// Registers (or clears, with nullptr) the observer notified of every
  /// modelled write that reaches committed memory, of each run() entry and
  /// of each quiescence hook that injects more work.
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

  /// The footprint of `tid`'s most recent transactional attempt. Valid
  /// inside the activity's done callback (fires after commit, before the
  /// next attempt resets it); used by check::Checker to audit declared
  /// read/write sets against the accesses the operator actually made.
  const mem::FootprintTracker& thread_footprint(std::uint32_t tid) const;

  /// The machine's shared footprint table; its cover stays zero until the
  /// first transactional attempt.
  const mem::FootprintTable& footprint_table() const { return footprints_; }

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

  /// Resets every thread clock to zero and clears the statistics, so a
  /// measured run starts from a clean slate. All threads must be parked.
  void reset_clocks();

 private:
  friend class Txn;
  friend class ThreadCtx;

  enum EventKind : std::uint32_t {
    kNext,
    kCommit,
    kRetry,
    kSerialCommit,
    kCallback,
    kDroppable
  };

  /// Entry protocol shared by run() and run_controlled(): observer
  /// notification, progress stamp, waking every worker.
  void enter_run();

  /// Quiescence protocol shared by run() and run_controlled(): tells the
  /// write observer the round is over, consults the hook and returns
  /// whether it injected more work. A hook that did is treated like the
  /// instant between two runs: the write observer is resynchronised, so
  /// the hook's host writes are sanctioned.
  bool resume_after_quiescence();

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
    std::uint64_t start_stamp = 0;  ///< global commit stamp at attempt start
    Txn txn;  ///< the current attempt's access path and footprint
    /// Set while txn holds the last speculative body run of the staged
    /// transaction (its footprint and write log, taken at start_stamp): a
    /// retry whose footprint nothing committed to since reuses that run.
    bool replayable = false;
    double body_ns = 0;  ///< txn.duration_ when that body returned or threw
    std::optional<AbortReason> body_abort;  ///< how that body ended
    HtmStats stats;
  };

  /// The restore-only tail of durable(): resets in-flight state, drops
  /// every pending event and callback, then pushes `pending` back.
  void drop_volatile_and_requeue(const std::vector<sim::Event>& pending);

  void dispatch(const sim::Event& e);
  sim::ChoiceKind classify_choice(const sim::Event& e) const;
  void on_next(std::uint32_t tid);
  void attempt_speculative(std::uint32_t tid);
  void on_commit(std::uint32_t tid, std::uint64_t attempt_token);
  void handle_abort(std::uint32_t tid, AbortReason reason, double at_time);
  void enter_serialized(std::uint32_t tid, double ready_time);
  void on_serial_commit(std::uint32_t tid);
  void finish_txn(std::uint32_t tid, bool serialized, double end_time);
  /// True when some unit of `tx`'s footprint (only its writes when `reads`
  /// is false) was committed after `stamp`: first-committer-wins
  /// validation, and the test that a retry may replay its last body run.
  bool footprint_committed_since(const Txn& tx, std::uint64_t stamp,
                                 bool reads = true) const;
  /// Starts `ts`'s attempt at `start` on an empty write buffer and
  /// footprint, charging the costs of the speculative or serialized path.
  void begin_footprint(ThreadState& ts, double start, bool serialized);

  /// Commit write-back of `tx`'s buffered words, in first-write order.
  void write_back(const Txn& tx) {
    for (const Txn::LoggedWord& w : tx.write_log_) {
      std::memcpy(reinterpret_cast<void*>(w.addr), &w.value, 8);
      if (write_observer_ != nullptr) {
        write_observer_->on_legitimate_write(
            heap_.offset_of(reinterpret_cast<const void*>(w.addr)), 8);
      }
    }
  }

  const model::MachineConfig& config_;
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
  /// Per-unit commit stamps over the heap's whole capacity; a mapping, so
  /// only units a run commits to cost host memory.
  mem::ZeroMapped<std::uint64_t> unit_stamps_;
  void bump_unit(std::uint64_t unit) {
    unit_stamps_[unit] = ++commit_stamp_;
  }
  /// First-touch dedup and the write index for every thread's attempt,
  /// covering the heap's used prefix from the first attempt on. One table
  /// serves the whole machine because attempt_speculative() and
  /// enter_serialized() run each body synchronously, one at a time.
  mem::FootprintTable footprints_;

  mem::WriteObserver* write_observer_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  RecoveryClient* recovery_ = nullptr;
  DroppableSink* droppable_sink_ = nullptr;
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

inline std::uint64_t Txn::checked_offset(std::uintptr_t addr) {
  // An address below the heap wraps to a huge offset: one compare covers
  // both ends.
  const std::uint64_t offset = addr - heap_base_;
  if (offset >= covered_bytes_) [[unlikely]] {
    cover_heap_address(addr);
  }
  return offset;
}

inline std::uint64_t Txn::load_word(std::uintptr_t addr) {
  const std::uint64_t offset = checked_offset(addr);
  duration_ += load_ns_;
  // The serialized path tracks the unit too (so stamps bump at commit) but
  // has no capacity limit.
  if (tracker_.add_read(offset) == mem::FootprintTracker::Add::kOverflow &&
      !serialized_) [[unlikely]] {
    throw TxAbort{AbortReason::kCapacity};
  }
  return current_word(offset, addr);
}

// The write log is found through the machine-wide write index, which only
// the running body reads. A slot is this attempt's exactly when it names a
// log entry holding the same word: every word this attempt wrote had its
// slot set during this body, and no other body has run since. A slot left
// by another body either points past this log or at an entry for another
// word, because this log holds each word once, at the position its slot
// was set to.

inline std::uint64_t Txn::current_word(std::uint64_t offset,
                                       std::uintptr_t addr) const {
  // Every buffered word lies in a unit this attempt wrote (store_word
  // records the write before buffering), so an unwritten unit skips the
  // write-index probe.
  const std::uintptr_t word_addr = addr & ~std::uintptr_t{7};
  if (tracker_.wrote_unit(offset)) {
    const std::uint32_t i = word_slots_[offset >> 3];
    if (i < write_log_.size() && write_log_[i].addr == word_addr) {
      return write_log_[i].value;
    }
  }
  std::uint64_t word;
  std::memcpy(&word, reinterpret_cast<const void*>(word_addr), 8);
  return word;
}

inline void Txn::store_word(std::uint64_t offset, std::uintptr_t addr,
                            std::uint64_t word) {
  duration_ += store_ns_;
  if (tracker_.add_write(offset) == mem::FootprintTracker::Add::kOverflow &&
      !serialized_) [[unlikely]] {
    throw TxAbort{AbortReason::kCapacity};
  }
  const std::uintptr_t word_addr = addr & ~std::uintptr_t{7};
  std::uint32_t& slot = word_slots_[offset >> 3];
  if (slot < write_log_.size() && write_log_[slot].addr == word_addr) {
    write_log_[slot].value = word;
    return;
  }
  slot = static_cast<std::uint32_t>(write_log_.size());
  write_log_.push_back(LoggedWord{word_addr, word});
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
