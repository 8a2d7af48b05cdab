#include "htm/des_engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace aam::htm {

// ---------------------------------------------------------------------------
// StallDiagnostic
// ---------------------------------------------------------------------------

std::string StallDiagnostic::to_string() const {
  std::ostringstream os;
  os << "simulation stalled: no activity completed for "
     << (now_ns - last_progress_ns) << " simulated ns (now=" << now_ns
     << ", last progress=" << last_progress_ns << ", " << inflight_txns
     << " transaction(s) in flight, worst thread t" << worst_tid << " with "
     << worst_streak << " consecutive aborts, " << events_processed
     << " events processed, " << inflight_messages
     << " message(s) in flight, last checkpoint #" << last_checkpoint_id
     << ")";
  return os.str();
}

std::string CrashDiagnostic::to_string() const {
  std::ostringstream os;
  os << "machine crash-stopped at " << now_ns << " simulated ns (thread t"
     << tid << ", " << events_processed
     << " events processed, no checkpoint to restore from)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Txn
// ---------------------------------------------------------------------------

void Txn::abort() { throw TxAbort{AbortReason::kExplicit}; }

void Txn::cover_heap_address(std::uintptr_t addr) {
  DesMachine& m = *machine_;
  AAM_CHECK_MSG(m.heap_.contains(reinterpret_cast<const void*>(addr)),
                "transactional access to memory outside the SimHeap");
  // Allocated after the attempt began.
  m.footprints_.cover(m.heap_.used_bytes());
  covered_bytes_ = m.footprints_.covered_bytes();
  word_slots_ = m.footprints_.word_slots();
}

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

void ThreadCtx::begin_atomic(const void* p, bool is_cas) {
  DesMachine& m = *machine_;
  AAM_CHECK_MSG(m.heap().contains(p),
                "atomic access to memory outside the SimHeap");
  const mem::LineId line = m.heap().line_of(p);
  const auto& a = m.config().atomics;
  // The line must be owned exclusively: queue behind in-flight atomics from
  // *other* threads (cache-line ping-pong); re-accessing an already-owned
  // line pays no transfer. On machines with a shared atomic unit (BG/Q
  // L2), atomics additionally queue machine-wide behind the global gap.
  double start = clock_;
  if (m.stripes().owner(line) != tid_) {
    start = std::max(start, m.stripes().available_at(line));
  }
  if (a.global_gap_ns > 0) {
    // Node-wide atomic-unit throughput bound: one admission per gap,
    // metered in *event* time (now_) so a thread whose private clock ran
    // ahead inside a work batch cannot drag the gate into the future.
    auto& dom = m.domain_of(tid_);
    const double gate = std::max(dom.atomic_free, m.now());
    start = std::max(start, gate);
    dom.atomic_free = gate + a.global_gap_ns;
  }
  clock_ = start + (is_cas ? a.cas_ns : a.acc_ns);
  m.stripes().set_available_at(line, start + a.line_transfer_ns);
  m.stripes().set_owner(line, tid_);
  auto& stats = m.threads_[tid_]->stats;
  if (is_cas) {
    ++stats.atomic_cas;
  } else {
    ++stats.atomic_acc;
  }
}

void ThreadCtx::commit_atomic_write(const void* p, std::size_t len) {
  machine_->bump_addr(p);
  if (machine_->write_observer_ != nullptr) {
    machine_->write_observer_->on_legitimate_write(
        machine_->heap().offset_of(p), static_cast<std::uint32_t>(len));
  }
}

void ThreadCtx::stage_transaction(TxnBody body, TxnDone done) {
  AAM_CHECK_MSG(!staged_, "only one transaction may be staged per next()");
  AAM_CHECK_MSG(!machine_->threads_[tid_]->txn_inflight,
                "cannot stage a transaction while one is in flight");
  staged_ = true;
  staged_body_ = std::move(body);
  staged_done_ = std::move(done);
}

// ---------------------------------------------------------------------------
// DesMachine
// ---------------------------------------------------------------------------

namespace {
std::uint32_t log2_granularity(std::uint32_t gran) {
  AAM_CHECK(gran >= 8 && (gran & (gran - 1)) == 0);
  std::uint32_t shift = 0;
  while ((1u << shift) < gran) ++shift;
  return shift;
}
}  // namespace

DesMachine::DesMachine(const model::MachineConfig& config, model::HtmKind kind,
                       int num_threads, mem::SimHeap& heap, std::uint64_t seed,
                       int num_domains)
    : config_(config),
      costs_(config.htm(kind)),
      heap_(heap),
      stripes_(heap.num_lines()),
      backoff_(costs_.backoff_base_ns, costs_.backoff_max_ns),
      conflict_shift_(log2_granularity(costs_.conflict_granularity_bytes)),
      unit_stamps_((heap.capacity_bytes() >> conflict_shift_) + 1),
      footprints_(conflict_shift_) {
  AAM_CHECK(num_threads >= 1);
  AAM_CHECK(num_domains >= 1 && num_threads % num_domains == 0);
  AAM_CHECK_MSG(num_threads / num_domains <= config.max_threads(),
                "per-node thread count exceeds the machine's hardware threads");
  domains_.resize(static_cast<std::size_t>(num_domains));
  threads_per_domain_ =
      static_cast<std::uint32_t>(num_threads / num_domains);
  for (auto& d : domains_) {
    d.lock = heap_.alloc_isolated<std::uint64_t>(0, "htm.elision-lock");
  }
  // Each thread holds at most a handful of in-flight events (kNext /
  // kCommit / kRetry chains) plus occasional callbacks; pre-size the queue
  // so the steady state never reallocates mid-run.
  queue_.reserve(static_cast<std::size_t>(num_threads) * 4 + 16);
  const util::Rng root(seed);
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    auto ts = std::make_unique<ThreadState>();
    ts->ctx.machine_ = this;
    ts->ctx.tid_ = static_cast<std::uint32_t>(t);
    ts->ctx.rng_ = root.fork(static_cast<std::uint64_t>(t) + 1);
    ts->txn.tracker_.configure(footprints_, costs_.write_capacity,
                               costs_.read_capacity_lines);
    ts->txn.machine_ = this;
    ts->txn.heap_base_ =
        reinterpret_cast<std::uintptr_t>(heap_.raw_bytes().data());
    threads_.push_back(std::move(ts));
  }
}

DesMachine::~DesMachine() = default;

void DesMachine::set_worker(std::uint32_t tid, Worker* worker) {
  AAM_CHECK(tid < threads_.size());
  threads_[tid]->worker = worker;
}

double DesMachine::makespan() const {
  double m = 0;
  for (const auto& ts : threads_) m = std::max(m, ts->ctx.clock_);
  return m;
}

HtmStats DesMachine::stats() const {
  HtmStats s;
  for (const auto& ts : threads_) s.merge(ts->stats);
  return s;
}

const HtmStats& DesMachine::thread_stats(std::uint32_t tid) const {
  AAM_CHECK(tid < threads_.size());
  return threads_[tid]->stats;
}

const mem::FootprintTracker& DesMachine::thread_footprint(
    std::uint32_t tid) const {
  AAM_CHECK(tid < threads_.size());
  return threads_[tid]->txn.tracker_;
}

void DesMachine::reset_clocks() {
  for (auto& d : domains_) {
    AAM_CHECK_MSG(!d.held && d.waiters.empty(),
                  "reset_clocks with an active serializer");
    d.free_at = std::min(d.free_at, 0.0);
  }
  for (auto& ts : threads_) {
    AAM_CHECK_MSG(ts->parked && !ts->txn_inflight,
                  "reset_clocks requires all threads parked");
    ts->ctx.clock_ = 0.0;
    ts->stats = HtmStats{};
  }
  now_ = 0.0;
  last_progress_ = 0.0;
}

void DesMachine::wake(std::uint32_t tid) {
  AAM_CHECK(tid < threads_.size());
  auto& ts = *threads_[tid];
  if (!ts.parked || ts.worker == nullptr) return;
  ts.parked = false;
  ts.ctx.clock_ = std::max(ts.ctx.clock_, now_);
  queue_.push(ts.ctx.clock_, tid, kNext);
}

void DesMachine::barrier_release(double barrier_cost_ns) {
  const double release = makespan() + barrier_cost_ns;
  for (std::uint32_t t = 0; t < threads_.size(); ++t) {
    auto& ts = *threads_[t];
    if (ts.worker == nullptr) continue;
    AAM_CHECK_MSG(ts.parked, "barrier_release with a running thread");
    ts.ctx.clock_ = release;
  }
  for (std::uint32_t t = 0; t < threads_.size(); ++t) wake(t);
}

void DesMachine::schedule_callback(double t, std::function<void()> fn) {
  std::size_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callbacks_[slot] = std::move(fn);
  } else {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  }
  queue_.push(std::max(t, now_), 0, kCallback, slot);
}

void DesMachine::schedule_droppable(double t, std::uint64_t payload) {
  // Thread 0, like a callback: the crash injector consulted after the
  // event sees the same thread id either way.
  queue_.push(std::max(t, now_), 0, kDroppable, payload);
}

void DesMachine::enter_run() {
  // Host-side writes made between runs (initialisation, inter-phase
  // fixups) happen single-threaded and are sanctioned wholesale.
  if (write_observer_ != nullptr) write_observer_->on_run_start();
  last_progress_ = std::max(last_progress_, now_);
  for (std::uint32_t t = 0; t < threads_.size(); ++t) wake(t);
}

bool DesMachine::resume_after_quiescence() {
  // The round's writes are all made: the observer audits them before the
  // hook's host writes are sanctioned below.
  if (write_observer_ != nullptr) write_observer_->on_quiescence();
  if (!quiescence_ || !quiescence_(*this)) return false;
  AAM_CHECK_MSG(!queue_.empty(),
                "quiescence hook returned true without injecting work");
  // The hook ran single-threaded between rounds (next-round resets,
  // frontier swaps), like host code between runs.
  if (write_observer_ != nullptr) write_observer_->on_run_start();
  return true;
}

void DesMachine::run() {
  enter_run();
  // Run entry is always a safe instant: no transactions are in flight yet.
  if (recovery_ != nullptr) recovery_->on_run_entry(*this);
  while (true) {
    try {
      while (!queue_.empty()) {
        const sim::Event e = queue_.pop();
        dispatch(e);
        // Event-boundary crash injection: finish_txn's consult only covers
        // transactional completions, so non-speculative mechanisms
        // (atomics, fine-locks) would otherwise never crash. A boundary
        // crash models power loss at an arbitrary instant of the event
        // timeline.
        if (fault_hook_ != nullptr &&
            fault_hook_->inject_crash(e.thread, now_)) {
          CrashDiagnostic d;
          d.now_ns = now_;
          d.tid = e.thread;
          d.events_processed = events_processed_;
          throw CrashError(d);
        }
        // Mid-run checkpoint opportunity: the client decides (interval
        // gating) whether this safe event boundary is worth a snapshot.
        // One branch per event when no client is installed.
        if (recovery_ != nullptr && checkpoint_safe()) {
          recovery_->on_event_boundary(*this);
        }
      }
    } catch (const CrashError& e) {
      // Crash-stop: with a recovery client installed, restore from the
      // last checkpoint and resume the event loop; otherwise the crash is
      // fatal to the run and propagates to the caller.
      if (recovery_ != nullptr) {
        // The restore rewrites the heap behind the observer's back: audit
        // the writes made before the crash, then resync to the restored
        // bytes as at a run start.
        if (write_observer_ != nullptr) write_observer_->on_quiescence();
        if (recovery_->on_crash(*this, e.diagnostic)) {
          if (write_observer_ != nullptr) write_observer_->on_run_start();
          continue;
        }
      }
      throw;
    }
    if (recovery_ != nullptr && checkpoint_safe()) {
      recovery_->on_quiescence(*this);
    }
    if (!resume_after_quiescence()) break;
  }
}

sim::ChoiceKind DesMachine::classify_choice(const sim::Event& e) const {
  switch (e.kind) {
    case kNext:
      return sim::ChoiceKind::kNext;
    case kCommit:
      return e.payload == 0 ? sim::ChoiceKind::kCommitProbe
                            : sim::ChoiceKind::kCommitFinal;
    case kRetry:
      // want_serialize is stable while the retry event is pending: only
      // the thread's own dispatch mutates it, and the thread has exactly
      // this one event in flight.
      return threads_[e.thread]->want_serialize
                 ? sim::ChoiceKind::kSerialAcquire
                 : sim::ChoiceKind::kSpecRetry;
    case kSerialCommit:
      return sim::ChoiceKind::kSerialCommit;
    case kCallback:
    case kDroppable:
      return sim::ChoiceKind::kCallback;
  }
  AAM_CHECK_MSG(false, "unclassifiable event kind");
  return sim::ChoiceKind::kNext;
}

bool DesMachine::commit_would_conflict(std::uint32_t tid) const {
  const auto& ts = *threads_[tid];
  AAM_CHECK_MSG(ts.txn_inflight, "commit_would_conflict without a txn");
  return footprint_committed_since(ts.txn, ts.start_stamp);
}

bool DesMachine::footprint_committed_since(const Txn& tx, std::uint64_t stamp,
                                           bool reads) const {
  const auto committed = [&](const std::vector<std::uint64_t>& units) {
    for (std::uint64_t unit : units) {
      if (unit_stamps_[unit] > stamp) return true;
    }
    return false;
  };
  return (reads && committed(tx.tracker_.read_units())) ||
         committed(tx.tracker_.write_units());
}

void DesMachine::run_controlled(sim::ScheduleController& controller) {
  AAM_CHECK_MSG(!controlled_, "run_controlled is not reentrant");
  controlled_ = true;
  enter_run();
  // The frontier persists across dispatches: events are drained from the
  // queue exactly once (in deterministic pop order), so their relative
  // order — and thus the meaning of a controller's index choices — never
  // depends on heap internals.
  std::vector<sim::Choice> frontier;
  const auto drain = [&] {
    while (!queue_.empty()) {
      const sim::Event e = queue_.pop();
      frontier.push_back(sim::Choice{e, classify_choice(e)});
    }
  };
  drain();
  while (true) {
    if (frontier.empty()) {
      if (!resume_after_quiescence()) break;
      drain();
      continue;
    }
    const std::size_t pick = controller.choose(frontier);
    if (pick == sim::ScheduleController::kStopRun) break;
    AAM_CHECK_MSG(pick < frontier.size(),
                  "schedule controller chose an out-of-range event");
    const sim::Event e = frontier[pick].event;
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
    dispatch(e);
    drain();
  }
  controlled_ = false;
}

void DesMachine::dispatch(const sim::Event& e) {
  ++events_processed_;
  if (controlled_) {
    // An external schedule controller may dispatch frontier events out of
    // global time order; time only moves forward (each thread's own event
    // chain stays monotone regardless of the interleaving).
    now_ = std::max(now_, e.time);
  } else {
    AAM_DCHECK(e.time >= now_);
    now_ = e.time;
  }
  // Progress watchdog: with activities in flight, *something* must
  // complete every watchdog_ns of virtual time — otherwise the retry
  // machinery is livelocked (e.g. an abort storm with the retry cap
  // disabled) and the event loop would spin forever.
  if (resilience_.watchdog_ns > 0 && inflight_txns_ > 0 &&
      now_ - last_progress_ > resilience_.watchdog_ns) {
    StallDiagnostic d;
    d.now_ns = now_;
    d.last_progress_ns = last_progress_;
    d.inflight_txns = inflight_txns_;
    d.events_processed = events_processed_;
    for (std::uint32_t t = 0; t < threads_.size(); ++t) {
      if (threads_[t]->consec_aborts >= d.worst_streak) {
        d.worst_streak = threads_[t]->consec_aborts;
        d.worst_tid = t;
      }
    }
    if (recovery_ != nullptr) {
      d.inflight_messages = recovery_->inflight_messages();
      d.last_checkpoint_id = recovery_->last_checkpoint_id();
    }
    throw StallError(d);
  }
  switch (e.kind) {
    case kNext:
      on_next(e.thread);
      break;
    case kCommit:
      on_commit(e.thread, e.payload);
      break;
    case kRetry: {
      auto& ts = *threads_[e.thread];
      if (ts.want_serialize) {
        enter_serialized(e.thread, e.time);
      } else {
        ts.ctx.clock_ = e.time;
        attempt_speculative(e.thread);
      }
      break;
    }
    case kSerialCommit:
      on_serial_commit(e.thread);
      break;
    case kCallback: {
      const auto slot = static_cast<std::size_t>(e.payload);
      std::function<void()> fn = std::move(callbacks_[slot]);
      callbacks_[slot] = nullptr;
      callback_free_.push_back(slot);
      fn();
      break;
    }
    case kDroppable:
      AAM_DCHECK(droppable_sink_ != nullptr);
      droppable_sink_->on_droppable(e.payload);
      break;
  }
}

void DesMachine::on_next(std::uint32_t tid) {
  auto& ts = *threads_[tid];
  AAM_DCHECK(ts.worker != nullptr);
  ts.ctx.clock_ = std::max(ts.ctx.clock_, now_);
  ts.ctx.staged_ = false;
  const double before = ts.ctx.clock_;
  const bool more = ts.worker->next(ts.ctx);
  if (fault_hook_ != nullptr) {
    // Straggler/brown-out windows stretch the thread's non-transactional
    // work (scans, buffering, sends) by the slowdown factor.
    const double factor = fault_hook_->slowdown(tid, before);
    if (factor > 1.0) {
      ts.ctx.clock_ = before + (ts.ctx.clock_ - before) * factor;
    }
  }
  if (ts.ctx.staged_) {
    ts.ctx.staged_ = false;
    ts.txn_inflight = true;
    ts.want_serialize = false;
    ts.body = std::move(ts.ctx.staged_body_);
    ts.done = std::move(ts.ctx.staged_done_);
    ts.aborts_this_txn = 0;
    ts.capacity_aborts_this_txn = 0;
    ts.escalated_this_txn = false;
    ts.replayable = false;
    ts.first_start = ts.ctx.clock_;
    ++inflight_txns_;
    attempt_speculative(tid);
  } else if (more) {
    queue_.push(ts.ctx.clock_, tid, kNext);
  } else {
    ts.parked = true;
  }
}

void DesMachine::begin_footprint(ThreadState& ts, double start,
                                 bool serialized) {
  Txn& tx = ts.txn;
  tx.start_ = start;
  tx.serialized_ = serialized;
  // Each charge is the sum the path pays per access, added to the duration
  // in one step.
  const auto& a = config_.atomics;
  if (serialized) {
    tx.duration_ = costs_.serialize_acquire_ns;
    tx.load_ns_ = a.load_ns;
    tx.store_ns_ = a.store_ns;
  } else {
    tx.duration_ = costs_.begin_ns;
    tx.load_ns_ = costs_.read_ns + a.load_ns;
    tx.store_ns_ = costs_.write_ns + a.store_ns;
  }
  tx.write_log_.clear();
  footprints_.cover(heap_.used_bytes());
  tx.covered_bytes_ = footprints_.covered_bytes();
  tx.word_slots_ = footprints_.word_slots();
  tx.tracker_.begin_attempt();
}

void DesMachine::attempt_speculative(std::uint32_t tid) {
  auto& ts = *threads_[tid];
  const double start = ts.ctx.clock_;

  // Lock elision: a transaction cannot start while its domain's fallback
  // lock is held; it aborts immediately and retries after the release.
  // The free_at refinement (lock released earlier in virtual time but the
  // release not yet visible) is a timing-model detail: under controlled
  // scheduling global time is schedule-inflated, so it would couple the
  // interleaving back into abort *values* and break the model checker's
  // footprint-based commutativity. Mutual exclusion is carried by `held`.
  SerialDomain& dom = domain_of(tid);
  if (dom.held || (!controlled_ && dom.free_at > start)) {
    ++ts.stats.started;
    handle_abort(tid, AbortReason::kConflict, std::max(dom.free_at, start));
    return;
  }

  ++ts.stats.started;
  // Replayed retry: a body's result is a function of its captures and its
  // Txn reads. When no unit of the last body run's footprint (the lock
  // subscription included) was committed since that run began, a new run
  // would read the same words and end the same way: keep its footprint,
  // write log, cost and outcome. The serialized path never replays: its
  // per-access charges differ.
  const bool replay =
      ts.replayable && !footprint_committed_since(ts.txn, ts.start_stamp);
  ts.start_stamp = commit_stamp_;
  if (replay) {
    ts.txn.start_ = start;
    ts.txn.duration_ = ts.body_ns;
  } else {
    begin_footprint(ts, start, /*serialized=*/false);
    // Subscribe to the domain's fallback lock word (lazy subscription).
    ts.txn.tracker_.add_read(heap_.offset_of(dom.lock));
    ts.body_abort.reset();
    try {
      ts.body(ts.txn);
    } catch (const TxAbort& a) {
      ts.body_abort = a.reason;
    }
    ts.body_ns = ts.txn.duration_;
    ts.replayable = true;
  }

  if (fault_hook_ != nullptr) {
    // Stragglers run their speculative work slower too, widening the
    // window in which they can be conflicted out.
    const double factor = fault_hook_->slowdown(tid, start);
    if (factor > 1.0) ts.txn.duration_ *= factor;
  }

  if (ts.body_abort) {
    // The footprint accumulated up to the faulting access was paid for.
    handle_abort(tid, *ts.body_abort, start + ts.txn.duration_);
    return;
  }

  ts.txn.duration_ += costs_.commit_ns;

  // Injected faults come first, *before* the machine's own model, so every
  // injector fire maps to exactly one observed kOther abort (the injected
  // count and the stats delta must agree — abort.hpp's exactness contract).
  if (fault_hook_ != nullptr) {
    double frac = 0;
    if (fault_hook_->inject_other_abort(tid, start, ts.txn.duration_, frac)) {
      handle_abort(tid, AbortReason::kOther, start + frac * ts.txn.duration_);
      return;
    }
  }

  // Injected asynchronous aborts (interrupts etc.), duration-proportional.
  if (costs_.other_abort_per_us > 0) {
    const double p =
        1.0 - std::exp(-costs_.other_abort_per_us * ts.txn.duration_ / 1e3);
    if (ts.ctx.rng_.next_bool(p)) {
      const double frac = ts.ctx.rng_.next_double();
      handle_abort(tid, AbortReason::kOther, start + frac * ts.txn.duration_);
      return;
    }
  }

  // SMT-sibling evictions of speculative state (capacity-class aborts even
  // for small footprints; see HtmCosts::smt_evict_per_line).
  if (costs_.smt_evict_per_line > 0 && threads_.size() > 1) {
    const double pressure =
        static_cast<double>(threads_.size() - 1) /
        static_cast<double>(std::max(1, config_.max_threads() - 1));
    const double footprint =
        static_cast<double>(ts.txn.tracker_.distinct_write_lines() +
                            ts.txn.tracker_.distinct_read_lines());
    const double p = 1.0 - std::exp(-costs_.smt_evict_per_line * footprint *
                                    pressure);
    if (ts.ctx.rng_.next_bool(p)) {
      const double frac = ts.ctx.rng_.next_double();
      handle_abort(tid, AbortReason::kCapacity,
                   start + frac * ts.txn.duration_);
      return;
    }
  }

  // Eager-ish conflict detection: validate once mid-flight and once at
  // commit. A transaction whose footprint was overwritten early aborts at
  // the midpoint, wasting half the work — as on real HTM, where a
  // conflicting remote write invalidates the speculative line immediately.
  queue_.push(start + ts.txn.duration_ * 0.5, tid, kCommit, /*probe=*/0);
}

void DesMachine::on_commit(std::uint32_t tid, std::uint64_t is_final) {
  auto& ts = *threads_[tid];
  AAM_DCHECK(ts.txn_inflight);
  const double end = now_;

  // First-committer-wins validation: any line in the footprint committed
  // by an overlapping transaction, atomic, or plain store aborts us.
  // SeededBug::kSkipReadValidation drops the read-set half of this check —
  // a planted defect the model checker's mutation fixtures must catch.
  if (footprint_committed_since(
          ts.txn, ts.start_stamp,
          /*reads=*/seeded_bug_ != SeededBug::kSkipReadValidation)) {
    handle_abort(tid, AbortReason::kConflict, end);
    return;
  }
  if (is_final == 0) {
    // Midpoint probe passed: proceed to the real commit point.
    queue_.push(ts.txn.start_ + ts.txn.duration_, tid, kCommit, 1);
    return;
  }

  write_back(ts.txn);
  for (std::uint64_t unit : ts.txn.tracker_.write_units()) {
    bump_unit(unit);
  }
  ++ts.stats.committed;
  finish_txn(tid, /*serialized=*/false, end);
}

void DesMachine::handle_abort(std::uint32_t tid, AbortReason reason,
                              double at_time) {
  auto& ts = *threads_[tid];
  switch (reason) {
    case AbortReason::kConflict: ++ts.stats.aborts_conflict; break;
    case AbortReason::kCapacity:
      ++ts.stats.aborts_capacity;
      ++ts.capacity_aborts_this_txn;
      break;
    case AbortReason::kOther: ++ts.stats.aborts_other; break;
    case AbortReason::kExplicit: ++ts.stats.aborts_explicit; break;
  }
  ++ts.aborts_this_txn;
  ++ts.consec_aborts;

  double resume = at_time + costs_.abort_ns;

  bool serialize = false;
  if (costs_.serialize_after_first_abort) {
    serialize = true;  // HLE (§4.1)
  } else if (ts.aborts_this_txn > costs_.max_retries) {
    serialize = true;  // BG/Q rollback limit / RTM retry budget
  } else if (reason == AbortReason::kCapacity && !costs_.hardware_retry &&
             ts.capacity_aborts_this_txn >= 2) {
    // RTM software retry gives a deterministic overflow one more chance
    // (it may have been a transient associativity conflict), then falls
    // back to the lock.
    serialize = true;
  } else if (resilience_.livelock_watermark > 0 &&
             ts.consec_aborts >= resilience_.livelock_watermark) {
    // Livelock escalation: the thread has aborted this many times in a row
    // across activities without completing anything — the retry policy
    // alone is not making progress (e.g. its cap is disabled, or a storm
    // keeps restarting the streak). Go irrevocable and flag the outcome so
    // AdaptiveBatch can enter its cooldown regime.
    serialize = true;
    ts.escalated_this_txn = true;
  }

  if (serialize) {
    ts.want_serialize = true;
    queue_.push(resume, tid, kRetry);
    return;
  }

  // Retry with exponential backoff to avoid livelock (§4.1). The BG/Q TM
  // runtime also delays between its automatic rollback retries.
  resume += backoff_.wait(ts.aborts_this_txn - 1, ts.ctx.rng_.next_double());
  queue_.push(resume, tid, kRetry);
}

void DesMachine::enter_serialized(std::uint32_t tid, double ready_time) {
  auto& ts = *threads_[tid];
  SerialDomain& dom = domain_of(tid);
  if (dom.held) {
    // Another serializer holds the lock; queue up. on_serial_commit()
    // admits waiters in FIFO order after its writes are visible.
    dom.waiters.push_back(tid);
    return;
  }
  dom.held = true;
  ++ts.stats.serialized;
  const double start = std::max(ready_time, dom.free_at);
  // Taking the lock aborts every overlapping speculative transaction in
  // this domain: they subscribed to this word and will fail validation.
  bump_addr(dom.lock);

  ts.replayable = false;
  begin_footprint(ts, start, /*serialized=*/true);

  bool aborted = false;
  try {
    ts.body(ts.txn);
  } catch (const TxAbort& a) {
    // Only explicit aborts are possible on the irrevocable path; treat as
    // a completed no-op activity (the body chose to do nothing).
    AAM_CHECK_MSG(a.reason == AbortReason::kExplicit,
                  "non-explicit abort on the serialized path");
    aborted = true;
    ts.txn.write_log_.clear();
  }
  (void)aborted;

  if (fault_hook_ != nullptr) {
    const double factor = fault_hook_->slowdown(tid, start);
    if (factor > 1.0) ts.txn.duration_ *= factor;
  }

  const double end = start + ts.txn.duration_;
  dom.free_at = end;
  queue_.push(end, tid, kSerialCommit);
}

void DesMachine::on_serial_commit(std::uint32_t tid) {
  auto& ts = *threads_[tid];
  const double end = now_;
  write_back(ts.txn);
  for (std::uint64_t unit : ts.txn.tracker_.write_units()) {
    bump_unit(unit);
  }
  SerialDomain& dom = domain_of(tid);
  dom.held = false;
  finish_txn(tid, /*serialized=*/true, end);
  if (!dom.waiters.empty()) {
    const std::uint32_t next = dom.waiters.front();
    dom.waiters.erase(dom.waiters.begin());
    enter_serialized(next, end);
  }
}

void DesMachine::finish_txn(std::uint32_t tid, bool serialized,
                            double end_time) {
  // Crash injection point: one consult per completed activity, i.e.
  // "mid-batch" from the executor's point of view. The throw abandons the
  // completion wholesale — counters, callbacks, and the waiter admission
  // below never happen — exactly like a machine losing power.
  if (fault_hook_ != nullptr && !controlled_ &&
      fault_hook_->inject_crash(tid, end_time)) {
    CrashDiagnostic d;
    d.now_ns = end_time;
    d.tid = tid;
    d.events_processed = events_processed_;
    throw CrashError(d);
  }
  auto& ts = *threads_[tid];
  ts.txn_inflight = false;
  ts.want_serialize = false;
  ts.consec_aborts = 0;  // any completion is progress, serialized included
  --inflight_txns_;
  last_progress_ = std::max(last_progress_, end_time);
  ts.ctx.clock_ = end_time;
  if (ts.done) {
    TxnOutcome outcome;
    outcome.serialized = serialized;
    outcome.escalated = ts.escalated_this_txn;
    outcome.aborts = ts.aborts_this_txn;
    outcome.start_ns = ts.first_start;
    outcome.end_ns = end_time;
    TxnDone done = std::move(ts.done);
    ts.done = nullptr;
    ts.ctx.staged_ = false;
    done(ts.ctx, outcome);
    AAM_CHECK_MSG(!ts.ctx.staged_,
                  "staging a transaction from a done callback is not allowed");
  }
  ts.body = nullptr;
  queue_.push(ts.ctx.clock_, tid, kNext);
}

// ---------------------------------------------------------------------------
// Checkpoint core
// ---------------------------------------------------------------------------
//
// The durable core is everything the engine needs to replay the exact
// future of a safe instant: virtual clocks, per-thread RNG stream
// positions, conflict stamps and stripe metadata over the *used* heap
// prefix (units beyond the bump pointer are never touched), domain timing
// gates, statistics (so post-restore accounting matches a crash-free run
// of the same prefix), and every other pending event in (time, seq)
// order. Deliberately volatile — not saved, reconstructed or irrelevant:
//   * kCallback events: required to be zero (safety predicate).
//   * kDroppable events: re-derived by their sink (the network layer)
//     from its own checkpointed protocol state.
//   * EventQueue::next_seq_ and events_processed_: only the *relative*
//     order of re-pushed events matters; both keep counting up.
//   * In-flight transaction scratch (write logs, trackers, the footprint
//     table's tags and write index): dead at a safe instant by definition.

void DesMachine::durable(util::BlobIo& io) {
  if (io.saving()) {
    AAM_CHECK_MSG(checkpoint_safe(), "checkpoint outside a safe instant");
  }
  io(now_, last_progress_, commit_stamp_);

  std::uint64_t used_units = (heap_.used_bytes() >> conflict_shift_) + 1;
  io(used_units);
  AAM_CHECK_MSG(used_units <= unit_stamps_.size(),
                "core snapshot does not match this heap layout");
  io.elements(std::span(unit_stamps_.data(), used_units));

  std::uint64_t used_lines = heap_.used_bytes() / mem::kLineBytes + 1;
  io(used_lines);
  AAM_CHECK_MSG(used_lines <= stripes_.num_lines(),
                "core snapshot does not match this heap layout");
  for (mem::LineId l = 0; l < used_lines; ++l) {
    sim::Time available_at = stripes_.available_at(l);
    std::uint32_t owner = stripes_.owner(l);  // kNoOwner when untouched
    io(available_at, owner);
    if (io.restoring()) {
      stripes_.set_available_at(l, available_at);
      stripes_.set_owner(l, owner);
    }
  }

  io.count(threads_.size(), "core snapshot thread count mismatch");
  for (auto& tsp : threads_) {
    ThreadState& ts = *tsp;
    if (io.saving()) {
      AAM_CHECK_MSG(!ts.txn_inflight, "checkpoint with an in-flight txn");
    }
    io(ts.ctx.clock_, ts.ctx.rng_, ts.parked, ts.consec_aborts, ts.stats);
  }

  io.count(domains_.size(), "core snapshot domain count mismatch");
  for (SerialDomain& d : domains_) {
    if (io.saving()) {
      AAM_CHECK_MSG(!d.held && d.waiters.empty(),
                    "checkpoint with an active serializer");
    }
    io(d.free_at, d.atomic_free);
  }

  std::vector<sim::Event> pending;
  if (io.saving()) {
    queue_.for_each([&pending](const sim::Event& e) {
      if (e.kind != kCallback && e.kind != kDroppable) pending.push_back(e);
    });
    std::sort(pending.begin(), pending.end(),
              [](const sim::Event& a, const sim::Event& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.seq < b.seq;
              });
  }
  io(pending);
  if (io.restoring()) drop_volatile_and_requeue(pending);
}

void DesMachine::drop_volatile_and_requeue(
    const std::vector<sim::Event>& pending) {
  // In-flight state dies with the crash.
  for (auto& tsp : threads_) {
    ThreadState& ts = *tsp;
    ts.txn_inflight = false;
    ts.want_serialize = false;
    ts.body = nullptr;
    ts.done = nullptr;
    ts.ctx.staged_ = false;
    ts.ctx.staged_body_ = nullptr;
    ts.ctx.staged_done_ = nullptr;
    ts.aborts_this_txn = 0;
    ts.capacity_aborts_this_txn = 0;
    ts.escalated_this_txn = false;
    ts.replayable = false;
    ts.txn.write_log_.clear();
  }
  for (SerialDomain& d : domains_) {
    d.held = false;
    d.waiters.clear();
  }
  inflight_txns_ = 0;

  // Drop every pending event, scheduled callback and droppable event,
  // then re-push the saved events in (time, seq) order: fresh sequence
  // numbers ascend in the same relative order, so the replayed schedule is
  // bit-identical.
  queue_.clear();
  callbacks_.clear();
  callback_free_.clear();
  for (const sim::Event& e : pending) {
    AAM_CHECK_MSG(e.kind < kCallback,
                  "callback or droppable event in a core snapshot");
    queue_.push(e.time, e.thread, e.kind, e.payload);
  }
}

}  // namespace aam::htm
