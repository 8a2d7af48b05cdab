#pragma once

// One frontier loop for the intra-node algorithms (§3.2, §4.2).
//
// The AAM runtime spawns single-element operators from a frontier and
// runs them M at a time in coarse activities, one round per frontier.
// This header writes that loop once, in pieces that never branch on which
// algorithm calls them:
//
// - RoundRunner drives any round-based algorithm. It owns the executor,
//   one worker per machine thread, the barrier between rounds and the one
//   checkpoint registration (src/recovery/) that holds the algorithm's
//   host fields, the executor's control state and every worker's state.
// - FrontierWorker is the per-thread state machine of a frontier
//   algorithm: visit a full batch of M pending items, else claim a chunk
//   of the frontier and scan it, else flush what is pending.
// - FrontierLoop couples a RoundRunner of FrontierWorkers with the chunk
//   cursor over the frontier and gathers the workers' next-frontier lists
//   in worker order.
//
// An algorithm supplies its claim limit, scan() and visit() by CRTP, so
// both inline into next() as hand-written code would, plus a round-end
// callback that decides dedupe and termination.
//
// Heap offsets are simulated state (they feed stripe hashing and conflict
// units), so construction order is part of the contract: the algorithm
// allocates its arrays, then builds the runner or loop (the executor's
// lock and orec tables, then the loop's cursor), then cursors of its own.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/executor.hpp"
#include "core/worklist.hpp"
#include "htm/des_engine.hpp"
#include "htm/resilience.hpp"
#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::core {

/// Runs an algorithm as rounds of work on every thread of a DesMachine.
/// `W` is the worker type: an htm::Worker with a `durable(util::BlobIo&)`
/// member that lists every field of the worker that outlives a dispatch.
template <typename W>
class RoundRunner {
 public:
  RoundRunner(htm::DesMachine& machine, const ExecConfig& exec)
      : machine_(machine), executor_(make_executor(machine, exec)) {}

  // The machine holds the workers' addresses.
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  ActivityExecutor& executor() { return *executor_; }
  std::vector<W>& workers() { return workers_; }

  /// Resets the machine's clocks and statistics, installs `make(t)` as
  /// thread t's worker and runs to the final quiescence. At each
  /// quiescence `round_end()` returns whether another round follows; if
  /// so, the threads pass a barrier of `barrier_cost_ns`.
  /// `durable(util::BlobIo& io)` calls `io` once with every host field of
  /// the algorithm that a round changes: with the executor's control state
  /// and the workers' fields they are the run's checkpointed host state.
  template <typename Make, typename RoundEnd, typename Durable>
  void run(double barrier_cost_ns, Make make, RoundEnd round_end,
           Durable durable) {
    machine_.reset_clocks();
    const int threads = machine_.num_threads();
    // The machine keeps pointers to the workers: no reallocation.
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers_.push_back(make(t));
      machine_.set_worker(static_cast<std::uint32_t>(t), &workers_.back());
    }
    machine_.set_quiescence_hook([&](htm::DesMachine& m) {
      if (!round_end()) return false;
      m.barrier_release(barrier_cost_ns);
      return true;
    });
    htm::ScopedHostState ckpt(machine_.recovery_client(),
                              [&](util::BlobIo& io) {
                                durable(io);
                                executor_->durable(io);
                                for (W& worker : workers_) io(worker);
                              });
    machine_.run();
    machine_.set_quiescence_hook(nullptr);
  }

 private:
  htm::DesMachine& machine_;
  std::unique_ptr<ActivityExecutor> executor_;
  std::vector<W> workers_;
};

/// What the workers of one FrontierLoop share: the cursor over the
/// current frontier and the claim and batch sizes.
struct FrontierClaim {
  ChunkCursor& cursor;
  std::size_t batch;         ///< M: pending items visited per activity
  std::uint32_t scan_chunk;  ///< claim-limit units claimed per scan
};

/// Per-thread frontier state machine. `Derived` supplies
///   std::uint64_t claim_limit();  // the frontier's size in claim units
///   void scan(htm::ThreadCtx&, std::uint64_t begin, std::uint64_t end);
///        // expands claim units [begin, end) into pending_
///   void visit(htm::ThreadCtx&, std::size_t count);
///        // forms a batch of `count` pending items and executes it,
///        // appending the round's results to next_
/// and may hide parked() to stop before its pending items run out.
template <typename Derived, typename Item, typename Next>
class FrontierWorker : public htm::Worker {
 public:
  using NextItem = Next;

  explicit FrontierWorker(const FrontierClaim& claim) : claim_(claim) {}

  bool next(htm::ThreadCtx& ctx) final {
    Derived& self = static_cast<Derived&>(*this);
    if (self.parked()) return false;
    if (pending_.size() >= claim_.batch) {
      self.visit(ctx, claim_.batch);
      return true;
    }
    if (!done_scanning_) {
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      if (claim_.cursor.claim(ctx, self.claim_limit(), claim_.scan_chunk,
                              begin, end)) {
        self.scan(ctx, begin, end);
        return true;
      }
      done_scanning_ = true;
    }
    if (!pending_.empty()) {
      self.visit(ctx, pending_.size());
      return true;
    }
    return false;  // round finished for this thread
  }

  bool parked() const { return false; }

  /// Checkpointed state. batch_ is only live while a staged transaction
  /// is in flight, which checkpoint-safe instants exclude.
  void durable(util::BlobIo& io) { io(pending_, next_, done_scanning_); }

  /// Appends this round's results to `out` and rearms the scan.
  void hand_over(std::vector<Next>& out) {
    out.insert(out.end(), next_.begin(), next_.end());
    next_.clear();
    done_scanning_ = false;
  }

 protected:
  /// Moves the last `count` pending items, in order, into batch_.
  void take_tail(std::size_t count) {
    batch_.assign(pending_.end() - static_cast<std::ptrdiff_t>(count),
                  pending_.end());
    pending_.resize(pending_.size() - count);
  }

  std::vector<Item> pending_;
  std::vector<Item> batch_;
  std::vector<Next> next_;

 private:
  FrontierClaim claim_;
  bool done_scanning_ = false;
};

/// A RoundRunner of FrontierWorkers `W` plus the cursor over the frontier.
template <typename W>
class FrontierLoop {
 public:
  /// Workers visit `exec.batch` items per activity and claim `scan_chunk`
  /// claim-limit units per scan.
  FrontierLoop(htm::DesMachine& machine, const ExecConfig& exec,
               int scan_chunk)
      : runner_(machine, exec),
        cursor_(machine.heap()),
        claim_{cursor_, static_cast<std::size_t>(exec.batch),
               static_cast<std::uint32_t>(scan_chunk)} {
    AAM_CHECK(exec.batch >= 1 && scan_chunk >= 1);
  }

  ActivityExecutor& executor() { return runner_.executor(); }
  const FrontierClaim& claim() const { return claim_; }

  /// RoundRunner::run over frontier rounds: `round_end(next)` receives the
  /// workers' results in worker order and returns whether another round
  /// follows; if so, it has installed the new frontier and the cursor is
  /// rewound.
  template <typename Make, typename RoundEnd, typename Durable>
  void run(double barrier_cost_ns, Make make, RoundEnd round_end,
           Durable durable) {
    runner_.run(
        barrier_cost_ns, make,
        [&] {
          std::vector<typename W::NextItem> next;
          for (W& w : runner_.workers()) w.hand_over(next);
          if (!round_end(next)) return false;
          cursor_.reset_direct();
          return true;
        },
        durable);
  }

 private:
  RoundRunner<W> runner_;
  ChunkCursor cursor_;
  FrontierClaim claim_;
};

}  // namespace aam::core
