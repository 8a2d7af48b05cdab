#pragma once

// Host worker pool of the parallel DES backend.
//
// HostPool owns N-1 detachedly parked std::threads plus the calling
// thread; ShardRunner::run() hands them a job list and self-schedules it
// with an atomic cursor (the per-CPU run-queue idiom: workers pull the
// next unstarted shard instead of being assigned static slices, so a
// heavyweight shard — say STM PageRank at scale 18 — does not leave three
// workers idle behind a static partition).
//
// Determinism contract: a shard job must be a pure function of its
// ShardId (plus whatever immutable inputs the caller closed over). The
// runner guarantees each job runs exactly once, under ShardGuard(id),
// and that all side effects are visible to the caller when run()
// returns; callers write results into pre-sized slot `id` of an output
// vector and assemble them in shard order, so the observable output is
// identical for every --host-threads value. With workers == 1 (or a
// single job) run() executes inline on the caller with no thread
// machinery — that is the sequential engine, byte-for-byte.

#include <cstddef>
#include <functional>

#include "sim/shard.hpp"

namespace aam::sim {

/// Runs `job(0) .. job(n-1)` across up to `workers` host threads.
class ShardRunner {
 public:
  /// `workers` <= 0 means "use sim::host_threads()".
  explicit ShardRunner(int workers = 0);

  int workers() const { return workers_; }

  /// Executes all jobs; returns when every job has finished. The first
  /// exception thrown by any job is rethrown on the caller after the
  /// remaining workers drain (pending unstarted jobs are cancelled).
  void run(std::size_t num_jobs, const std::function<void(ShardId)>& job);

 private:
  int workers_;
};

}  // namespace aam::sim
