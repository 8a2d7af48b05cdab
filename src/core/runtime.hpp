#pragma once

// Intra-node AAM runtime (§3, §4.2) for a fixed worklist.
//
// AamRuntime executes a worklist of operator invocations on all threads of
// a DesMachine through a pluggable ActivityExecutor: by default up to M
// single-element operators run inside one hardware transaction, amortizing
// the begin/commit overhead and reducing fine-grained synchronization
// (§4.2, Listing 8), but any Mechanism can be selected for the §4.1
// executor comparison. PageRank runs on it: every iteration's worklist is
// all vertices. Algorithms whose next worklist is built from the results
// of the current one (BFS, SSSP, st-connectivity, coloring, Boruvka) run
// on the round runner in core/frontier.hpp instead.
//
// The operator receives the mechanism's access surface and an item index;
// the May-Fail/Always-Succeed distinction (§3.2.2) lives in the operator
// body (a MF operator observes state and may do nothing), while hardware
// aborts are always retried by the engine per the HTM policy.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adaptive.hpp"
#include "core/executor.hpp"
#include "core/executor_impl.hpp"
#include "core/worklist.hpp"
#include "htm/des_engine.hpp"
#include "htm/resilience.hpp"

namespace aam::core {

class AamRuntime {
 public:
  using Options = ExecConfig;

  AamRuntime(htm::DesMachine& machine, Options options);
  ~AamRuntime();

  AamRuntime(const AamRuntime&) = delete;
  AamRuntime& operator=(const AamRuntime&) = delete;

  /// Applies `op(access, item)` to every item in [0, count) across all
  /// machine threads, batching M invocations per activity. Returns when
  /// all committed. (Fire-and-Forget usage; the op's own logic provides
  /// AS/MF semantics.) The operator must be generic over the access type
  /// (`[](auto& access, std::uint64_t item)`): it is instantiated against
  /// every access type of core/executor_impl.hpp. One std::function hop
  /// remains per claimed *batch* of M items.
  /// `op_id` tags the batches with the operator's identity for the
  /// check::/analysis:: layers (see core::OperatorId).
  template <typename Op>
  void for_each(std::uint64_t count, Op op,
                OperatorId op_id = OperatorId::kUnknown) {
    run_batches(count,
                [this, op = std::move(op), op_id](htm::ThreadCtx& ctx,
                                                  std::uint64_t begin,
                                                  std::uint64_t end) mutable {
                  execute_batch(*executor_, ctx, end - begin,
                                [&op, begin](auto& access, std::uint64_t i) {
                                  op(access, begin + i);
                                },
                                {}, op_id);
                });
  }

  int batch() const { return executor_->preferred_batch(); }
  void set_batch(int m) { executor_->set_batch(m); }

  /// Enables online M selection (§7 extension): the runtime claims chunks
  /// of the controller's current batch size and feeds activity outcomes
  /// back into it. Pass nullptr to return to the fixed batch.
  void set_adaptive(AdaptiveBatch* adaptive) {
    executor_->set_adaptive(adaptive);
  }
  AdaptiveBatch* adaptive() { return executor_->adaptive(); }

  htm::DesMachine& machine() { return machine_; }

 private:
  class BatchWorker;

  /// Batch-granular type erasure: applies [begin, end) of the current
  /// worklist. Stays alive for the whole machine run, so the access-typed
  /// operator it owns outlives any transaction staged against it.
  using BatchFn =
      std::function<void(htm::ThreadCtx&, std::uint64_t, std::uint64_t)>;

  void run_batches(std::uint64_t count, BatchFn fn);

  htm::DesMachine& machine_;
  std::unique_ptr<ActivityExecutor> executor_;
  ChunkCursor cursor_;
  std::vector<std::unique_ptr<BatchWorker>> workers_;
  BatchFn batch_fn_;
  std::uint64_t count_ = 0;
  // Checkpoint registration (src/recovery/): the executor's control state
  // is the runtime's only durable host state — the chunk cursor lives on
  // the SimHeap and the batch workers are stateless. No-op when the
  // machine has no recovery client.
  htm::ScopedHostState ckpt_;
};

}  // namespace aam::core
