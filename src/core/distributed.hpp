#pragma once

// Distributed AAM runtime (§3.2, §4.2, §5.6).
//
// Spawners route single-element operator invocations to the owner node of
// the element. Invocations targeting the same remote node are *coalesced*
// into one atomic active message of up to C items (§4.2); the receiving
// node executes each message's batch as ONE hardware transaction (the
// inter-node form of coarsening, §5.6). Local invocations are batched the
// same way without network cost.
//
// Fire-and-Return support: an FR operator returns a 64-bit result per item;
// non-zero results are coalesced into a reply message to the spawner node,
// where the registered *failure handler* runs (§3.2.1).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/executor.hpp"
#include "core/executor_impl.hpp"
#include "htm/resilience.hpp"
#include "net/cluster.hpp"

namespace aam::core {

class DistributedRuntime {
 public:
  struct Options {
    int coalesce = 16;  ///< C: items per atomic active message
    /// The executor of every operator batch: `batch` is M, the items per
    /// locally-spawned activity; the mechanism is the receiver-side
    /// synchronization (§4.1), one coarse transaction per batch by default.
    ExecConfig exec;
  };

  /// Optional receiver-side sharding (§4.2: the runtime "reduces the
  /// amount of synchronization even further"): maps an item to a local
  /// thread index in [0, threads_per_node). Incoming batches are split by
  /// shard and each sub-batch executes only on its owning thread, so
  /// concurrent transactions on one node never overlap — eliminating
  /// intra-node conflict aborts for partitionable operators. The mapping
  /// must be line-granular (items sharing a cache line on the same shard).
  using ShardFn = std::function<std::uint32_t(std::uint64_t item)>;
  void set_sharding(ShardFn shard) { shard_ = std::move(shard); }

  using FailureHandler =
      std::function<void(htm::ThreadCtx&, std::uint64_t result)>;

  DistributedRuntime(net::Cluster& cluster, Options options);

  /// Configure as Fire-and-Forget (PageRank, BFS styles). The operator
  /// must be generic over the access type (`[](auto& access, item)`): it
  /// is instantiated against every access type of core/executor_impl.hpp.
  template <typename Op>
  void set_operator(Op op, OperatorId op_id = OperatorId::kUnknown) {
    mode_ = Mode::kFf;
    on_result_ = nullptr;
    op_plain_ = nullptr;
    exec_fn_ = [this, op = std::move(op), op_id](
                   htm::ThreadCtx& ctx, const std::vector<std::uint64_t>& batch,
                   int /*reply_node*/) mutable {
      // One coarse activity per batch (coalesced, §5.6), applied under
      // the configured mechanism. `batch` is the thread's in-flight slot,
      // which outlives the staged activity.
      execute_batch(*executor_, ctx, batch.size(),
                    [&op, items = &batch](auto& access, std::uint64_t i) {
                      op(access, (*items)[i]);
                    },
                    {}, op_id);
    };
  }

  /// Configure as Fire-and-Return with a failure handler (ST connectivity,
  /// coloring, Boruvka styles). `op` returns 0 for "nothing to report" or
  /// a non-zero result that flows back to the spawner's failure handler.
  /// Same genericity requirement as set_operator; the handler stays
  /// type-erased (rare, per-result).
  template <typename Op>
  void set_operator_fr(Op op, FailureHandler on_result,
                       OperatorId op_id = OperatorId::kUnknown) {
    mode_ = Mode::kFr;
    on_result_ = std::move(on_result);
    op_plain_ = nullptr;
    exec_fn_ = [this, op = std::move(op), op_id](
                   htm::ThreadCtx& ctx, const std::vector<std::uint64_t>& batch,
                   int reply_node) mutable {
      // Non-zero per-item results are emitted through the executor (which
      // keeps them re-execution-safe) and flow back to the spawner.
      execute_batch(
          *executor_, ctx, batch.size(),
          [&op, items = &batch](auto& access, std::uint64_t i) {
            const std::uint64_t r = op(access, (*items)[i]);
            if (r != 0) access.emit(r);
          },
          [this, reply_node](htm::ThreadCtx& done_ctx,
                             std::span<const std::uint64_t> results) {
            reply(done_ctx, reply_node, results);
          },
          op_id);
    };
  }

  /// Non-transactional apply path: items are applied with per-item plain /
  /// atomic operations on the receiving thread instead of a coarse
  /// transaction. Used by AM baselines (the PBGL-like PageRank of §6.2)
  /// for an apples-to-apples comparison against AAM's coarse activities.
  using ItemOpPlain = std::function<void(htm::ThreadCtx&, std::uint64_t item)>;
  void set_operator_plain(ItemOpPlain op, double per_item_overhead_ns = 0.0);

  /// Spawner API: route `item` to its owner. Local items are buffered into
  /// per-thread batches; remote ones into per-thread coalescing buffers.
  /// May stage a transaction (when a local batch fills) — the caller must
  /// stop issuing work for this next() round once ctx.has_staged().
  void spawn(htm::ThreadCtx& ctx, int owner_node, std::uint64_t item);

  /// Flushes this thread's partial buffers (local batch and coalescers).
  /// May stage a transaction; check ctx.has_staged() afterwards.
  void flush(htm::ThreadCtx& ctx);

  /// Receiver progress: executes one pending batch (incoming message or
  /// local batch) as a single transaction. Returns true if it staged work
  /// or processed a message. Call from workers when out of spawn work.
  bool progress(htm::ThreadCtx& ctx);

  /// True when no batches are pending anywhere and nothing is in flight.
  /// (Per-thread partial buffers are the caller's responsibility: flush.)
  bool drained() const;

  std::uint64_t items_executed() const { return items_executed_; }
  std::uint64_t batches_executed() const { return batches_executed_; }
  net::Cluster& cluster() { return cluster_; }

  /// Checkpoint support (src/recovery/): the runtime's durable host
  /// state — coalescer and local-batch buffers, the pending batch queues,
  /// and the executor's control state. Registered automatically with the
  /// machine's RecoveryClient.
  void durable(util::BlobIo& io);

  /// A convenience worker: drains incoming work, then produces spawns via
  /// `produce` (return false when out of items), then flushes and parks.
  /// It registers durable() with the machine's RecoveryClient, which must
  /// outlive it.
  class Worker : public htm::Worker {
   public:
    explicit Worker(DistributedRuntime& rt)
        : rt_(rt),
          ckpt_(rt.cluster().machine().recovery_client(),
                [this](util::BlobIo& io) { durable(io); }) {}
    bool next(htm::ThreadCtx& ctx) final;

   protected:
    /// Issue some spawn() calls; return false when production is finished.
    /// Must return promptly once ctx.has_staged(). The default produces
    /// nothing — a pure consumer/receiver worker.
    virtual bool produce(htm::ThreadCtx& ctx) {
      (void)ctx;
      return false;
    }

   public:
    /// Checkpoint support: the production/flush phase flags are durable.
    /// Subclasses with their own production state call this first, then
    /// list their own fields.
    virtual void durable(util::BlobIo& io) { io(production_done_, flushed_); }

   private:
    DistributedRuntime& rt_;
    bool production_done_ = false;
    bool flushed_ = false;
    htm::ScopedHostState ckpt_;
  };

 private:
  struct Batch {
    std::vector<std::uint64_t> items;
    int reply_node = -1;  ///< for FR: where results go (-1: local batch)

    void durable(util::BlobIo& io) { io(reply_node, items); }
  };

  enum class Mode { kNone, kFf, kFr, kPlain };

  /// Batch-granular type erasure: owns the registered operator and runs
  /// one batch (items, reply node) through the executor. Alive as long as
  /// the registration, so transactions staged against it never dangle.
  using ExecFn = std::function<void(
      htm::ThreadCtx&, const std::vector<std::uint64_t>&, int reply_node)>;

  /// Runs one batch; `items` must outlive the activity it stages.
  void stage_batch(htm::ThreadCtx& ctx,
                   const std::vector<std::uint64_t>& items, int reply_node);
  /// Queues `items` for execution on `node` (split by shard when sharding
  /// is set). Copies the items into recycled buffers; never keeps `items`.
  void enqueue_batch(int node, std::span<const std::uint64_t> items,
                     int reply_node);
  /// An empty item buffer from the spare list (reserved at M when the
  /// list is empty).
  std::vector<std::uint64_t> take_buffer();
  /// Routes committed FR results to `reply_node` (runs the failure
  /// handler locally or sends a reply message).
  void reply(htm::ThreadCtx& ctx, int reply_node,
             std::span<const std::uint64_t> results);

  net::Cluster& cluster_;
  Options options_;
  std::unique_ptr<ActivityExecutor> executor_;
  Mode mode_ = Mode::kNone;
  ExecFn exec_fn_;
  ItemOpPlain op_plain_;
  double plain_overhead_ns_ = 0.0;
  FailureHandler on_result_;
  std::uint32_t op_handler_ = 0;
  std::uint32_t reply_handler_ = 0;

  // Per sending thread: remote coalescers and local batch buffers.
  std::vector<net::Coalescer> coalescers_;
  std::vector<std::vector<std::uint64_t>> local_buffers_;

  // Per node: batches awaiting transactional execution; with sharding,
  // per-thread queues are used instead.
  std::vector<std::deque<Batch>> pending_;
  std::vector<std::deque<Batch>> pending_sharded_;  // per global thread id
  std::uint64_t pending_total_ = 0;
  ShardFn shard_;

  // Host-side buffer recycling, not durable state. in_flight_[t] holds the
  // items of thread t's staged FF/FR activity (the engine allows one in
  // flight per thread, and none at a safe instant); spare_ holds emptied
  // buffers that keep their capacity.
  std::vector<std::vector<std::uint64_t>> in_flight_;
  std::vector<std::vector<std::uint64_t>> spare_;

  std::uint64_t items_executed_ = 0;
  std::uint64_t batches_executed_ = 0;

  // Checkpoint registration (src/recovery/): no-op when the machine has no
  // recovery client. Declared last so registration happens after the
  // buffers exist and unregistration before they are torn down.
  htm::ScopedHostState ckpt_;
};

}  // namespace aam::core
