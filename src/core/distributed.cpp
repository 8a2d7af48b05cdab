#include "core/distributed.hpp"

#include "util/check.hpp"

namespace aam::core {

DistributedRuntime::DistributedRuntime(net::Cluster& cluster, Options options)
    : cluster_(cluster),
      options_(options),
      executor_(make_executor(cluster.machine(), options.exec)),
      ckpt_(cluster.machine().recovery_client(),
            [this](util::BlobIo& io) { durable(io); }) {
  AAM_CHECK(options_.coalesce >= 1 && options_.exec.batch >= 1);

  // Incoming operator batches: queue them for transactional execution by
  // the polling thread (progress() stages the transaction).
  op_handler_ = cluster_.register_handler(
      [this](htm::ThreadCtx&, const net::Message& msg) {
        // (plain batches carry no reply.)
        enqueue_batch(msg.dst_node, msg.payload,
                      mode_ == Mode::kFr ? msg.src_node : -1);
      });

  // FR replies: run the failure handler for each returned result.
  reply_handler_ = cluster_.register_handler(
      [this](htm::ThreadCtx& ctx, const net::Message& msg) {
        AAM_CHECK_MSG(on_result_, "FR reply without a failure handler");
        for (std::uint64_t result : msg.payload) on_result_(ctx, result);
      });

  const int threads = cluster_.num_nodes() * cluster_.threads_per_node();
  coalescers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    coalescers_.emplace_back(cluster_, op_handler_, options_.coalesce);
  }
  local_buffers_.resize(static_cast<std::size_t>(threads));
  pending_.resize(static_cast<std::size_t>(cluster_.num_nodes()));
  pending_sharded_.resize(static_cast<std::size_t>(threads));
  in_flight_.resize(static_cast<std::size_t>(threads));
}

void DistributedRuntime::set_operator_plain(ItemOpPlain op,
                                            double per_item_overhead_ns) {
  mode_ = Mode::kPlain;
  op_plain_ = std::move(op);
  plain_overhead_ns_ = per_item_overhead_ns;
  exec_fn_ = nullptr;
  on_result_ = nullptr;
}

void DistributedRuntime::spawn(htm::ThreadCtx& ctx, int owner_node,
                               std::uint64_t item) {
  const std::uint32_t tid = ctx.thread_id();
  const int my_node = cluster_.node_of_thread(tid);
  if (owner_node == my_node) {
    auto& buf = local_buffers_[tid];
    buf.push_back(item);
    if (static_cast<int>(buf.size()) >= options_.exec.batch) {
      enqueue_batch(my_node, buf, mode_ == Mode::kFr ? my_node : -1);
      buf.clear();
    }
  } else {
    coalescers_[tid].add(ctx, owner_node, item);
  }
}

void DistributedRuntime::flush(htm::ThreadCtx& ctx) {
  const std::uint32_t tid = ctx.thread_id();
  auto& buf = local_buffers_[tid];
  if (!buf.empty()) {
    const int my_node = cluster_.node_of_thread(tid);
    enqueue_batch(my_node, buf, mode_ == Mode::kFr ? my_node : -1);
    buf.clear();
  }
  coalescers_[tid].flush_all(ctx);
}

std::vector<std::uint64_t> DistributedRuntime::take_buffer() {
  if (spare_.empty()) {
    std::vector<std::uint64_t> buf;
    buf.reserve(static_cast<std::size_t>(options_.exec.batch));
    return buf;
  }
  std::vector<std::uint64_t> buf = std::move(spare_.back());
  spare_.pop_back();
  return buf;
}

void DistributedRuntime::enqueue_batch(int node,
                                       std::span<const std::uint64_t> items,
                                       int reply_node) {
  if (!shard_) {
    Batch b{take_buffer(), reply_node};
    b.items.assign(items.begin(), items.end());
    pending_[static_cast<std::size_t>(node)].push_back(std::move(b));
    ++pending_total_;
  } else {
    // Split the batch by receiver shard; each sub-batch runs only on its
    // owning thread, making same-node transactions conflict-free.
    const int tpn = cluster_.threads_per_node();
    for (std::uint64_t item : items) {
      const auto shard = static_cast<int>(shard_(item)) % tpn;
      const std::uint32_t tid = cluster_.thread_of(node, shard);
      auto& q = pending_sharded_[tid];
      if (q.empty() || q.back().reply_node != reply_node ||
          static_cast<int>(q.back().items.size()) >= options_.exec.batch) {
        q.push_back(Batch{take_buffer(), reply_node});
        ++pending_total_;
      }
      q.back().items.push_back(item);
    }
  }
  // Wake the node's threads so someone executes the work even if everyone
  // already parked.
  for (int t = 0; t < cluster_.threads_per_node(); ++t) {
    cluster_.machine().wake(cluster_.thread_of(node, t));
  }
}

bool DistributedRuntime::progress(htm::ThreadCtx& ctx) {
  const int node = cluster_.node_of_thread(ctx.thread_id());
  auto& my_shard = pending_sharded_[ctx.thread_id()];
  auto& q = shard_ ? my_shard : pending_[static_cast<std::size_t>(node)];
  if (q.empty()) {
    // Pull one message off the wire; its handler enqueues batches.
    net::Message msg;
    if (!cluster_.poll(ctx, msg)) return false;
    cluster_.run_handler(ctx, msg);
    if (q.empty()) return true;  // reply message, or work for other shards
  }
  // The batch's items move into this thread's in-flight slot, which the
  // staged activity reads. The thread's previous activity has completed
  // (the engine keeps at most one in flight per thread), so the slot's
  // old buffer is free to recycle.
  auto& slot = in_flight_[ctx.thread_id()];
  slot.swap(q.front().items);
  const int reply_node = q.front().reply_node;
  q.front().items.clear();
  spare_.push_back(std::move(q.front().items));
  q.pop_front();
  --pending_total_;
  stage_batch(ctx, slot, reply_node);
  return true;
}

void DistributedRuntime::stage_batch(htm::ThreadCtx& ctx,
                                     const std::vector<std::uint64_t>& items,
                                     int reply_node) {
  AAM_CHECK_MSG(mode_ != Mode::kNone, "no operator registered");
  items_executed_ += items.size();
  ++batches_executed_;

  if (mode_ == Mode::kPlain) {
    // Per-item application with the baseline's software overhead; no
    // transaction, no coarsening.
    for (std::uint64_t item : items) {
      ctx.compute(plain_overhead_ns_);
      op_plain_(ctx, item);
    }
    return;
  }

  // FF/FR: the registered ExecFn owns the operator and runs the batch
  // through the executor (see the templated setters in the header).
  exec_fn_(ctx, items, reply_node);
}

void DistributedRuntime::reply(htm::ThreadCtx& ctx, int reply_node,
                               std::span<const std::uint64_t> results) {
  if (results.empty()) return;
  const int my_node = cluster_.node_of_thread(ctx.thread_id());
  if (reply_node == my_node) {
    for (std::uint64_t r : results) on_result_(ctx, r);
  } else {
    cluster_.send(ctx, reply_node, reply_handler_, 0, 0,
                  std::vector<std::uint64_t>(results.begin(), results.end()));
  }
}

void DistributedRuntime::durable(util::BlobIo& io) {
  executor_->durable(io);
  io.each(coalescers_,
          "distributed runtime thread count changed since checkpoint");
  io.each(local_buffers_,
          "distributed runtime thread count changed since checkpoint");
  io.each(pending_, "distributed runtime topology changed since checkpoint");
  io.each(pending_sharded_,
          "distributed runtime topology changed since checkpoint");
  io(pending_total_, items_executed_, batches_executed_);
}

bool DistributedRuntime::drained() const {
  if (pending_total_ != 0 || cluster_.in_flight() != 0) return false;
  for (int node = 0; node < cluster_.num_nodes(); ++node) {
    if (!cluster_.queue_empty(node)) return false;
  }
  return true;
}

bool DistributedRuntime::Worker::next(htm::ThreadCtx& ctx) {
  if (rt_.progress(ctx)) return true;
  if (!production_done_) {
    if (produce(ctx)) return true;
    production_done_ = true;
    return true;  // come back once more to flush
  }
  if (!flushed_) {
    flushed_ = true;
    rt_.flush(ctx);
    return true;
  }
  return false;  // park; message deliveries wake us
}

}  // namespace aam::core
