#include "net/cluster.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aam::net {

Cluster::Cluster(const model::MachineConfig& config, model::HtmKind kind,
                 int num_nodes, int threads_per_node, mem::SimHeap& heap,
                 std::uint64_t seed)
    : machine_(config, kind, num_nodes * threads_per_node, heap, seed,
               /*num_domains=*/num_nodes),
      num_nodes_(num_nodes),
      threads_per_node_(threads_per_node),
      queues_(static_cast<std::size_t>(num_nodes)) {
  AAM_CHECK(num_nodes >= 1 && threads_per_node >= 1);
}

std::uint32_t Cluster::register_handler(AmHandler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

void Cluster::set_fault_hook(NetFaultHook* hook) {
  AAM_CHECK_MSG(in_flight_ == 0,
                "fault hook must be (un)installed with no messages in flight");
  net_hook_ = hook;
  if (hook != nullptr && send_channels_.empty()) {
    const std::size_t pairs = static_cast<std::size_t>(num_nodes_) *
                              static_cast<std::size_t>(num_nodes_);
    send_channels_.resize(pairs);
    recv_channels_.resize(pairs);
  }
}

void Cluster::send(htm::ThreadCtx& ctx, int dst_node, std::uint32_t handler,
                   std::uint64_t arg0, std::uint64_t arg1,
                   std::vector<std::uint64_t> payload) {
  AAM_CHECK(dst_node >= 0 && dst_node < num_nodes_);
  AAM_CHECK(handler < handlers_.size());
  const int src = node_of_thread(ctx.thread_id());

  Message msg;
  msg.src_node = src;
  msg.dst_node = dst_node;
  msg.handler = handler;
  msg.arg0 = arg0;
  msg.arg1 = arg1;
  msg.payload = std::move(payload);

  const auto& n = config().net;
  const std::size_t bytes = msg.wire_bytes();
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  stats_.items_sent += msg.payload.size();

  // Sender CPU overhead o (plus serialization of the payload onto the
  // wire; the byte cost is charged to the wire, not the sender, as NICs
  // stream from memory).
  ctx.compute(n.overhead_ns);
  ++in_flight_;

  if (protocol_active()) {
    // Reliable delivery: tag with the channel's next sequence number,
    // retain a copy for retransmission, and arm the timeout. The message
    // stays in flight until its first (deduplicated) arrival.
    SendChannel& ch = send_channel(src, dst_node);
    msg.seq = ch.next_seq++;
    ch.pending.emplace(msg.seq,
                       PendingSend{msg, net_hook_->initial_rto_ns()});
    const double at = ctx.now();
    transmit(msg, at, /*retransmit=*/false);
    arm_retransmit(src, dst_node, msg.seq, at);
    return;
  }

  const double arrival = ctx.now() + n.latency_ns +
                         static_cast<double>(bytes) * n.byte_ns;
  machine_.schedule_callback(arrival, [this, m = std::move(msg)]() mutable {
    const int node = m.dst_node;
    queues_[node].push_back(std::move(m));
    --in_flight_;
    // Wake the node's threads; pollers drain the queue.
    for (int t = 0; t < threads_per_node_; ++t) {
      machine_.wake(thread_of(node, t));
    }
  });
}

void Cluster::transmit(const Message& msg, double at, bool retransmit) {
  const auto& n = config().net;
  if (retransmit) ++stats_.retransmitted;
  const MessageFate fate = net_hook_->fate(msg, retransmit);
  const double arrival =
      at + n.latency_ns + static_cast<double>(msg.wire_bytes()) * n.byte_ns +
      fate.extra_delay_ns;
  // Protocol deliveries are droppable callbacks: a crash-restore loses the
  // in-flight copy, but the sender's checkpointed pending entry re-arms a
  // retransmit timer, so the message still arrives exactly once.
  if (fate.drop) {
    ++stats_.dropped;
  } else {
    machine_.schedule_callback_droppable(arrival, [this, m = msg]() mutable {
      deliver(std::move(m));
    });
  }
  if (fate.duplicate) {
    ++stats_.duplicated;
    machine_.schedule_callback_droppable(arrival + fate.duplicate_delay_ns,
                                         [this, m = msg]() mutable {
                                           deliver(std::move(m));
                                         });
  }
}

void Cluster::arm_retransmit(int src, int dst, std::uint64_t seq, double at) {
  SendChannel& ch = send_channel(src, dst);
  const auto it = ch.pending.find(seq);
  if (it == ch.pending.end()) return;  // already acked
  machine_.schedule_callback_droppable(
      at + it->second.rto_ns, [this, src, dst, seq] {
        SendChannel& c = send_channel(src, dst);
        const auto p = c.pending.find(seq);
        if (p == c.pending.end()) return;  // ack landed in the meantime
        // Exponential backoff with a cap, then go again: retransmission is
        // NIC-side (the sending thread is not re-charged the overhead o).
        p->second.rto_ns = std::min(p->second.rto_ns * 2.0,
                                    net_hook_->rto_cap_ns());
        const double now = machine_.now();
        transmit(p->second.msg, now, /*retransmit=*/true);
        arm_retransmit(src, dst, seq, now);
      });
}

void Cluster::deliver(Message m) {
  // Ack every arriving copy (the copy whose ack got outrun by a timeout
  // just re-acks a no-longer-pending seq, which is a no-op), then discard
  // duplicates before they reach the node's queue: exactly-once delivery.
  send_ack(m.src_node, m.dst_node, m.seq, machine_.now());
  RecvChannel& rc = recv_channel(m.src_node, m.dst_node);
  if (!rc.accept(m.seq)) {
    ++stats_.dedup_discarded;
    return;
  }
  const int node = m.dst_node;
  queues_[node].push_back(std::move(m));
  --in_flight_;
  for (int t = 0; t < threads_per_node_; ++t) {
    machine_.wake(thread_of(node, t));
  }
}

void Cluster::send_ack(int src, int dst, std::uint64_t seq, double at) {
  machine_.schedule_callback_droppable(
      at + config().net.latency_ns, [this, src, dst, seq] {
        SendChannel& ch = send_channel(src, dst);
        const auto it = ch.pending.find(seq);
        if (it == ch.pending.end()) return;
        ch.pending.erase(it);
        ++stats_.acked;
      });
}

void Cluster::durable(util::BlobIo& io) {
  io(stats_, in_flight_);
  io.each(queues_, "net snapshot node count mismatch");
  io.each(send_channels_, "net snapshot channel count mismatch");
  io.each(recv_channels_, "net snapshot channel count mismatch");
}

std::uint64_t Cluster::replay_pending_sends() {
  // Peer-assisted replay: each still-pending (unacked) send gets a fresh
  // timeout anchored at the restore instant. Its first fire retransmits
  // the retained copy; the receiver either applies it (the original copy
  // died with the crash) or dedup-discards it (it was accepted before the
  // checkpoint and only the ack was in flight).
  std::uint64_t replayed = 0;
  const double now = machine_.now();
  for (int src = 0; src < num_nodes_; ++src) {
    for (int dst = 0; dst < num_nodes_; ++dst) {
      if (send_channels_.empty()) continue;
      for (const auto& [seq, p] : send_channel(src, dst).pending) {
        arm_retransmit(src, dst, seq, now);
        ++replayed;
      }
    }
  }
  return replayed;
}

bool Cluster::poll(htm::ThreadCtx& ctx, Message& out) {
  const int node = node_of_thread(ctx.thread_id());
  auto& q = queues_[node];
  if (q.empty()) return false;
  out = std::move(q.front());
  q.pop_front();
  // Receiver-side AM dispatch: extracting the handler id and parameters
  // from the network (§2.1).
  ctx.compute(config().net.am_dispatch_ns);
  return true;
}

void Cluster::run_handler(htm::ThreadCtx& ctx, const Message& msg) {
  handlers_[msg.handler](ctx, msg);
}

bool Cluster::poll_and_handle(htm::ThreadCtx& ctx) {
  Message msg;
  if (!poll(ctx, msg)) return false;
  run_handler(ctx, msg);
  return true;
}

// ----------------------------------------------------------------- Coalescer

Coalescer::Coalescer(Cluster& cluster, std::uint32_t handler, int batch)
    : cluster_(cluster),
      handler_(handler),
      batch_(batch),
      buffers_(static_cast<std::size_t>(cluster.num_nodes())),
      arg0_(static_cast<std::size_t>(cluster.num_nodes()), 0) {
  AAM_CHECK(batch >= 1);
}

void Coalescer::add(htm::ThreadCtx& ctx, int dst_node, std::uint64_t item,
                    std::uint64_t arg0) {
  auto& buf = buffers_[static_cast<std::size_t>(dst_node)];
  buf.push_back(item);
  arg0_[static_cast<std::size_t>(dst_node)] = arg0;
  if (static_cast<int>(buf.size()) >= batch_) flush(ctx, dst_node);
}

void Coalescer::flush(htm::ThreadCtx& ctx, int dst_node) {
  auto& buf = buffers_[static_cast<std::size_t>(dst_node)];
  if (buf.empty()) return;
  cluster_.send(ctx, dst_node, handler_,
                arg0_[static_cast<std::size_t>(dst_node)], buf.size(),
                std::move(buf));
  // The moved-from buffer is empty; give it the full batch's capacity up
  // front instead of regrowing it item by item.
  buf.clear();
  buf.reserve(static_cast<std::size_t>(batch_));
}

void Coalescer::flush_all(htm::ThreadCtx& ctx) {
  for (int node = 0; node < cluster_.num_nodes(); ++node) flush(ctx, node);
}

void Coalescer::durable(util::BlobIo& io) {
  io.each(buffers_, "coalescer destination count changed since checkpoint");
  io(arg0_);
}

// ------------------------------------------------------------- RemoteAtomics

RemoteAtomics::RemoteAtomics(Cluster& cluster) : cluster_(cluster) {}

void RemoteAtomics::issue(htm::ThreadCtx& ctx, const void* target,
                          std::function<void()> apply) {
  auto& machine = cluster_.machine();
  AAM_CHECK_MSG(machine.heap().contains(target),
                "remote atomic target must live on the SimHeap");
  const auto& n = cluster_.config().net;
  ++issued_;

  // Pipelined issue: the sender only pays the injection gap.
  ctx.compute(n.rmw_issue_ns);
  const double arrival = ctx.now() + n.rmw_latency_ns;
  const mem::LineId line = machine.heap().line_of(target);

  machine.schedule_callback(arrival, [this, line, target,
                                      apply = std::move(apply)] {
    auto& m = cluster_.machine();
    auto& stripes = m.stripes();
    // The NIC-side atomic contends for the line like any other atomic.
    const double start = std::max(m.now(), stripes.available_at(line));
    const double done = start + cluster_.config().atomics.cas_ns;
    stripes.set_available_at(line,
                             start + cluster_.config().atomics.line_transfer_ns);
    stripes.set_owner(line, mem::StripeTable::kNoOwner);
    apply();
    m.bump_addr(target);
    ++applied_;
    ++cluster_.stats_mutable().remote_atomics;
    last_completion_ = std::max(last_completion_, done);
  });
}

void RemoteAtomics::cas_u64(htm::ThreadCtx& ctx, std::uint64_t& target,
                            std::uint64_t expect, std::uint64_t desired) {
  issue(ctx, &target, [&target, expect, desired] {
    if (target == expect) target = desired;
  });
}

void RemoteAtomics::acc_u64(htm::ThreadCtx& ctx, std::uint64_t& target,
                            std::uint64_t delta) {
  issue(ctx, &target, [&target, delta] { target += delta; });
}

void RemoteAtomics::acc_f64(htm::ThreadCtx& ctx, double& target,
                            double delta) {
  issue(ctx, &target, [&target, delta] { target += delta; });
}

}  // namespace aam::net
