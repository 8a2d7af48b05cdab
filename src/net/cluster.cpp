#include "net/cluster.hpp"

#include <algorithm>
#include <functional>

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
  machine_.set_droppable_sink(this);
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
    AAM_CHECK_MSG(pairs <= (std::size_t{1} << kChannelBits),
                  "too many nodes for the reliable-delivery protocol");
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
    // Reliable delivery: tag with the channel's next sequence number, move
    // the message into its pending entry (the retained copy for
    // retransmission), and arm the timeout. The message stays in flight
    // until its first (deduplicated) arrival.
    const std::uint64_t channel = channel_of(src, dst_node);
    SendChannel& ch = send_channels_[channel];
    const std::uint64_t seq = ch.next_seq++;
    AAM_CHECK_MSG(seq < kMaxSeq, "channel sequence numbers exhausted");
    msg.seq = seq;
    ch.push(seq, PendingSend{std::move(msg), net_hook_->initial_rto_ns(),
                             /*live=*/true});
    const double at = ctx.now();
    transmit(channel, ch.window.back().msg, at, /*retransmit=*/false);
    arm_retransmit(channel, seq, at);
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

void Cluster::on_droppable(std::uint64_t payload) {
  const auto event = static_cast<ProtocolEvent>(
      payload & ((std::uint64_t{1} << kEventBits) - 1));
  const std::uint64_t channel =
      (payload >> kEventBits) & ((std::uint64_t{1} << kChannelBits) - 1);
  const std::uint64_t seq = payload >> (kEventBits + kChannelBits);
  switch (event) {
    case kDeliver:
      deliver(channel, seq);
      break;
    case kAck:
      on_ack(channel, seq);
      break;
    case kRetransmit:
      on_retransmit(channel, seq);
      break;
  }
}

void Cluster::transmit(std::uint64_t channel, const Message& msg, double at,
                       bool retransmit) {
  const auto& n = config().net;
  if (retransmit) ++stats_.retransmitted;
  const MessageFate fate = net_hook_->fate(msg, retransmit);
  const double arrival =
      at + n.latency_ns + static_cast<double>(msg.wire_bytes()) * n.byte_ns +
      fate.extra_delay_ns;
  // Protocol deliveries are droppable events: a crash-restore loses the
  // in-flight copy, but the sender's checkpointed pending entry re-arms a
  // retransmit timer, so the message still arrives exactly once.
  if (fate.drop) {
    ++stats_.dropped;
  } else {
    schedule(kDeliver, channel, msg.seq, arrival);
  }
  if (fate.duplicate) {
    ++stats_.duplicated;
    schedule(kDeliver, channel, msg.seq, arrival + fate.duplicate_delay_ns);
  }
}

void Cluster::arm_retransmit(std::uint64_t channel, std::uint64_t seq,
                             double at) {
  const PendingSend* p = send_channels_[channel].find(seq);
  if (p == nullptr) return;  // already acked
  schedule(kRetransmit, channel, seq, at + p->rto_ns);
}

void Cluster::on_retransmit(std::uint64_t channel, std::uint64_t seq) {
  PendingSend* p = send_channels_[channel].find(seq);
  if (p == nullptr) return;  // ack landed in the meantime
  // Exponential backoff with a cap, then go again: retransmission is
  // NIC-side (the sending thread is not re-charged the overhead o).
  p->rto_ns = std::min(p->rto_ns * 2.0, net_hook_->rto_cap_ns());
  const double now = machine_.now();
  transmit(channel, p->msg, now, /*retransmit=*/true);
  arm_retransmit(channel, seq, now);
}

void Cluster::deliver(std::uint64_t channel, std::uint64_t seq) {
  // Ack every arriving copy (the copy whose ack got outrun by a timeout
  // just re-acks a no-longer-pending seq, which is a no-op), then discard
  // duplicates before they reach the node's queue: exactly-once delivery.
  schedule(kAck, channel, seq, machine_.now() + config().net.latency_ns);
  if (!recv_channels_[channel].accept(seq)) {
    ++stats_.dedup_discarded;
    return;
  }
  // A first arrival precedes its ack, so its pending entry still holds
  // the message; only duplicates can outlive the entry.
  const PendingSend* p = send_channels_[channel].find(seq);
  AAM_CHECK_MSG(p != nullptr, "a new arrival has no pending send");
  const int node = p->msg.dst_node;
  queues_[node].push_back(p->msg);
  --in_flight_;
  for (int t = 0; t < threads_per_node_; ++t) {
    machine_.wake(thread_of(node, t));
  }
}

void Cluster::on_ack(std::uint64_t channel, std::uint64_t seq) {
  SendChannel& ch = send_channels_[channel];
  PendingSend* p = ch.find(seq);
  if (p == nullptr) return;
  ch.erase(*p);
  ++stats_.acked;
}

void Cluster::SendChannel::push(std::uint64_t seq, PendingSend p) {
  if (window.empty()) base = seq;
  AAM_CHECK_MSG(seq >= base + window.size(), "pending sends out of order");
  while (base + window.size() < seq) window.emplace_back();  // dead gap
  window.push_back(std::move(p));
}

void Cluster::SendChannel::erase(PendingSend& p) {
  p.live = false;
  while (!window.empty() && !window.front().live) {
    window.pop_front();
    ++base;
  }
}

void Cluster::SendChannel::durable(util::BlobIo& io) {
  io(next_seq);
  std::uint64_t live = 0;
  for (const PendingSend& p : window) live += p.live ? 1 : 0;
  io(live);
  if (io.saving()) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (!window[i].live) continue;
      std::uint64_t seq = base + i;
      io(seq, window[i]);
    }
    return;
  }
  window.clear();
  for (std::uint64_t i = 0; i < live; ++i) {
    std::uint64_t seq = 0;
    PendingSend p;
    io(seq, p);
    AAM_CHECK_MSG(seq < next_seq, "pending send beyond the channel's seq");
    p.live = true;
    push(seq, std::move(p));
  }
}

void Cluster::RecvChannel::durable(util::BlobIo& io) {
  io(next_expected, seen_ahead);
  if (io.restoring()) {
    AAM_CHECK_MSG(seen_ahead.empty() ||
                      (seen_ahead.front() > next_expected &&
                       std::adjacent_find(seen_ahead.begin(), seen_ahead.end(),
                                          std::greater_equal<>()) ==
                           seen_ahead.end()),
                  "net snapshot receive window out of order");
  }
}

bool Cluster::RecvChannel::accept(std::uint64_t seq) {
  if (seq == next_expected && seen_ahead.empty()) {  // in order
    ++next_expected;
    return true;
  }
  if (seq < next_expected) return false;
  const auto it = std::lower_bound(seen_ahead.begin(), seen_ahead.end(), seq);
  if (it != seen_ahead.end() && *it == seq) return false;
  seen_ahead.insert(it, seq);
  std::size_t accepted = 0;
  while (accepted < seen_ahead.size() &&
         seen_ahead[accepted] == next_expected) {
    ++accepted;
    ++next_expected;
  }
  seen_ahead.erase(seen_ahead.begin(),
                   seen_ahead.begin() + static_cast<std::ptrdiff_t>(accepted));
  return true;
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
  for (std::uint64_t channel = 0; channel < send_channels_.size();
       ++channel) {
    const SendChannel& ch = send_channels_[channel];
    for (std::size_t i = 0; i < ch.window.size(); ++i) {
      if (!ch.window[i].live) continue;
      arm_retransmit(channel, ch.base + i, now);
      ++replayed;
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
