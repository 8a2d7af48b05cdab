#pragma once

// Simulated distributed-memory cluster (§3.1, §5.6).
//
// A Cluster lays N simulated nodes over one DesMachine event loop: node i
// owns threads [i*T, (i+1)*T) and its own HTM serialization domain. The
// network between nodes follows a LogGP-flavoured model (per-message sender
// overhead o, wire latency L, per-byte cost 1/B) with parameters from the
// machine config (§5.1: BG/Q 5D torus + PAMI, or InfiniBand FDR + MPI-3).
//
// Two communication mechanisms are provided, matching the paper's §5.6
// comparison:
//
//  * Active messages (send/poll): a message carries a handler id, two
//    scalar arguments and an optional payload of 64-bit items (coalesced
//    operator invocations). Receiver threads poll their node's queue; the
//    per-message receiver dispatch cost models the AM runtime.
//  * RemoteAtomics: one-sided PAMI_Rmw / MPI-3-RMA-style remote CAS/ACC,
//    processed "at the NIC" of the target without involving its threads,
//    deeply pipelined at the sender.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "util/blob.hpp"

namespace aam::net {

/// An in-flight or delivered active message.
struct Message {
  int src_node = 0;
  int dst_node = 0;
  std::uint32_t handler = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  /// Per-(src,dst) channel sequence number, from 1 (set by send()). Fits
  /// in the fixed header below.
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> payload;  ///< coalesced items

  /// Modelled wire size: a fixed header plus 8 bytes per payload item.
  std::size_t wire_bytes() const { return 32 + payload.size() * 8; }

  void durable(util::BlobIo& io) {
    io(src_node, dst_node, handler, arg0, arg1, seq, payload);
  }
};

/// Receiver-side handler; runs on a polling thread of the target node.
using AmHandler = std::function<void(htm::ThreadCtx&, const Message&)>;

/// What the fault layer decided for one wire transmission (original send
/// or retransmission) of an active message.
struct MessageFate {
  bool drop = false;       ///< the copy never arrives
  bool duplicate = false;  ///< a second copy also arrives
  double extra_delay_ns = 0;      ///< delay spike / reorder jitter
  double duplicate_delay_ns = 0;  ///< additional delay of the duplicate
};

/// Network fault-injection seam (Cluster::set_fault_hook). Implemented by
/// fault::FaultInjector; decisions must be drawn from streams forked off
/// the simulation seed. Every message is sequenced and held in its
/// sender's pending window either way; while a hook is installed the
/// cluster also runs the reliable-delivery protocol on top (a fate per
/// wire copy, acks, receiver dedup, sender timeout/retransmit).
class NetFaultHook {
 public:
  virtual ~NetFaultHook() = default;
  /// Consulted once per wire transmission (retransmissions included).
  virtual MessageFate fate(const Message& msg, bool retransmit) = 0;
  /// Initial sender retransmit timeout and its exponential-backoff cap.
  virtual double initial_rto_ns() const = 0;
  virtual double rto_cap_ns() const = 0;
};

struct NetStats {
  std::uint64_t messages_sent = 0;  ///< logical sends (excl. retransmits)
  std::uint64_t bytes_sent = 0;     ///< wire bytes of logical sends
  std::uint64_t items_sent = 0;   ///< payload items (coalescing numerator)
  std::uint64_t remote_atomics = 0;
  // Reliable-delivery protocol counters (all zero with no fault hook).
  std::uint64_t dropped = 0;          ///< wire copies lost to injection
  std::uint64_t duplicated = 0;       ///< injected duplicate wire copies
  std::uint64_t retransmitted = 0;    ///< sender timeout retransmissions
  std::uint64_t acked = 0;            ///< sends confirmed by a first ack
  std::uint64_t dedup_discarded = 0;  ///< receiver-side duplicate discards
};

class Cluster final : private htm::DroppableSink {
 public:
  /// `config` must outlive the cluster (its DesMachine keeps a
  /// reference); the deleted overload rejects a temporary.
  Cluster(const model::MachineConfig& config, model::HtmKind kind,
          int num_nodes, int threads_per_node, mem::SimHeap& heap,
          std::uint64_t seed = 1);
  Cluster(model::MachineConfig&& config, model::HtmKind kind, int num_nodes,
          int threads_per_node, mem::SimHeap& heap,
          std::uint64_t seed = 1) = delete;

  htm::DesMachine& machine() { return machine_; }
  int num_nodes() const { return num_nodes_; }
  int threads_per_node() const { return threads_per_node_; }
  const model::MachineConfig& config() const { return machine_.config(); }

  int node_of_thread(std::uint32_t tid) const {
    return static_cast<int>(tid) / threads_per_node_;
  }
  std::uint32_t thread_of(int node, int local) const {
    return static_cast<std::uint32_t>(node * threads_per_node_ + local);
  }

  /// Registers a receiver-side handler; returns its id for send().
  std::uint32_t register_handler(AmHandler handler);

  /// Sends an active message from the calling thread. Charges the sender
  /// overhead o to `ctx`; the message is delivered (enqueued and target
  /// threads woken) after L + wire_bytes/B.
  void send(htm::ThreadCtx& ctx, int dst_node, std::uint32_t handler,
            std::uint64_t arg0, std::uint64_t arg1 = 0,
            std::vector<std::uint64_t> payload = {});

  /// Receiver polling: pops the next message for `ctx`'s node, charging
  /// the per-message AM dispatch cost. Returns false when the queue is
  /// empty. Does NOT run the handler — call run_handler() (so the worker
  /// can decide to stage a transaction from within the handler).
  bool poll(htm::ThreadCtx& ctx, Message& out);

  /// Invokes the registered handler for a polled message.
  void run_handler(htm::ThreadCtx& ctx, const Message& msg);

  /// Convenience: poll and, if a message was available, run its handler.
  bool poll_and_handle(htm::ThreadCtx& ctx);

  bool queue_empty(int node) const { return queues_[node].empty(); }
  std::size_t pending(int node) const { return queues_[node].size(); }
  /// Messages sent but not yet delivered anywhere in the cluster.
  std::uint64_t in_flight() const { return in_flight_; }

  const NetStats& stats() const { return stats_; }
  NetStats& stats_mutable() { return stats_; }

  /// Installs (or clears, with nullptr) the network fault hook. Not owned;
  /// must outlive the cluster's traffic. Must be called while every
  /// pending window is empty (nothing in flight, every send acked): the
  /// delivery guarantee is per-message, not retrofittable.
  void set_fault_hook(NetFaultHook* hook);
  NetFaultHook* fault_hook() const { return net_hook_; }

  // --- crash-stop recovery (src/recovery/) --------------------------------

  /// Saves or restores the cluster's durable network state: statistics,
  /// the in-flight count, per-node receive queues, and the
  /// reliable-delivery channel state (sender pending windows with their
  /// current RTOs, receiver watermarks and out-of-order sets).
  void durable(util::BlobIo& io);

  /// The restore-only step after durable(): re-arms a retransmit timer
  /// for every still-pending send (with no fault hook, re-transmits it
  /// once, at the restore instant). In-flight wire copies and timers lost
  /// in the crash are re-derived from the pending windows — the
  /// receiver-side dedup path discards anything already accepted. Must
  /// run after the engine's restore (which drops all droppable events).
  /// Returns the number of pending sends replayed.
  std::uint64_t replay_pending_sends();

 private:
  bool protocol_active() const { return net_hook_ != nullptr; }

  // Network events. Each is one droppable engine event whose payload
  // packs (seq, channel, type); the message itself stays in the sender's
  // pending window, its only retained copy. Acks and retransmit timers
  // exist only while the protocol is active.
  enum ProtocolEvent : std::uint64_t { kDeliver, kAck, kRetransmit };
  static constexpr unsigned kEventBits = 2;
  static constexpr unsigned kChannelBits = 24;  ///< src * nodes + dst
  static constexpr std::uint64_t kMaxSeq =
      std::uint64_t{1} << (64 - kEventBits - kChannelBits);
  std::uint64_t channel_of(int src, int dst) const {
    return static_cast<std::uint64_t>(src) *
               static_cast<std::uint64_t>(num_nodes_) +
           static_cast<std::uint64_t>(dst);
  }
  void schedule(ProtocolEvent event, std::uint64_t channel, std::uint64_t seq,
                double at) {
    machine_.schedule_droppable(
        at, seq << (kEventBits + kChannelBits) | channel << kEventBits |
                event);
  }
  void on_droppable(std::uint64_t payload) override;

  /// One wire transmission of pending message `msg` at virtual time `at`:
  /// consults the fault hook (if any), schedules arrival(s), and counts.
  void transmit(std::uint64_t channel, const Message& msg, double at,
                bool retransmit);
  /// Arms the sender-side timeout for pending message `seq` at `at` + the
  /// pending entry's current RTO, unless its ack already landed.
  void arm_retransmit(std::uint64_t channel, std::uint64_t seq, double at);
  /// The timeout fired: doubles the RTO (capped), retransmits and re-arms,
  /// unless the ack landed first.
  void on_retransmit(std::uint64_t channel, std::uint64_t seq);
  /// Receiver-side arrival of one wire copy: acks, dedups, enqueues; with
  /// the protocol off, the arrival also retires the pending entry.
  void deliver(std::uint64_t channel, std::uint64_t seq);
  /// NIC-side ack arriving back at the sender (control plane:
  /// header-only, modelled reliable): retires the pending entry.
  void on_ack(std::uint64_t channel, std::uint64_t seq);

  /// Sender book-keeping for one undelivered or unacked message.
  struct PendingSend {
    Message msg;        ///< retained copy for (re)transmission
    double rto_ns = 0;  ///< current timeout (doubles per retransmit)
    bool live = false;  ///< false once retired (or a gap in a restored window)

    void durable(util::BlobIo& io) { io(rto_ns, msg); }
  };
  /// Sender side of one channel. The pending sends form a window indexed
  /// by sequence number: entry i holds seq `base + i`, the front entry is
  /// always live, and an entry retired out of order stays behind as a dead
  /// slot until the sends before it are retired too.
  struct SendChannel {
    std::uint64_t next_seq = 1;
    std::uint64_t base = 1;  ///< seq of window.front()
    std::deque<PendingSend> window;

    /// The live pending entry for `seq`, or nullptr once it was retired.
    PendingSend* find(std::uint64_t seq) {
      if (seq < base || seq - base >= window.size()) return nullptr;
      PendingSend& p = window[seq - base];
      return p.live ? &p : nullptr;
    }
    void push(std::uint64_t seq, PendingSend p);
    void erase(PendingSend& p);
    /// A count, then each live (seq, entry) in seq order.
    void durable(util::BlobIo& io);
  };
  /// Receiver side of one channel.
  struct RecvChannel {
    std::uint64_t next_expected = 1;  ///< all seq below this were accepted
    /// Accepted seqs above the watermark, ascending: a flat set, since
    /// arrivals past a lost copy mostly append and the watermark erases a
    /// prefix.
    std::vector<std::uint64_t> seen_ahead;

    void durable(util::BlobIo& io);
    /// True if `seq` is new (advances the watermark); false = duplicate.
    bool accept(std::uint64_t seq);
  };

  htm::DesMachine machine_;
  int num_nodes_;
  int threads_per_node_;
  std::vector<AmHandler> handlers_;
  std::vector<std::deque<Message>> queues_;
  NetStats stats_;
  std::uint64_t in_flight_ = 0;
  NetFaultHook* net_hook_ = nullptr;
  std::vector<SendChannel> send_channels_;  // one per (src, dst) channel
  std::vector<RecvChannel> recv_channels_;
};

/// Per-destination buffering of operator invocations: messages flowing to
/// the same target are sent as a single coalesced active message of up to
/// C items (§4.2, §5.6). One Coalescer per sending thread.
class Coalescer {
 public:
  /// `batch` is the coalescing factor C; C=1 disables coalescing.
  Coalescer(Cluster& cluster, std::uint32_t handler, int batch);

  /// Buffers one 64-bit item for `dst_node`; flushes when C items are
  /// pending. `arg0` is carried in the message header of the flush.
  void add(htm::ThreadCtx& ctx, int dst_node, std::uint64_t item,
           std::uint64_t arg0 = 0);

  /// Flushes any partial buffer for one node / all nodes.
  void flush(htm::ThreadCtx& ctx, int dst_node);
  void flush_all(htm::ThreadCtx& ctx);

  /// Checkpoint support (src/recovery/): the partial per-destination
  /// buffers are durable spawner state — items buffered but not yet sent
  /// would otherwise vanish in a crash without being retransmittable.
  void durable(util::BlobIo& io);

 private:
  Cluster& cluster_;
  std::uint32_t handler_;
  int batch_;
  std::vector<std::vector<std::uint64_t>> buffers_;  // per destination
  std::vector<std::uint64_t> arg0_;
};

/// One-sided remote atomics in the style of PAMI_Rmw / MPI-3 RMA
/// fetch-ops (§5.6). Operations are pipelined: the sender pays only the
/// issue gap; the update applies at the target after the remote-atomic
/// latency without involving target threads.
class RemoteAtomics {
 public:
  explicit RemoteAtomics(Cluster& cluster);

  /// Remote CAS on a 64-bit word owned by another node.
  void cas_u64(htm::ThreadCtx& ctx, std::uint64_t& target,
               std::uint64_t expect, std::uint64_t desired);
  /// Remote accumulate (fetch-and-add) on a 64-bit word / double.
  void acc_u64(htm::ThreadCtx& ctx, std::uint64_t& target,
               std::uint64_t delta);
  void acc_f64(htm::ThreadCtx& ctx, double& target, double delta);

  /// Completion time of the last remote atomic applied at any target
  /// (the makespan contribution of outstanding one-sided traffic).
  double last_completion() const { return last_completion_; }
  std::uint64_t issued() const { return issued_; }
  std::uint64_t applied() const { return applied_; }

 private:
  /// Charges the issue gap at the sender and schedules `apply` at the
  /// target after the remote-atomic latency plus line contention.
  void issue(htm::ThreadCtx& ctx, const void* target,
             std::function<void()> apply);

  Cluster& cluster_;
  double last_completion_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace aam::net
