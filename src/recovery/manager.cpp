#include "recovery/manager.hpp"

#include "util/blob.hpp"
#include "util/check.hpp"

namespace aam::recovery {

RecoveryManager::RecoveryManager(htm::DesMachine& machine, Options options)
    : machine_(machine), options_(options) {
  machine_.set_recovery_client(this);
}

RecoveryManager::RecoveryManager(net::Cluster& cluster, Options options)
    : machine_(cluster.machine()), cluster_(&cluster), options_(options) {
  machine_.set_recovery_client(this);
}

RecoveryManager::~RecoveryManager() {
  if (machine_.recovery_client() == this) {
    machine_.set_recovery_client(nullptr);
  }
}

void RecoveryManager::on_run_entry(htm::DesMachine& machine) {
  // Always checkpoint at run entry: recovery then never falls before the
  // run's initial conditions, and a crash with zero mid-run checkpoints
  // still has somewhere to land.
  take_checkpoint(machine);
}

void RecoveryManager::on_quiescence(htm::DesMachine& machine) {
  // Batch/window boundary. Skip if the clock has not advanced past the
  // last checkpoint (e.g. immediately after a restore landed us here).
  if (machine.now() <= last_ckpt_now_) return;
  take_checkpoint(machine);
}

void RecoveryManager::on_event_boundary(htm::DesMachine& machine) {
  if (options_.ckpt_interval_ns <= 0) return;
  if (machine.now() < last_ckpt_now_ + options_.ckpt_interval_ns) return;
  take_checkpoint(machine);
}

std::uint64_t RecoveryManager::register_host_state(htm::HostState durable) {
  const std::uint64_t token = next_token_++;
  host_state_.emplace_back(token, std::move(durable));
  return token;
}

void RecoveryManager::unregister_host_state(std::uint64_t token) {
  for (std::size_t i = 0; i < host_state_.size(); ++i) {
    if (host_state_[i].first == token) {
      host_state_.erase(host_state_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  AAM_CHECK_MSG(false, "unregister_host_state: unknown token");
}

namespace {

/// The bytes `durable` saves.
template <typename Durable>
std::vector<std::uint8_t> to_bytes(Durable&& durable) {
  util::BlobWriter w;
  util::BlobIo io(w);
  durable(io);
  return w.take();
}

/// Restores `durable` from `bytes`, which it must consume exactly.
template <typename Durable>
void from_bytes(const std::vector<std::uint8_t>& bytes, Durable&& durable,
                const char* trailing) {
  util::BlobReader r(bytes);
  util::BlobIo io(r);
  durable(io);
  AAM_CHECK_MSG(r.exhausted(), trailing);
}

}  // namespace

void RecoveryManager::take_checkpoint(htm::DesMachine& machine) {
  AAM_CHECK_MSG(machine.checkpoint_safe(),
                "checkpoint requested at an unsafe instant");
  Snapshot snap;
  snap.add_section(Snapshot::kCore,
                   to_bytes([&](util::BlobIo& io) { machine.durable(io); }));

  util::BlobWriter heap;
  const auto raw = machine.heap().raw_bytes();
  heap.put_bytes(raw.data(), raw.size());
  snap.add_section(Snapshot::kHeap, heap.take());

  util::BlobWriter host;
  host.put<std::uint64_t>(host_state_.size());
  for (const auto& [token, durable] : host_state_) {
    host.put<std::uint64_t>(token);
    host.put_vector(to_bytes(durable));
  }
  snap.add_section(Snapshot::kHost, host.take());

  if (cluster_ != nullptr) {
    snap.add_section(Snapshot::kNet,
                     to_bytes([&](util::BlobIo& io) { cluster_->durable(io); }));
  }

  const std::uint64_t id = next_ckpt_id_++;
  const int slot = (active_ + 1) & 1;
  sealed_[slot] = snap.seal(id, machine.now());
  active_ = slot;
  last_ckpt_id_ = id;
  last_ckpt_now_ = machine.now();
  ++stats_.checkpoints;
  stats_.snapshot_bytes = sealed_[slot].size();
}

void RecoveryManager::apply(const Snapshot& snap) {
  // Order matters: core first (drops every pending callback and droppable
  // event and resets volatile engine state), heap bytes next, then host
  // components (they may consult restored heap contents), then net (its
  // replay re-arms droppable retransmit timers on the freshly restored
  // engine clock).
  const std::vector<std::uint8_t>* core = snap.find(Snapshot::kCore);
  AAM_CHECK_MSG(core != nullptr, "snapshot missing core section");
  from_bytes(*core, [&](util::BlobIo& io) { machine_.durable(io); },
          "core section has trailing bytes");

  const std::vector<std::uint8_t>* heap = snap.find(Snapshot::kHeap);
  AAM_CHECK_MSG(heap != nullptr, "snapshot missing heap section");
  util::BlobReader heap_r(*heap);
  const std::size_t used = machine_.heap().raw_bytes().size();
  std::vector<std::byte> bytes(used);
  heap_r.get_bytes_into(bytes.data(), used);
  machine_.heap().restore_raw_bytes({bytes.data(), bytes.size()});
  AAM_CHECK_MSG(heap_r.exhausted(), "heap section has trailing bytes");

  const std::vector<std::uint8_t>* host = snap.find(Snapshot::kHost);
  AAM_CHECK_MSG(host != nullptr, "snapshot missing host section");
  util::BlobReader host_r(*host);
  const auto n = host_r.get<std::uint64_t>();
  AAM_CHECK_MSG(n == host_state_.size(),
                "host-state registration count changed since checkpoint");
  for (std::size_t i = 0; i < n; ++i) {
    const auto token = host_r.get<std::uint64_t>();
    AAM_CHECK_MSG(token == host_state_[i].first,
                  "host-state registration order changed since checkpoint");
    from_bytes(host_r.get_vector<std::uint8_t>(), host_state_[i].second,
            "host-state blob has trailing bytes");
  }
  AAM_CHECK_MSG(host_r.exhausted(), "host section has trailing bytes");

  if (cluster_ != nullptr) {
    const std::vector<std::uint8_t>* net = snap.find(Snapshot::kNet);
    AAM_CHECK_MSG(net != nullptr, "snapshot missing net section");
    from_bytes(*net, [&](util::BlobIo& io) { cluster_->durable(io); },
            "net section has trailing bytes");
    stats_.replayed_sends += cluster_->replay_pending_sends();
  }

  last_ckpt_now_ = snap.now_ns();
  last_ckpt_id_ = snap.checkpoint_id();
}

bool RecoveryManager::on_crash(htm::DesMachine& machine,
                               const htm::CrashDiagnostic& diagnostic) {
  (void)machine;
  if (active_ < 0) return false;  // nothing to restore from: crash is fatal
  const net::NetStats before =
      cluster_ != nullptr ? cluster_->stats() : net::NetStats{};

  std::string error;
  auto snap = Snapshot::open(sealed_[active_], &error);
  AAM_CHECK_MSG(snap.has_value(),
                ("active checkpoint failed verification during recovery: " +
                 error)
                    .c_str());
  apply(*snap);

  if (cluster_ != nullptr) {
    // Monotone counters: the restored values are the checkpoint-time
    // values, so (before - after) is exactly the crash-lost delta.
    const net::NetStats& after = cluster_->stats();
    stats_.rolled_back_dropped += before.dropped - after.dropped;
    stats_.rolled_back_duplicated += before.duplicated - after.duplicated;
    stats_.rolled_back_retransmitted +=
        before.retransmitted - after.retransmitted;
    stats_.rolled_back_acked += before.acked - after.acked;
    stats_.rolled_back_dedup_discarded +=
        before.dedup_discarded - after.dedup_discarded;
  }

  ++stats_.crashes;
  stats_.lost_work_ns += diagnostic.now_ns - snap->now_ns();
  return true;
}

void RecoveryManager::take_checkpoint_now() { take_checkpoint(machine_); }

const std::vector<std::uint8_t>& RecoveryManager::last_snapshot_bytes() const {
  static const std::vector<std::uint8_t> kEmpty;
  return active_ >= 0 ? sealed_[active_] : kEmpty;
}

bool RecoveryManager::restore_from_bytes(
    const std::vector<std::uint8_t>& sealed, std::string* error) {
  auto snap = Snapshot::open(sealed, error);
  if (!snap.has_value()) return false;
  apply(*snap);
  return true;
}

}  // namespace aam::recovery
