#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "algorithms/registry.hpp"
#include "core/auto_executor.hpp"
#include "core/distributed.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "graph/partition.hpp"
#include "htm/resilience.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"
#include "recovery/snapshot.hpp"
#include "util/blob.hpp"

namespace aam::recovery {
namespace {

// ---------------------------------------------------------------------------
// Round-trip property: checkpoint -> mutate -> restore -> checkpoint must
// reproduce the original snapshot bit-for-bit, section by section, under
// every synchronization mechanism (each serializes different executor and
// heap-resident state: lock stripes, orecs, the serial lock word, ...).

/// Expects two sealed snapshots to hold the same instant and the same
/// bytes in every section (checkpoint ids are monotone, so they differ).
void expect_sections_equal(const std::vector<std::uint8_t>& sealed_a,
                           const std::vector<std::uint8_t>& sealed_b) {
  std::string err;
  const auto a = Snapshot::open(sealed_a, &err);
  ASSERT_TRUE(a.has_value()) << err;
  const auto b = Snapshot::open(sealed_b, &err);
  ASSERT_TRUE(b.has_value()) << err;
  ASSERT_EQ(a->sections().size(), b->sections().size());
  EXPECT_DOUBLE_EQ(a->now_ns(), b->now_ns());
  for (std::size_t i = 0; i < a->sections().size(); ++i) {
    EXPECT_EQ(a->sections()[i].tag, b->sections()[i].tag);
    EXPECT_EQ(a->sections()[i].bytes, b->sections()[i].bytes)
        << "section tag " << a->sections()[i].tag;
  }
}

TEST(Recovery, CheckpointRoundTripIsBitIdenticalPerMechanism) {
  for (const core::Mechanism mech : core::all_mechanisms()) {
    SCOPED_TRACE(core::to_string(mech));
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 4, heap, 7);
    RecoveryManager rec(machine, RecoveryOptions{1.0e9});
    auto counters = heap.alloc<std::uint64_t>(64, "counters");
    std::fill(counters.begin(), counters.end(), 0);

    core::AamRuntime::Options o;
    o.batch = 8;
    o.mechanism = mech;
    core::AamRuntime rt(machine, o);
    const auto bump = [&](auto& access, std::uint64_t i) {
      access.fetch_add(counters[i % 64], std::uint64_t{1});
    };
    rt.for_each(512, bump);

    rec.take_checkpoint_now();
    const std::vector<std::uint8_t> snap_a = rec.last_snapshot_bytes();
    ASSERT_FALSE(snap_a.empty());
    const std::uint64_t value_a = counters[0];
    EXPECT_EQ(value_a, 8u);  // 512 items over 64 counters

    rt.for_each(512, bump);
    EXPECT_EQ(counters[0], 2 * value_a);

    std::string err;
    ASSERT_TRUE(rec.restore_from_bytes(snap_a, &err)) << err;
    EXPECT_EQ(counters[0], value_a);  // heap rewound with the snapshot

    rec.take_checkpoint_now();
    expect_sections_equal(snap_a, rec.last_snapshot_bytes());
  }
}

// The same property for the auto executor with an adaptive controller:
// the ladder rungs, validation windows, per-thread attribution, every
// inner executor and the controller's window all round-trip.
TEST(Recovery, CheckpointRoundTripIsBitIdenticalUnderAutoWithAdaptiveBatch) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap, 7);
  RecoveryManager rec(machine, RecoveryOptions{1.0e9});
  auto counters = heap.alloc<std::uint64_t>(2, "counters");
  std::fill(counters.begin(), counters.end(), 0);

  core::AutoPolicy policy;
  for (auto& plan : policy.plans) {
    plan.recommended = core::Mechanism::kHtmCoarsened;
  }
  core::AamRuntime::Options o;
  o.batch = 8;
  o.auto_policy = &policy;
  core::AamRuntime rt(machine, o);
  core::AdaptiveBatch adaptive;
  rt.set_adaptive(&adaptive);
  // Two hot counters: conflicts move the controller between checkpoints.
  const auto bump = [&](auto& access, std::uint64_t i) {
    access.fetch_add(counters[i % 2], std::uint64_t{1});
  };
  // Fewer activities than one window: the checkpoint lands mid-window.
  rt.for_each(256, bump);

  rec.take_checkpoint_now();
  const std::vector<std::uint8_t> snap_a = rec.last_snapshot_bytes();
  const int batch_a = adaptive.batch();

  rt.for_each(1024, bump);
  EXPECT_EQ(counters[0], 640u);
  EXPECT_NE(adaptive.batch(), batch_a);

  std::string err;
  ASSERT_TRUE(rec.restore_from_bytes(snap_a, &err)) << err;
  EXPECT_EQ(counters[0], 128u);
  EXPECT_EQ(adaptive.batch(), batch_a);

  rec.take_checkpoint_now();
  expect_sections_equal(snap_a, rec.last_snapshot_bytes());
}

// ---------------------------------------------------------------------------
// The same property for the distributed runtime on a 2-node cluster whose
// reliable-delivery protocol runs (a crash plan turns it on). The probe
// checkpoints at the first safe instant where coalescer buffers, pending
// batch queues and unacked sends all hold something, lets the run move on,
// restores, checkpoints again and compares; the run then finishes from the
// restored state and must still apply every item exactly once.

/// Spawns its items one per dispatch without running any batch, then parks
/// holding a coalescer tail, local batches and the sends in flight. Once a
/// delivery wakes it, it drains, flushes and parks for good.
class HoldingWorker final : public htm::Worker {
 public:
  static constexpr std::uint64_t kLocal = 5;   // 2 batches of M = 2, 1 left
  static constexpr std::uint64_t kRemote = 6;  // 1 message of C = 4, 2 left

  HoldingWorker(core::DistributedRuntime& rt, net::Cluster& cluster,
                std::uint32_t tid)
      : rt_(rt), cluster_(cluster), tid_(tid) {}

  bool holding() const { return held_ && !woken_; }
  bool flushed() const { return flushed_; }

  bool next(htm::ThreadCtx& ctx) override {
    const int node = cluster_.node_of_thread(tid_);
    if (spawned_ < kLocal + kRemote) {
      const bool local = spawned_ < kLocal;
      rt_.spawn(ctx, local ? node : 1 - node, tid_ * 100 + spawned_);
      ++spawned_;
      return true;
    }
    if (!held_) {
      held_ = true;
      return false;
    }
    woken_ = true;
    if (rt_.progress(ctx)) return true;
    if (!flushed_) {
      flushed_ = true;
      rt_.flush(ctx);
      return true;
    }
    return false;
  }

  void durable(util::BlobIo& io) { io(spawned_, held_, woken_, flushed_); }

 private:
  core::DistributedRuntime& rt_;
  net::Cluster& cluster_;
  std::uint32_t tid_;
  std::uint64_t spawned_ = 0;
  bool held_ = false;
  bool woken_ = false;
  bool flushed_ = false;
};

/// Forwards to a RecoveryManager; takes snapshot A at the first safe
/// instant where every worker holds its work and sends are in flight,
/// restores A at the first safe instant after every worker has flushed,
/// and snapshots B right away.
class RoundTripProbe final : public htm::RecoveryClient {
 public:
  RoundTripProbe(net::Cluster& cluster, RecoveryManager& inner,
                 const std::vector<HoldingWorker>& workers)
      : cluster_(cluster), inner_(inner), workers_(workers) {
    cluster_.machine().set_recovery_client(this);
  }
  ~RoundTripProbe() override {
    cluster_.machine().set_recovery_client(&inner_);
  }

  std::vector<std::uint8_t> snap_a;
  std::vector<std::uint8_t> snap_b;
  std::uint64_t in_flight_at_a = 0;

  void on_run_entry(htm::DesMachine& m) override { inner_.on_run_entry(m); }
  void on_quiescence(htm::DesMachine& m) override { inner_.on_quiescence(m); }
  void on_event_boundary(htm::DesMachine& m) override {
    if (snap_a.empty()) {
      if (all(&HoldingWorker::holding) && cluster_.in_flight() > 0) {
        inner_.take_checkpoint_now();
        snap_a = inner_.last_snapshot_bytes();
        in_flight_at_a = cluster_.in_flight();
      }
    } else if (snap_b.empty() && all(&HoldingWorker::flushed)) {
      std::string err;
      AAM_CHECK_MSG(inner_.restore_from_bytes(snap_a, &err), err.c_str());
      inner_.take_checkpoint_now();
      snap_b = inner_.last_snapshot_bytes();
      return;
    }
    inner_.on_event_boundary(m);
  }
  bool on_crash(htm::DesMachine& m, const htm::CrashDiagnostic& d) override {
    return inner_.on_crash(m, d);
  }
  std::uint64_t register_host_state(htm::HostState durable) override {
    return inner_.register_host_state(std::move(durable));
  }
  void unregister_host_state(std::uint64_t token) override {
    inner_.unregister_host_state(token);
  }
  std::uint64_t last_checkpoint_id() const override {
    return inner_.last_checkpoint_id();
  }
  std::uint64_t inflight_messages() const override {
    return inner_.inflight_messages();
  }

 private:
  bool all(bool (HoldingWorker::*phase)() const) const {
    return std::all_of(workers_.begin(), workers_.end(),
                       [&](const HoldingWorker& w) { return (w.*phase)(); });
  }

  net::Cluster& cluster_;
  RecoveryManager& inner_;
  const std::vector<HoldingWorker>& workers_;
};

TEST(Recovery, CheckpointRoundTripIsBitIdenticalForDistributedRuntime) {
  const std::uint64_t seed = 3;
  const int nodes = 2;
  const int threads = 2;
  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), model::HtmKind::kRtm, nodes, threads,
                       heap, seed);
  const fault::FaultPlan plan =
      fault::parse("crash-restart", model::has_p().fault);
  fault::FaultInjector inj(plan, seed, nodes * threads, threads);
  inj.attach(cluster);
  RecoveryManager rec(cluster, RecoveryOptions{plan.crash_ckpt_ns});
  std::vector<HoldingWorker> workers;
  RoundTripProbe probe(cluster, rec, workers);

  auto hits = heap.alloc<std::uint64_t>(4 * 100, "hits");
  std::fill(hits.begin(), hits.end(), 0);
  core::DistributedRuntime::Options o;
  o.coalesce = 4;
  o.exec.batch = 2;
  core::DistributedRuntime rt(cluster, o);
  rt.set_operator([&](auto& access, std::uint64_t item) {
    access.fetch_add(hits[item], std::uint64_t{1});
  });
  workers.reserve(nodes * threads);
  for (std::uint32_t t = 0; t < nodes * threads; ++t) {
    workers.emplace_back(rt, cluster, t);
    cluster.machine().set_worker(t, &workers.back());
  }
  htm::ScopedHostState ckpt(cluster.machine().recovery_client(),
                            [&](util::BlobIo& io) {
                              for (HoldingWorker& w : workers) io(w);
                            });
  cluster.machine().run();

  ASSERT_FALSE(probe.snap_a.empty()) << "no instant held all three";
  ASSERT_FALSE(probe.snap_b.empty()) << "the run ended before the restore";
  EXPECT_GT(probe.in_flight_at_a, 0u);
  expect_sections_equal(probe.snap_a, probe.snap_b);

  // Replayed from A to the end: every item applied exactly once.
  for (std::uint32_t t = 0; t < nodes * threads; ++t) {
    for (std::uint64_t i = 0; i < HoldingWorker::kLocal + HoldingWorker::kRemote;
         ++i) {
      EXPECT_EQ(hits[t * 100 + i], 1u) << "thread " << t << " item " << i;
    }
  }
  EXPECT_TRUE(rt.drained());
  EXPECT_EQ(cluster.in_flight(), 0u);
}

// A producer derived from DistributedRuntime::Worker: its cursor is durable
// through the worker's own registration, so a crash-restored run spawns
// every item exactly once.
class CountingProducer final : public core::DistributedRuntime::Worker {
 public:
  CountingProducer(core::DistributedRuntime& rt, std::uint64_t count)
      : core::DistributedRuntime::Worker(rt), rt_(rt), left_(count) {}

  void durable(util::BlobIo& io) override {
    core::DistributedRuntime::Worker::durable(io);
    io(left_);
  }

 protected:
  bool produce(htm::ThreadCtx& ctx) override {
    if (left_ == 0) return false;
    for (int burst = 0; burst < 8 && left_ > 0; ++burst) {
      --left_;
      rt_.spawn(ctx, /*owner_node=*/1, left_ % 64);
    }
    return true;
  }

 private:
  core::DistributedRuntime& rt_;
  std::uint64_t left_;
};

TEST(Recovery, DistributedWorkerCursorRollsBackWithItsItems) {
  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), model::HtmKind::kRtm, 2, 1, heap, 1);
  const fault::FaultPlan plan =
      fault::parse("crash-restart", model::has_p().fault);
  fault::FaultInjector inj(plan, 1, 2, 1);
  inj.attach(cluster);
  RecoveryManager rec(cluster, RecoveryOptions{plan.crash_ckpt_ns});
  auto hits = heap.alloc<std::uint64_t>(64, "hits");
  std::fill(hits.begin(), hits.end(), 0);
  core::DistributedRuntime rt(cluster, {.coalesce = 16, .exec = {.batch = 16}});
  rt.set_operator([&](auto& access, std::uint64_t item) {
    access.fetch_add(hits[item], std::uint64_t{1});
  });
  CountingProducer producer(rt, 4096);
  core::DistributedRuntime::Worker sink(rt);
  cluster.machine().set_worker(0, &producer);
  cluster.machine().set_worker(1, &sink);
  cluster.machine().run();

  EXPECT_GE(rec.stats().crashes, 1u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 64u) << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// Torn-snapshot rejection: a truncated or bit-flipped snapshot must be
// refused with the machine untouched — recovery never half-applies.

TEST(Recovery, TornSnapshotIsRejectedWithoutTouchingTheMachine) {
  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 2, heap, 11);
  RecoveryManager rec(machine, RecoveryOptions{1.0e9});
  auto counters = heap.alloc<std::uint64_t>(8, "counters");
  std::fill(counters.begin(), counters.end(), 0);

  core::AamRuntime::Options o;
  o.batch = 4;
  core::AamRuntime rt(machine, o);
  const auto bump = [&](auto& access, std::uint64_t i) {
    access.fetch_add(counters[i % 8], std::uint64_t{1});
  };
  rt.for_each(64, bump);
  rec.take_checkpoint_now();
  const std::vector<std::uint8_t> intact = rec.last_snapshot_bytes();

  rt.for_each(64, bump);
  const std::uint64_t mutated = counters[0];
  EXPECT_EQ(mutated, 16u);

  // Truncations at several depths: header, mid-section, and one byte shy
  // of the final digest all fail verification before any byte applies.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{16}, intact.size() / 2,
        intact.size() - 1}) {
    SCOPED_TRACE(len);
    std::vector<std::uint8_t> torn(intact.begin(),
                                   intact.begin() + static_cast<long>(len));
    std::string err;
    EXPECT_FALSE(rec.restore_from_bytes(torn, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(counters[0], mutated);  // machine untouched
  }

  // A single flipped bit in the middle trips the chained digest.
  std::vector<std::uint8_t> flipped = intact;
  flipped[flipped.size() / 2] ^= 0x10;
  std::string err;
  EXPECT_FALSE(rec.restore_from_bytes(flipped, &err));
  EXPECT_NE(err.find("digest mismatch"), std::string::npos) << err;
  EXPECT_EQ(counters[0], mutated);

  // The intact buffer still restores after all the rejected attempts.
  ASSERT_TRUE(rec.restore_from_bytes(intact, &err)) << err;
  EXPECT_EQ(counters[0], 8u);
}

// Every single-byte change to a sealed snapshot is refused: the digest
// folds whole words, and each fold step is a bijection, so no change to
// one byte (header, section bytes, a word tail or a recorded digest) can
// leave the chain unchanged.
TEST(Recovery, EverySingleByteFlipIsRejected) {
  Snapshot snap;
  snap.add_section(Snapshot::kCore, {1, 2, 3});
  snap.add_section(Snapshot::kHeap, {});
  snap.add_section(Snapshot::kHost, std::vector<std::uint8_t>(13, 0xAA));
  snap.add_section(Snapshot::kNet, std::vector<std::uint8_t>(16, 0x00));
  const std::vector<std::uint8_t> sealed = snap.seal(7, 1234.5);
  std::string err;
  const auto intact = Snapshot::open(sealed, &err);
  ASSERT_TRUE(intact.has_value()) << err;
  EXPECT_EQ(intact->checkpoint_id(), 7u);
  EXPECT_EQ(intact->sections().size(), 4u);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> torn = sealed;
      torn[i] ^= flip;
      EXPECT_FALSE(Snapshot::open(torn, &err).has_value())
          << "byte " << i << " ^ " << int{flip};
    }
  }
}

// A buffer in the format-1 layout (byte-wise digest) is refused by its
// version field before any digest is checked.
TEST(Recovery, VersionOneSnapshotIsRejected) {
  Snapshot snap;
  snap.add_section(Snapshot::kCore, {1, 2, 3});
  std::vector<std::uint8_t> sealed = snap.seal(1, 0.0);
  const std::uint32_t v1 = 1;
  std::memcpy(sealed.data() + sizeof(std::uint64_t), &v1, sizeof(v1));
  std::string err;
  EXPECT_FALSE(Snapshot::open(sealed, &err).has_value());
  EXPECT_EQ(err, "snapshot version mismatch");
}

// ---------------------------------------------------------------------------
// Crash recovery, shared memory: a crash-stopped BFS restored from
// checkpoints must produce a bit-identical result to the fault-free run
// (deterministic replay: engine RNG streams and schedule are part of the
// checkpoint; crash draws live outside it).

TEST(Recovery, CrashedBfsMatchesFaultFreeRunBitExactly) {
  const std::uint64_t seed = 5;
  util::Rng grng(seed);
  const graph::Graph g = graph::erdos_renyi(1 << 10, 0.01, grng);
  algorithms::BfsOptions o;
  o.root = graph::pick_nonisolated_vertex(g);

  mem::SimHeap base_heap;
  htm::DesMachine base(model::has_c(), model::HtmKind::kRtm, 8, base_heap,
                       seed);
  const auto base_r = algorithms::run_bfs(base, g, o);

  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap, seed);
  const fault::FaultPlan plan =
      fault::parse("crash-restart", model::has_c().fault);
  fault::FaultInjector inj(plan, seed, machine.num_threads());
  inj.attach(machine);
  RecoveryManager rec(machine, RecoveryOptions{plan.crash_ckpt_ns});
  const auto crashed_r = algorithms::run_bfs(machine, g, o);

  EXPECT_GE(rec.stats().crashes, 1u);  // crash.at guarantees one
  EXPECT_EQ(rec.stats().crashes, inj.injected().crashes);
  EXPECT_GT(rec.stats().checkpoints, 0u);
  EXPECT_GT(rec.stats().lost_work_ns, 0.0);
  EXPECT_EQ(crashed_r.parent, base_r.parent);
  EXPECT_EQ(crashed_r.vertices_visited, base_r.vertices_visited);
  EXPECT_DOUBLE_EQ(crashed_r.total_time_ns, base_r.total_time_ns);
}

// ---------------------------------------------------------------------------
// The same property for every registry entry that runs in rounds on
// core::RoundRunner (core/frontier.hpp): a crash pinned to the middle of
// the fault-free run restores the runner's checkpointed host state and
// replays to the fault-free answer, simulated time and engine counters.

class CrashRestore : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashRestore, MatchesFaultFreeRunBitExactly) {
  const std::uint64_t seed = 5;
  const auto entries = algorithms::registry();
  const auto entry =
      std::find_if(entries.begin(), entries.end(),
                   [](const auto& e) { return e.name == GetParam(); });
  ASSERT_NE(entry, entries.end());
  const algorithms::Inputs in = algorithms::make_inputs({});

  mem::SimHeap base_heap;
  htm::DesMachine base(model::has_c(), model::HtmKind::kRtm, 8, base_heap,
                       seed);
  const algorithms::RunReport want = entry->run(base, in, entry->exec);

  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap, seed);
  fault::FaultPlan plan = fault::parse("crash-restart", model::has_c().fault);
  plan.crash_at_ns = want.sim_ns / 2;
  fault::FaultInjector inj(plan, seed, machine.num_threads());
  inj.attach(machine);
  RecoveryManager rec(machine, RecoveryOptions{plan.crash_ckpt_ns});
  const algorithms::RunReport got = entry->run(machine, in, entry->exec);

  EXPECT_GE(rec.stats().crashes, 1u);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.sim_ns, want.sim_ns);
  EXPECT_EQ(got.stats, want.stats);
}

INSTANTIATE_TEST_SUITE_P(
    RoundLoop, CrashRestore,
    ::testing::Values("bfs", "sssp", "st-conn", "coloring", "boruvka"),
    [](const auto& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A crash between an aborted attempt and its retry, on BG/Q coloring,
// where retries often replay their last body run: the restore drops that
// in-flight replay state with the rest, and the run replays to the
// crash-free answer, simulated time and engine counters.

/// Crashes once, at the first event boundary at or past `at_ns` that
/// follows an "other" abort of the dispatched thread. That thread is then
/// mid-retry: the body run its retry would replay is still held. Injects
/// no aborts and slows nothing down.
class CrashMidRetry final : public htm::FaultHook {
 public:
  CrashMidRetry(const htm::DesMachine& machine, double at_ns)
      : machine_(machine),
        at_ns_(at_ns),
        seen_(static_cast<std::size_t>(machine.num_threads()), 0) {}

  bool inject_other_abort(std::uint32_t, double, double, double&) override {
    return false;
  }
  double slowdown(std::uint32_t, double) override { return 1.0; }
  bool inject_crash(std::uint32_t tid, double now_ns) override {
    const std::uint64_t others = machine_.thread_stats(tid).aborts_other;
    const bool just_aborted = others > seen_[tid];
    seen_[tid] = others;
    if (fired || now_ns < at_ns_ || !just_aborted) return false;
    fired = true;
    return true;
  }

  bool fired = false;

 private:
  const htm::DesMachine& machine_;
  double at_ns_;
  std::vector<std::uint64_t> seen_;
};

TEST(Recovery, CrashMidRetryMatchesFaultFreeRun) {
  const std::uint64_t seed = 5;
  const auto entries = algorithms::registry();
  const auto entry = std::find_if(
      entries.begin(), entries.end(),
      [](const auto& e) { return std::string_view(e.name) == "coloring"; });
  ASSERT_NE(entry, entries.end());
  const algorithms::Inputs in = algorithms::make_inputs({});
  const model::MachineConfig& bgq = model::bgq();

  mem::SimHeap base_heap;
  htm::DesMachine base(bgq, model::HtmKind::kBgqShort, 8, base_heap, seed);
  const algorithms::RunReport want = entry->run(base, in, entry->exec);
  ASSERT_GT(want.stats.aborts_other, 0u);

  mem::SimHeap heap;
  htm::DesMachine machine(bgq, model::HtmKind::kBgqShort, 8, heap, seed);
  CrashMidRetry crash(machine, want.sim_ns / 2);
  machine.set_fault_hook(&crash);
  RecoveryManager rec(
      machine,
      RecoveryOptions{fault::parse("crash-restart", bgq.fault).crash_ckpt_ns});
  const algorithms::RunReport got = entry->run(machine, in, entry->exec);

  EXPECT_TRUE(crash.fired);
  EXPECT_EQ(rec.stats().crashes, 1u);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.sim_ns, want.sim_ns);
  EXPECT_EQ(got.stats, want.stats);
}

// Boruvka's per-worker minima are non-empty only inside a scan phase,
// and their root index is rebuilt on restore, not checkpointed. Pin the
// crash inside the second scan phase, where components span several
// chunks, with checkpoints dense enough that the restored one is taken
// after that phase's first scan step: the restore brings back non-empty
// minima, and the replayed scans upsert into them through the rebuilt
// index. An index left over from the crashed timeline would drop minima
// and change the run.

/// FNV-1a over `bytes`.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

/// Forwards to a RecoveryManager and records the simulated instants of
/// quiescences, of sealed checkpoints and of the checkpoint each crash
/// restores, a hash of every sealed snapshot, and per snapshot the hash
/// of each section payload and the messages in flight when it sealed.
class RecoveryProbe final : public htm::RecoveryClient {
 public:
  RecoveryProbe(htm::DesMachine& machine, RecoveryManager& inner)
      : machine_(machine), inner_(inner) {
    machine_.set_recovery_client(this);
  }
  ~RecoveryProbe() override { machine_.set_recovery_client(&inner_); }

  std::vector<double> quiescences;
  std::vector<double> restored_checkpoints;
  std::vector<std::uint64_t> sealed_hashes;  ///< FNV-1a of each snapshot
  std::vector<std::vector<std::uint64_t>> section_hashes;
  std::vector<std::uint64_t> in_flight_at_seal;

  void on_run_entry(htm::DesMachine& m) override {
    inner_.on_run_entry(m);
    note_checkpoint(m);
  }
  void on_quiescence(htm::DesMachine& m) override {
    quiescences.push_back(m.now());
    inner_.on_quiescence(m);
    note_checkpoint(m);
  }
  void on_event_boundary(htm::DesMachine& m) override {
    inner_.on_event_boundary(m);
    note_checkpoint(m);
  }
  bool on_crash(htm::DesMachine& m, const htm::CrashDiagnostic& d) override {
    restored_checkpoints.push_back(last_checkpoint_ns_);
    return inner_.on_crash(m, d);
  }
  std::uint64_t register_host_state(htm::HostState durable) override {
    return inner_.register_host_state(std::move(durable));
  }
  void unregister_host_state(std::uint64_t token) override {
    inner_.unregister_host_state(token);
  }
  std::uint64_t last_checkpoint_id() const override {
    return inner_.last_checkpoint_id();
  }
  std::uint64_t inflight_messages() const override {
    return inner_.inflight_messages();
  }

 private:
  void note_checkpoint(const htm::DesMachine& m) {
    if (inner_.stats().checkpoints != checkpoints_seen_) {
      checkpoints_seen_ = inner_.stats().checkpoints;
      last_checkpoint_ns_ = m.now();
      sealed_hashes.push_back(fnv1a(inner_.last_snapshot_bytes()));
      std::string err;
      const auto snap = Snapshot::open(inner_.last_snapshot_bytes(), &err);
      AAM_CHECK_MSG(snap.has_value(), err.c_str());
      std::vector<std::uint64_t> sections;
      for (const Snapshot::Section& s : snap->sections()) {
        sections.push_back(fnv1a(s.bytes));
      }
      section_hashes.push_back(std::move(sections));
      in_flight_at_seal.push_back(inner_.inflight_messages());
    }
  }

  htm::DesMachine& machine_;
  RecoveryManager& inner_;
  std::uint64_t checkpoints_seen_ = 0;
  double last_checkpoint_ns_ = -1;
};

TEST(Recovery, BoruvkaCrashMidScanRestoresMinimaBitExactly) {
  const std::uint64_t seed = 5;
  const auto entries = algorithms::registry();
  const auto entry = std::find_if(
      entries.begin(), entries.end(),
      [](const auto& e) { return std::string_view(e.name) == "boruvka"; });
  ASSERT_NE(entry, entries.end());
  // 16 scan chunks of 256 vertices over 8 workers.
  const algorithms::Inputs in = algorithms::make_inputs(
      {.weighted_vertices = 4096, .weighted_p = 0.003});

  // Fault-free run. Quiescences alternate between the end of a scan
  // phase and the end of a merge phase.
  mem::SimHeap base_heap;
  htm::DesMachine base(model::has_c(), model::HtmKind::kRtm, 8, base_heap,
                       seed);
  RecoveryManager base_rec(base, RecoveryOptions{0});
  RecoveryProbe base_probe(base, base_rec);
  const algorithms::RunReport want = entry->run(base, in, entry->exec);
  ASSERT_GE(base_probe.quiescences.size(), 4u);
  const double scan_begin = base_probe.quiescences[1];
  const double scan_end = base_probe.quiescences[2];

  mem::SimHeap heap;
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap, seed);
  fault::FaultPlan plan = fault::parse("crash-restart", model::has_c().fault);
  plan.crash_at_ns = (scan_begin + scan_end) / 2;
  plan.crash_ckpt_ns = (scan_end - scan_begin) / 16;
  fault::FaultInjector inj(plan, seed, machine.num_threads());
  inj.attach(machine);
  RecoveryManager rec(machine, RecoveryOptions{plan.crash_ckpt_ns});
  RecoveryProbe probe(machine, rec);
  const algorithms::RunReport got = entry->run(machine, in, entry->exec);

  // Every event of the phase follows one of its scan steps, which leave
  // their worker's minima non-empty until the next round hook.
  ASSERT_FALSE(probe.restored_checkpoints.empty());
  EXPECT_GT(probe.restored_checkpoints.front(), scan_begin);
  EXPECT_LE(probe.restored_checkpoints.front(), scan_end);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.sim_ns, want.sim_ns);
  EXPECT_EQ(got.stats, want.stats);
}

// Sealed snapshots are a function of the run alone. The same crashed run
// twice, after filling the host allocator's free memory with different
// bytes: the padding of a checkpointed host struct (SSSP's relaxations,
// Boruvka's merge edges and minima) would carry that memory into the
// snapshots, where their field lists keep it out.

class SnapshotBytes : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotBytes, IgnoreWhatTheHostAllocatorLeftBehind) {
  const std::uint64_t seed = 5;
  const auto entries = algorithms::registry();
  const auto entry =
      std::find_if(entries.begin(), entries.end(),
                   [](const auto& e) { return e.name == GetParam(); });
  ASSERT_NE(entry, entries.end());
  const algorithms::Inputs in = algorithms::make_inputs({});

  const auto sealed = [&](unsigned char fill) {
    {
      std::vector<std::vector<unsigned char>> junk;
      for (std::size_t n = 16; n <= 1024; n += 8) {
        for (int k = 0; k < 16; ++k) junk.emplace_back(n, fill);
      }
    }
    mem::SimHeap heap;
    htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap,
                            seed);
    const fault::FaultPlan plan =
        fault::parse("crash-restart", model::has_c().fault);
    fault::FaultInjector inj(plan, seed, machine.num_threads());
    inj.attach(machine);
    RecoveryManager rec(machine, RecoveryOptions{plan.crash_ckpt_ns});
    RecoveryProbe probe(machine, rec);
    entry->run(machine, in, entry->exec);
    EXPECT_GE(rec.stats().crashes, 1u);
    return probe.sealed_hashes;
  };
  const std::vector<std::uint64_t> clean = sealed(0x00);
  EXPECT_GT(clean.size(), 1u);
  EXPECT_EQ(clean, sealed(0xAB));
}

INSTANTIATE_TEST_SUITE_P(PaddedState, SnapshotBytes,
                         ::testing::Values("sssp", "boruvka"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Crash recovery, distributed: crashes under a lossy network must keep the
// NetStats accounting exact — counters restored to checkpoint values forget
// the interval's drops/dups, the injector never forgets, and the
// rolled_back_* deltas bridge the two.

TEST(Recovery, NetStatsAccountingIsExactAcrossCrashRestore) {
  const std::uint64_t seed = 3;
  const int nodes = 4;
  const int threads = 4;
  util::Rng grng(seed + 17);
  const graph::Graph g = graph::erdos_renyi(1 << 10, 0.01, grng);
  const graph::Block1D part(g.num_vertices(), nodes);
  algorithms::DistPrOptions o;
  o.iterations = 3;

  mem::SimHeap base_heap;
  net::Cluster base(model::has_p(), model::HtmKind::kRtm, nodes, threads,
                    base_heap, seed);
  const auto base_r = algorithms::run_distributed_pagerank(base, g, part, o);

  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), model::HtmKind::kRtm, nodes, threads,
                       heap, seed);
  const fault::FaultPlan plan =
      fault::parse("crash-combined", model::has_p().fault);
  fault::FaultInjector inj(plan, seed, nodes * threads, threads);
  inj.attach(cluster);
  RecoveryManager rec(cluster, RecoveryOptions{plan.crash_ckpt_ns});
  const auto r = algorithms::run_distributed_pagerank(cluster, g, part, o);

  EXPECT_EQ(cluster.in_flight(), 0u);  // quiescence: exactly-once delivered
  const auto& injected = inj.injected();
  const RecoveryStats& rs = rec.stats();
  EXPECT_GE(rs.crashes, 1u);
  EXPECT_EQ(rs.crashes, injected.crashes);
  // Exact accounting: injected == surviving-timeline NetStats + the
  // counter deltas each restore rolled back.
  EXPECT_EQ(r.net.dropped + rs.rolled_back_dropped, injected.net_dropped);
  EXPECT_EQ(r.net.duplicated + rs.rolled_back_duplicated,
            injected.net_duplicated);
  EXPECT_GT(injected.net_dropped, 0u);  // the lossy leg actually engaged

  // Fault-oblivious correctness: float32 payloads + reordered accumulation
  // bound the drift (same tolerance as bench_fault_matrix).
  ASSERT_EQ(r.rank.size(), base_r.rank.size());
  for (std::size_t v = 0; v < r.rank.size(); ++v) {
    EXPECT_NEAR(r.rank[v], base_r.rank[v], 1e-5) << "vertex " << v;
  }
}

// The bytes a crashed distributed run checkpoints, pinned section by
// section: a digest of each section payload over every snapshot the run
// seals, at least one of them with sends still unacked. The seal's own
// digest words lie outside every payload, so how a snapshot is sealed
// cannot move these constants; what the engine, the host components or
// the network protocol save can.
TEST(Recovery, DistributedCheckpointPayloadsArePinned) {
  const std::uint64_t seed = 3;
  const int nodes = 4;
  const int threads = 4;
  util::Rng grng(seed + 17);
  const graph::Graph g = graph::erdos_renyi(1 << 10, 0.01, grng);
  const graph::Block1D part(g.num_vertices(), nodes);
  algorithms::DistPrOptions o;
  o.iterations = 3;

  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), model::HtmKind::kRtm, nodes, threads,
                       heap, seed);
  const fault::FaultPlan plan =
      fault::parse("crash-combined", model::has_p().fault);
  fault::FaultInjector inj(plan, seed, nodes * threads, threads);
  inj.attach(cluster);
  RecoveryManager rec(cluster, RecoveryOptions{plan.crash_ckpt_ns});
  RecoveryProbe probe(cluster.machine(), rec);
  algorithms::run_distributed_pagerank(cluster, g, part, o);

  EXPECT_GE(rec.stats().crashes, 1u);
  EXPECT_GT(*std::max_element(probe.in_flight_at_seal.begin(),
                              probe.in_flight_at_seal.end()),
            0u);
  std::vector<std::uint8_t> per_section[4];
  for (const std::vector<std::uint64_t>& sections : probe.section_hashes) {
    ASSERT_EQ(sections.size(), 4u);  // core, heap, host, net
    for (std::size_t i = 0; i < 4; ++i) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&sections[i]);
      per_section[i].insert(per_section[i].end(), p, p + 8);
    }
  }
  EXPECT_EQ(probe.section_hashes.size(), 40u);
  EXPECT_EQ(fnv1a(per_section[0]), 8091091902831228573ULL) << "core";
  EXPECT_EQ(fnv1a(per_section[1]), 1757212868833830719ULL) << "heap";
  EXPECT_EQ(fnv1a(per_section[2]), 16132722918318978443ULL) << "host";
  EXPECT_EQ(fnv1a(per_section[3]), 3402997053438032300ULL) << "net";
}

// ---------------------------------------------------------------------------
// RTO backoff regression: the sender's retransmit timeout doubles per
// retransmission and plateaus exactly at the hook's cap — never past it.

class DropFirstNHook final : public net::NetFaultHook {
 public:
  DropFirstNHook(htm::DesMachine& machine, int drops)
      : machine_(machine), drops_(drops) {}

  bool net_active() const override { return true; }
  net::MessageFate fate(const net::Message&, bool retransmit) override {
    if (retransmit) retransmit_times.push_back(machine_.now());
    ++calls_;
    net::MessageFate f;
    f.drop = calls_ <= drops_;
    return f;
  }
  double initial_rto_ns() const override { return 500.0; }
  double rto_cap_ns() const override { return 2000.0; }

  std::vector<double> retransmit_times;

 private:
  htm::DesMachine& machine_;
  int calls_ = 0;
  int drops_ = 0;
};

class PollWorker : public htm::Worker {
 public:
  explicit PollWorker(net::Cluster& cluster) : cluster_(cluster) {}
  bool next(htm::ThreadCtx& ctx) override {
    return cluster_.poll_and_handle(ctx);
  }

 private:
  net::Cluster& cluster_;
};

class SendOnceWorker : public htm::Worker {
 public:
  SendOnceWorker(net::Cluster& cluster, std::uint32_t handler)
      : cluster_(cluster), handler_(handler) {}
  bool next(htm::ThreadCtx& ctx) override {
    if (!sent_) {
      sent_ = true;
      cluster_.send(ctx, 1, handler_, 42);
      return true;
    }
    return cluster_.poll_and_handle(ctx);
  }

 private:
  net::Cluster& cluster_;
  std::uint32_t handler_;
  bool sent_ = false;
};

TEST(Recovery, RetransmitBackoffDoublesAndCapsAtRtoCap) {
  mem::SimHeap heap;
  net::Cluster cluster(model::has_p(), model::HtmKind::kRtm, 2, 1, heap);
  const int kDrops = 6;
  DropFirstNHook hook(cluster.machine(), kDrops);
  cluster.set_fault_hook(&hook);
  int handled = 0;
  const auto h = cluster.register_handler(
      [&](htm::ThreadCtx&, const net::Message&) { ++handled; });
  SendOnceWorker sender(cluster, h);
  PollWorker receiver(cluster);
  cluster.machine().set_worker(0, &sender);
  cluster.machine().set_worker(1, &receiver);
  cluster.machine().run();

  // Exactly one copy reaches the handler. Timers past the 6th drop may
  // legitimately outrun the ack's round trip (the capped RTO is shorter
  // than 2L), so a few extra retransmissions arrive and are dedup-discarded
  // — exactly-once delivery holds regardless.
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(cluster.stats().dropped, static_cast<std::uint64_t>(kDrops));
  EXPECT_GE(cluster.stats().retransmitted, static_cast<std::uint64_t>(kDrops));
  EXPECT_EQ(cluster.stats().dedup_discarded,
            cluster.stats().retransmitted - kDrops);
  EXPECT_EQ(cluster.stats().acked, 1u);
  EXPECT_EQ(cluster.in_flight(), 0u);

  // Retransmissions fire at arm-time + RTO; the RTO doubles after each
  // arming: gaps run 2*initial, then sit exactly at the cap forever.
  ASSERT_GE(hook.retransmit_times.size(), static_cast<std::size_t>(kDrops));
  std::vector<double> gaps;
  for (std::size_t i = 1; i < hook.retransmit_times.size(); ++i) {
    gaps.push_back(hook.retransmit_times[i] - hook.retransmit_times[i - 1]);
  }
  EXPECT_DOUBLE_EQ(gaps[0], 2 * hook.initial_rto_ns());
  for (std::size_t i = 1; i < gaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(gaps[i], hook.rto_cap_ns()) << "gap " << i;
  }
  for (const double gap : gaps) {
    EXPECT_LE(gap, hook.rto_cap_ns());  // backoff never overshoots the cap
  }
}

// ---------------------------------------------------------------------------
// StallDiagnostic rendering: the watchdog's exception must surface the
// recovery-facing fields (in-flight messages, last checkpoint id) so a hung
// recovery is diagnosable from the exception text alone.

TEST(Recovery, StallDiagnosticRendersRecoveryFields) {
  htm::StallDiagnostic d;
  d.now_ns = 1.25e6;
  d.last_progress_ns = 2.5e5;
  d.inflight_txns = 3;
  d.worst_tid = 9;
  d.worst_streak = 41;
  d.events_processed = 12345;
  d.inflight_messages = 7;
  d.last_checkpoint_id = 3;
  const std::string s = d.to_string();
  EXPECT_NE(s.find("12345 events processed"), std::string::npos) << s;
  EXPECT_NE(s.find("7 message(s) in flight"), std::string::npos) << s;
  EXPECT_NE(s.find("last checkpoint #3"), std::string::npos) << s;
}

TEST(Recovery, CrashDiagnosticRendersCrashInstant) {
  htm::CrashDiagnostic d;
  d.now_ns = 4200.0;
  d.tid = 2;
  d.events_processed = 99;
  const std::string s = d.to_string();
  EXPECT_NE(s.find("crash-stopped"), std::string::npos) << s;
  EXPECT_NE(s.find("thread t2"), std::string::npos) << s;
  EXPECT_NE(s.find("99 events processed"), std::string::npos) << s;
}

}  // namespace
}  // namespace aam::recovery
