// Benchmark driver for the AAM simulator; README.md beside this file
// describes the workloads and the metrics.
//
// One invocation runs one workload — a fixed list of (algorithm,
// mechanism) *cells* — as a closed loop of passes for about --seconds. It
// calls the simulator's libraries through their public entry points and
// times every call from outside, reporting host times at the speed of the
// reference host (see HostProbe). Each cell's output is checked against a
// host reference (the output oracle) and its simulated projection against
// every earlier run of the same cell and seed (the determinism check).
// The last line of stdout is one JSON object: the end-to-end metrics, or
// with --trace=1 the per-layer ledger, in which case the spans recorded
// around each call are also written as Chrome trace-event JSON.
//
//   perfbench_driver --workload=sweep --seed=1 --seconds=25 --trace=0
//                    --state-dir=<dir for projections and traces>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "graph/partition.hpp"
#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"
#include "sim/host_pool.hpp"
#include "util/cli.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace aam;
using Clock = std::chrono::steady_clock;

// Inputs shared by every workload. Scale 14 keeps one cell's working set
// (CSR, simulated heap and the engine's per-line tables) near the 2 MB
// per-core L2 of the reference host. At scale 18 it spills to the shared L3
// and DRAM, where the load of other tenants moved host times by 30-50%
// between two sets of runs of the same code.
constexpr int kScale = 14;
constexpr int kEdgeFactor = 8;
constexpr int kThreads = 64;  // simulated BG/Q threads
constexpr int kBatch = 16;
constexpr int kPrIterations = 3;
constexpr double kDamping = 0.85;
constexpr graph::Vertex kWeightedVertices = 1500;
constexpr double kWeightedP = 0.01;
constexpr int kNodes = 4;  // pagerank-dist cluster: 4 nodes x 16 threads
constexpr double kSetupEvery_s = 1.0;  // host seconds between set-up timings
constexpr std::size_t kMinPasses = 2;
// A round figure for one HostProbe::run() on the reference host (4-vCPU
// VM, gcc 12.2; it measured 0.023-0.032 s). It sets the unit in which every
// host time is reported, so it never changes.
constexpr double kProbeReferenceS = 0.030;
// crash-combined with a checkpoint at most every simulated millisecond
// (~1% of the makespan). The profile's 2 us cadence checkpoints at nearly
// every safe instant, and how many of those occur swings 150-415 with the
// seed at ~18 ms of host time each, so host time would follow the seed
// rather than the code.
constexpr const char* kCrashSpec = "crash-combined,crash.ckpt=1e6";
// am-crash runs its cell under this many fault streams per pass. Where the
// crashes land decides how much work is lost and replayed, so one stream
// makes host time follow the seed; four average it out.
constexpr int kCrashStreams = 4;

double seconds_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------------ tracing

/// In-memory span recorder. Spans are recorded from this driver only,
/// around each call into a layer; they are written out when the run ends.
/// Thread-safe: sweep cells record from every host worker.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = on;
  }

  /// Opens a span; returns its id, or -1 while recording is off.
  int open(std::string name, int parent, int worker) {
    const double now = seconds_since(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now, now, parent, worker});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    const double now = seconds_since(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, one track per host worker, host microseconds.
  void write(const std::string& path, const std::string& fingerprint) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"otherData\": " << fingerprint << ",\n\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f",
                    s.worker, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", "
          << buf << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int worker = 0;
  };

  Clock::time_point origin_;
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, int parent, int worker = 0)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, worker)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Host seconds to record one span (open and close, uncontended), measured
/// on a private tracer so the run's own trace is untouched.
double span_cost_s() {
  constexpr int kSpans = 20000;
  Tracer probe(Clock::now());
  probe.set_enabled(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    SpanScope span(probe, "cell.probe", -1);
  }
  return seconds_since(t0, Clock::now()) / kSpans;
}

/// Small dense ids for the host threads that run cells (the caller is 0).
class WorkerIds {
 public:
  int get() {
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(ids_.begin(), ids_.end(), self);
    if (it != ids_.end()) return static_cast<int>(it - ids_.begin());
    ids_.push_back(self);
    return static_cast<int>(ids_.size()) - 1;
  }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> ids_;
};

// ------------------------------------------------------------- host probe

/// Host-speed probe: a fixed graph kernel that shares no code with the
/// simulator (its own generator, sort, CSR build and breadth-first
/// traversal). On a shared host, other tenants slow memory-bound code by
/// 20-50% for minutes at a time, and the simulator's set-up and passes
/// slow with them. The probe runs next to every pass and set-up, so each
/// host time can be expressed at the reference host's speed: the measured
/// time times kProbeReferenceS over the probe time around it. The probe is
/// fixed: changing it, or kProbeReferenceS, changes every reported time.
class HostProbe {
 public:
  /// Allocates every buffer once, so the probe adds a constant to the
  /// process's peak RSS.
  HostProbe()
      : edges_(kEdges), work_(kEdges), offsets_(kVertices + 1),
        fill_(kVertices), targets_(kEdges), level_(kVertices) {
    std::mt19937_64 rng(0x5eed);
    for (std::uint64_t& e : edges_) e = rng();
    frontier_.reserve(kVertices);
    next_.reserve(kVertices);
  }

  /// Host seconds of one probe run.
  double run() {
    const auto t0 = Clock::now();
    std::copy(edges_.begin(), edges_.end(), work_.begin());
    std::sort(work_.begin(), work_.end());
    auto src = [](std::uint64_t e) { return e >> (64 - kLogVertices); };
    auto dst = [](std::uint64_t e) { return e & (kVertices - 1); };
    std::fill(offsets_.begin(), offsets_.end(), 0);
    for (const std::uint64_t e : work_) ++offsets_[src(e) + 1];
    for (std::size_t v = 0; v < kVertices; ++v) offsets_[v + 1] += offsets_[v];
    std::copy(offsets_.begin(), offsets_.end() - 1, fill_.begin());
    for (const std::uint64_t e : work_) {
      targets_[fill_[src(e)]++] = static_cast<std::uint32_t>(dst(e));
    }
    std::uint64_t visited = 0;
    for (std::uint32_t root = 0; root < kTraversals; ++root) {
      std::fill(level_.begin(), level_.end(), ~0u);
      frontier_.assign(1, root);
      level_[root] = 0;
      for (std::uint32_t depth = 1; !frontier_.empty(); ++depth) {
        next_.clear();
        for (const std::uint32_t u : frontier_) {
          for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
            if (level_[targets_[i]] == ~0u) {
              level_[targets_[i]] = depth;
              next_.push_back(targets_[i]);
            }
          }
        }
        visited += next_.size();
        frontier_.swap(next_);
      }
    }
    sink_.fetch_add(visited, std::memory_order_relaxed);  // keeps the work
    return seconds_since(t0, Clock::now());
  }

 private:
  static constexpr unsigned kLogVertices = 15;
  static constexpr std::size_t kVertices = std::size_t{1} << kLogVertices;
  static constexpr std::size_t kEdges = std::size_t{1} << 18;
  static constexpr std::uint32_t kTraversals = 4;

  std::vector<std::uint64_t> edges_;
  std::vector<std::uint64_t> work_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> frontier_;
  std::vector<std::uint32_t> next_;
  std::atomic<std::uint64_t> sink_{0};
};

// -------------------------------------------------------- inputs & oracles

struct Inputs {
  graph::Graph g;   ///< Kronecker graph for the traversal algorithms
  graph::Graph wg;  ///< weighted ER graph for sssp and boruvka
  graph::Vertex root = 0;
  graph::Vertex st_t = 0;
  core::AutoPolicy policy_g;  ///< auto routing tables (auto cells)
  core::AutoPolicy policy_wg;
};

struct SetupTimes {
  double kronecker_s = 0;
  double weighted_s = 0;
  double auto_policy_s = 0;
  double scale = 1;  ///< kProbeReferenceS / probe time around the set-up
  double total() const { return kronecker_s + weighted_s + auto_policy_s; }
};

graph::Vertex second_endpoint(const graph::Graph& g, graph::Vertex s) {
  for (graph::Vertex v = g.num_vertices(); v-- > 0;) {
    if (v != s && !g.neighbors(v).empty()) return v;
  }
  return s;
}

/// The same set-up for every workload, so setup_s compares across them.
Inputs build_inputs(std::uint64_t seed, SetupTimes& times, Tracer& tracer,
                    int parent) {
  const model::MachineConfig& config = model::machine_by_name("BGQ");
  Inputs in;
  auto t = Clock::now();
  {
    SpanScope span(tracer, "graph.kronecker", parent);
    util::Rng rng(seed);
    graph::KroneckerParams params;
    params.scale = kScale;
    params.edge_factor = kEdgeFactor;
    in.g = graph::kronecker(params, rng);
    in.root = graph::pick_nonisolated_vertex(in.g);
    in.st_t = second_endpoint(in.g, in.root);
  }
  times.kronecker_s = seconds_since(t, Clock::now());
  t = Clock::now();
  {
    SpanScope span(tracer, "graph.weighted", parent);
    util::Rng wrng(seed + 1);
    const auto edges = graph::erdos_renyi_edges(kWeightedVertices, kWeightedP,
                                                wrng);
    const auto weights =
        graph::random_weights(edges.size(), 1.0f, 100.0f, wrng);
    in.wg = graph::Graph::from_weighted_edges(kWeightedVertices, edges,
                                              weights, true);
  }
  times.weighted_s = seconds_since(t, Clock::now());
  t = Clock::now();
  {
    SpanScope span(tracer, "analysis.auto_policy", parent);
    const model::HtmKind kind = model::HtmKind::kBgqShort;
    in.policy_g = analysis::make_auto_policy(
        config, kind, analysis::workload_from_graph(in.g, kThreads, kBatch));
    in.policy_wg = analysis::make_auto_policy(
        config, kind, analysis::workload_from_graph(in.wg, kThreads, kBatch));
  }
  times.auto_policy_s = seconds_since(t, Clock::now());
  return in;
}

/// Host reference outputs every cell is checked against.
struct References {
  std::vector<double> rank;  ///< pagerank_reference, kPrIterations
  std::uint64_t bfs_reachable = 0;
  std::vector<double> sssp;
  double mst_weight = 0;
  bool st_connected = false;
  std::uint64_t st_reach_bound = 0;  ///< |reach(s)| + |reach(t)|
};

References build_references(const Inputs& in) {
  References ref;
  ref.rank = algorithms::pagerank_reference(in.g, kPrIterations, kDamping);
  ref.bfs_reachable = graph::reachable_count(in.g, in.root);
  ref.sssp = algorithms::sssp_reference(in.wg, 0);
  ref.mst_weight = algorithms::mst_reference_weight(in.wg);
  ref.st_connected =
      graph::bfs_levels(in.g, in.root)[in.st_t] != graph::kInvalidLevel;
  ref.st_reach_bound = ref.bfs_reachable + graph::reachable_count(in.g, in.st_t);
  return ref;
}

bool ranks_match(const std::vector<double>& got,
                 const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= tol)) return false;
  }
  return true;
}

bool distances_match(const std::vector<double>& got,
                     const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (std::isinf(want[v]) != std::isinf(got[v])) return false;
    if (!std::isinf(want[v]) && !(std::fabs(got[v] - want[v]) <= 1e-6)) {
      return false;
    }
  }
  return true;
}

// -------------------------------------------------------- cells & workloads

enum class Algo { kBfs, kPageRank, kSssp, kColoring, kStConn, kBoruvka,
                  kPageRankDist };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kBfs: return "bfs";
    case Algo::kPageRank: return "pagerank";
    case Algo::kSssp: return "sssp";
    case Algo::kColoring: return "coloring";
    case Algo::kStConn: return "st-conn";
    case Algo::kBoruvka: return "boruvka";
    case Algo::kPageRankDist: return "pagerank-dist";
  }
  return "?";
}

bool is_weighted(Algo a) { return a == Algo::kSssp || a == Algo::kBoruvka; }

/// The sssp, st-conn and boruvka cells take milliseconds; the ledger
/// reports them summed as cell.small.
bool is_small(Algo a) {
  return a == Algo::kSssp || a == Algo::kStConn || a == Algo::kBoruvka;
}

struct Cell {
  Algo algo = Algo::kBfs;
  std::string mech;  ///< core::to_string(mechanism), "auto" or "am"
  core::Mechanism mechanism = core::Mechanism::kHtmCoarsened;
  bool is_auto = false;
  bool crash = false;  ///< runs under kCrashSpec
  int fault_stream = 0;  ///< crash cells: which injector stream of the seed

  std::string name() const { return std::string(algo_name(algo)) + "." + mech; }
  /// Determinism key: the same cell in two workloads must match.
  std::string key() const {
    return crash ? name() + "+" + kCrashSpec + "#" +
                       std::to_string(fault_stream)
                 : name();
  }
};

struct Workload {
  std::string name;
  int workers = 1;  ///< host workers (closed loop: one cell each at a time)
  std::vector<Cell> cells;
};

Cell fixed_cell(Algo a, core::Mechanism m) {
  return {a, core::to_string(m), m, false, false};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "sweep", "speculative", "nonspeculative", "am-crash"};
  return kNames;
}

Workload make_workload(const std::string& name) {
  using core::Mechanism;
  const Algo kOrder[] = {Algo::kColoring, Algo::kPageRank, Algo::kBfs,
                         Algo::kBoruvka, Algo::kSssp, Algo::kStConn};
  Workload w;
  w.name = name;
  if (name == "sweep") {
    w.workers = 4;
    for (const Algo a : kOrder) {
      for (const Mechanism m : core::all_mechanisms()) {
        w.cells.push_back(fixed_cell(a, m));
      }
      w.cells.push_back({a, "auto", Mechanism::kHtmCoarsened, true, false});
    }
    w.cells.push_back({Algo::kPageRankDist, "am", Mechanism::kHtmCoarsened,
                       false, false});
    // Longest cells first (host ms at seed 1 on a 4-core host, in this
    // order: 790, 260, 170, 165, 90, 80, 70; all others < 40), so the pass
    // does not end on a long cell started late.
    const std::vector<std::string> kLongest = {
        "coloring.htm",     "pagerank-dist.am", "pagerank.htm",
        "pagerank.stm",     "coloring.auto",    "coloring.atomics",
        "coloring.stm"};
    auto rank = [&](const Cell& c) {
      return std::find(kLongest.begin(), kLongest.end(), c.name()) -
             kLongest.begin();
    };
    std::stable_sort(w.cells.begin(), w.cells.end(),
                     [&](const Cell& a, const Cell& b) {
                       return rank(a) < rank(b);
                     });
  } else if (name == "speculative" || name == "nonspeculative") {
    const bool spec = name == "speculative";
    for (const Algo a : kOrder) {
      for (const Mechanism m : core::all_mechanisms()) {
        const bool speculative =
            m == Mechanism::kHtmCoarsened || m == Mechanism::kStm;
        if (speculative == spec) w.cells.push_back(fixed_cell(a, m));
      }
    }
  } else if (name == "am-crash") {
    for (int stream = 0; stream < kCrashStreams; ++stream) {
      w.cells.push_back({Algo::kPageRankDist, "am",
                         core::Mechanism::kHtmCoarsened, false, true, stream});
    }
  }
  return w;
}

struct FaultCounts {
  std::uint64_t other_aborts = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t net_duplicated = 0;
  std::uint64_t crashes = 0;
};

struct CellResult {
  bool ok = false;
  std::string error;
  std::uint64_t elements = 0;  ///< deterministic work count
  double sim_ns = 0;           ///< simulated makespan
  std::uint64_t events = 0;    ///< DesMachine::events_processed()
  htm::HtmStats htm;
  net::NetStats net;
  recovery::RecoveryStats rec;
  FaultCounts fault;
  core::AutoTelemetry tele;
  double host_s = 0;  ///< host time of the algorithms::run_* call
  double job_start_s = 0;
  double job_end_s = 0;
  int worker = 0;
};

/// Everything simulated about a cell, printed exactly. Host times are
/// excluded; a host-only change must leave this string unchanged.
std::string projection(const CellResult& r) {
  std::ostringstream os;
  os << std::hexfloat << "elements=" << r.elements << " sim_ns=" << r.sim_ns
     << " events=" << r.events << " htm=" << r.htm.started << ","
     << r.htm.committed << "," << r.htm.serialized << ","
     << r.htm.aborts_conflict << "," << r.htm.aborts_capacity << ","
     << r.htm.aborts_other << "," << r.htm.aborts_explicit << ","
     << r.htm.atomic_cas << "," << r.htm.atomic_acc
     << " net=" << r.net.messages_sent << "," << r.net.bytes_sent << ","
     << r.net.items_sent << "," << r.net.remote_atomics << ","
     << r.net.dropped << "," << r.net.duplicated << ","
     << r.net.retransmitted << "," << r.net.acked << ","
     << r.net.dedup_discarded << " rec=" << r.rec.checkpoints << ","
     << r.rec.crashes << "," << r.rec.replayed_sends << ","
     << r.rec.lost_work_ns << "," << r.rec.snapshot_bytes << " fault="
     << r.fault.other_aborts << "," << r.fault.net_dropped << ","
     << r.fault.net_duplicated << "," << r.fault.crashes << " auto="
     << r.tele.batches << "," << r.tele.prediction_miss << ","
     << r.tele.descents << "," << r.tele.capacity_clamps;
  return os.str();
}

/// Simulated heap of one cell: 64 bytes per vertex holds every algorithm's
/// state, plus 1 MiB of slack. No looser pad: the heap is zeroed when it
/// is built and DesMachine sizes its per-line tables from its capacity, so
/// unused capacity costs host time and cache that are not the simulator's.
std::size_t heap_bytes(const Inputs& in) {
  return (std::size_t{1} << 20) +
         static_cast<std::size_t>(in.g.num_vertices()) * 64;
}

/// Times `call` (one call into the algorithms layer) into r.host_s.
template <typename F>
auto timed(CellResult& r, Tracer& tracer, const std::string& name,
           int parent, int worker, F&& call) {
  SpanScope span(tracer, name, parent, worker);
  const auto t0 = Clock::now();
  auto out = call();
  r.host_s = seconds_since(t0, Clock::now());
  return out;
}

void run_machine_cell(const Cell& cell, const Inputs& in,
                      const References& ref, std::uint64_t seed,
                      sim::ShardId shard, Tracer& tracer, int parent,
                      CellResult& r) {
  const model::MachineConfig& config = model::machine_by_name("BGQ");
  mem::SimHeap heap(heap_bytes(in));
  htm::DesMachine machine(config, model::HtmKind::kBgqShort, kThreads, heap,
                          seed);
  machine.bind_shard(shard);
  // Private copy: AutoTelemetry is mutable inside the policy.
  core::AutoPolicy policy = is_weighted(cell.algo) ? in.policy_wg
                                                   : in.policy_g;
  policy.telemetry = {};
  const core::AutoPolicy* auto_policy = cell.is_auto ? &policy : nullptr;
  const std::string span = "cell." + cell.name();
  const int w = r.worker;
  const std::uint64_t pr_elements =
      static_cast<std::uint64_t>(kPrIterations) *
      (in.g.num_edges() + in.g.num_vertices());

  switch (cell.algo) {
    case Algo::kBfs: {
      algorithms::BfsOptions o;
      o.root = in.root;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_bfs(machine, in.g, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = algorithms::validate_bfs_tree(in.g, in.root, out.parent) &&
             out.vertices_visited == ref.bfs_reachable;
      r.elements = out.edges_scanned;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kPageRank: {
      algorithms::PageRankOptions o;
      o.iterations = kPrIterations;
      o.damping = kDamping;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_pagerank(machine, in.g, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = ranks_match(out.rank, ref.rank, 1e-9);
      r.elements = pr_elements;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kSssp: {
      algorithms::SsspOptions o;
      o.source = 0;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_sssp(machine, in.wg, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = distances_match(out.distance, ref.sssp);
      r.elements = out.relaxations;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kColoring: {
      algorithms::ColoringOptions o;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.seed = seed;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_boman_coloring(machine, in.g, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = algorithms::validate_coloring(in.g, out.color);
      r.elements = in.g.num_vertices() + out.recolor_requests;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kStConn: {
      algorithms::StConnOptions o;
      o.s = in.root;
      o.t = in.st_t;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_st_connectivity(machine, in.g, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = out.connected == ref.st_connected &&
             out.vertices_colored <= ref.st_reach_bound;
      r.elements = out.vertices_colored;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kBoruvka: {
      algorithms::BoruvkaOptions o;
      o.mechanism = cell.mechanism;
      o.batch = kBatch;
      o.auto_policy = auto_policy;
      const auto out = timed(r, tracer, span, parent, w, [&] {
        return algorithms::run_boruvka(machine, in.wg, o);
      });
      SpanScope check(tracer, "oracle", parent, w);
      r.ok = std::fabs(out.total_weight - ref.mst_weight) <=
             ref.mst_weight * 1e-6;
      r.elements = out.edges_in_forest;
      r.sim_ns = out.total_time_ns;
      r.htm = out.stats;
      break;
    }
    case Algo::kPageRankDist:
      AAM_CHECK_MSG(false, "pagerank-dist runs on a Cluster");
  }
  r.events = machine.events_processed();
  if (cell.is_auto) r.tele = policy.telemetry;
  if (!r.ok) r.error = "output oracle mismatch";
}

void run_cluster_cell(const Cell& cell, const Inputs& in,
                      const References& ref, std::uint64_t seed,
                      sim::ShardId shard, Tracer& tracer, int parent,
                      CellResult& r) {
  const model::MachineConfig& config = model::machine_by_name("BGQ");
  const graph::Block1D part(in.g.num_vertices(), kNodes);
  mem::SimHeap heap(heap_bytes(in));
  net::Cluster cluster(config, model::HtmKind::kBgqShort, kNodes,
                       kThreads / kNodes, heap, seed);
  cluster.machine().bind_shard(shard);
  // Crash cells: fault injection seeded like the run, plus a recovery
  // manager so every crash-stop restores from the last checkpoint.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<recovery::RecoveryManager> recovery;
  if (cell.crash) {
    const fault::FaultPlan plan = fault::parse(kCrashSpec, config.fault);
    const std::uint64_t fault_seed = seed * kCrashStreams + cell.fault_stream;
    injector = std::make_unique<fault::FaultInjector>(
        plan, fault_seed, kThreads, cluster.threads_per_node());
    injector->attach(cluster);
    recovery = std::make_unique<recovery::RecoveryManager>(
        cluster, recovery::RecoveryOptions{plan.crash_ckpt_ns});
  }
  algorithms::DistPrOptions o;
  o.iterations = kPrIterations;
  o.damping = kDamping;
  o.local_batch = kBatch;
  const auto out = timed(r, tracer, "cell." + cell.name(), parent, r.worker,
                         [&] {
                           return algorithms::run_distributed_pagerank(
                               cluster, in.g, part, o);
                         });
  {
    SpanScope check(tracer, "oracle", parent, r.worker);
    r.ok = ranks_match(out.rank, ref.rank, 1e-5);  // float32 payloads
  }
  r.elements = static_cast<std::uint64_t>(kPrIterations) *
               (in.g.num_edges() + in.g.num_vertices());
  r.sim_ns = out.total_time_ns;
  r.htm = out.stats;
  r.net = cluster.stats();
  r.events = cluster.machine().events_processed();
  if (recovery != nullptr) r.rec = recovery->stats();
  if (injector != nullptr) {
    const fault::InjectedStats& inj = injector->injected();
    r.fault = {inj.other_aborts, inj.net_dropped, inj.net_duplicated,
               inj.crashes};
  }
  // Same teardown order as the benches: the manager unregisters itself
  // before the hooks go, so no checkpoint fires on a hook-less machine.
  recovery.reset();
  if (injector != nullptr) {
    cluster.machine().set_fault_hook(nullptr);
    cluster.set_fault_hook(nullptr);
  }
  if (!r.ok) r.error = "output oracle mismatch";
}

// ------------------------------------------------------------ determinism

/// Simulated projections of every cell run so far in this build
/// directory, keyed by seed and cell. A later run of the same cell — in
/// another pass, another workload, or a traced run — must reproduce it.
class ProjectionStore {
 public:
  explicit ProjectionStore(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos) {
        known_[line.substr(0, tab)] = line.substr(tab + 1);
      }
    }
  }

  /// Records the projection on first sight; false on a mismatch.
  bool check(std::uint64_t seed, const std::string& cell_key,
             const std::string& proj) {
    const std::string key = std::to_string(seed) + " " + cell_key;
    const auto [it, inserted] = known_.emplace(key, proj);
    dirty_ |= inserted;
    return inserted || it->second == proj;
  }

  void save() const {
    if (!dirty_) return;
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp);
      for (const auto& [key, proj] : known_) out << key << '\t' << proj << '\n';
    }
    std::filesystem::rename(tmp, path_);
  }

 private:
  std::string path_;
  std::map<std::string, std::string> known_;
  bool dirty_ = false;
};

// ------------------------------------------------------------------ passes

struct PassTotals {
  double scale = 1;  ///< kProbeReferenceS / probe time around the pass
  double wall_s = 0;
  double busy_s = 0;  ///< Σ cell host time
  double longest_cell_s = 0;
  int workers_used = 0;
  std::uint64_t elements = 0;
  std::uint64_t events = 0;
  htm::HtmStats htm;
  net::NetStats net;
  recovery::RecoveryStats rec;
  FaultCounts fault;
  core::AutoTelemetry tele;
};

PassTotals summarize(const std::vector<CellResult>& cells) {
  PassTotals t;
  double first = 0;
  double last = 0;
  std::vector<int> workers;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    first = i == 0 ? c.job_start_s : std::min(first, c.job_start_s);
    last = std::max(last, c.job_end_s);
    if (std::find(workers.begin(), workers.end(), c.worker) == workers.end()) {
      workers.push_back(c.worker);
    }
    t.busy_s += c.host_s;
    t.longest_cell_s = std::max(t.longest_cell_s, c.host_s);
    t.elements += c.elements;
    t.events += c.events;
    t.htm.merge(c.htm);
    t.net.messages_sent += c.net.messages_sent;
    t.net.bytes_sent += c.net.bytes_sent;
    t.net.items_sent += c.net.items_sent;
    t.net.remote_atomics += c.net.remote_atomics;
    t.net.dropped += c.net.dropped;
    t.net.duplicated += c.net.duplicated;
    t.net.retransmitted += c.net.retransmitted;
    t.net.acked += c.net.acked;
    t.net.dedup_discarded += c.net.dedup_discarded;
    t.rec.checkpoints += c.rec.checkpoints;
    t.rec.crashes += c.rec.crashes;
    t.rec.replayed_sends += c.rec.replayed_sends;
    t.rec.lost_work_ns += c.rec.lost_work_ns;
    t.rec.snapshot_bytes += c.rec.snapshot_bytes;
    t.fault.other_aborts += c.fault.other_aborts;
    t.fault.net_dropped += c.fault.net_dropped;
    t.fault.net_duplicated += c.fault.net_duplicated;
    t.fault.crashes += c.fault.crashes;
    t.tele.batches += c.tele.batches;
    t.tele.prediction_miss += c.tele.prediction_miss;
    t.tele.descents += c.tele.descents;
    t.tele.capacity_clamps += c.tele.capacity_clamps;
  }
  t.wall_s = last - first;
  t.workers_used = static_cast<int>(workers.size());
  return t;
}

/// One closed-loop pass: every cell once, each host worker starting its
/// next cell only when its previous one has finished.
std::vector<CellResult> run_pass(const Workload& w, const Inputs& in,
                                 const References& ref, std::uint64_t seed,
                                 Tracer& tracer, int parent,
                                 Clock::time_point origin) {
  std::vector<CellResult> results(w.cells.size());
  WorkerIds ids;
  ids.get();  // the calling thread is worker 0
  sim::ShardRunner runner(w.workers);
  runner.run(w.cells.size(), [&](sim::ShardId id) {
    const Cell& cell = w.cells[id];
    CellResult& r = results[id];
    r.worker = ids.get();
    r.job_start_s = seconds_since(origin, Clock::now());
    SpanScope job(tracer, "job." + cell.name(), parent, r.worker);
    try {
      if (cell.algo == Algo::kPageRankDist) {
        run_cluster_cell(cell, in, ref, seed, id, tracer, job.id(), r);
      } else {
        run_machine_cell(cell, in, ref, seed, id, tracer, job.id(), r);
      }
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    r.job_end_s = seconds_since(origin, Clock::now());
  });
  return results;
}

// ------------------------------------------------------------------ output

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    body_ += (body_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fingerprint_json(const Workload& w, std::uint64_t seed,
                             int seconds, bool trace) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
     << ", \"seconds\": " << seconds << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"host_workers\": " << w.workers << ", \"compiler\": \""
     << compiler << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"scale\": " << kScale << ", \"edge_factor\": " << kEdgeFactor
     << ", \"machine\": \"BGQ\", \"threads\": " << kThreads
     << ", \"batch\": " << kBatch << "}";
  return os.str();
}

/// Fixed per-layer cell list of the ledger (cells a workload does not run
/// report 0).
std::vector<std::string> ledger_cells() {
  std::vector<std::string> names;
  for (const char* a : {"bfs", "pagerank", "coloring"}) {
    for (const core::Mechanism m : core::all_mechanisms()) {
      names.push_back(std::string(a) + "." + core::to_string(m));
    }
    names.push_back(std::string(a) + ".auto");
  }
  names.push_back("pagerank-dist.am");
  return names;
}

/// Checks that the workload still loads the layer it was chosen for.
std::vector<std::string> self_check(const Workload& w,
                                    const std::vector<PassTotals>& passes) {
  std::vector<std::string> failures;
  const PassTotals& t = passes.front();
  auto require = [&](bool ok, const char* what) {
    if (!ok) failures.push_back(w.name + ": " + what);
  };
  if (w.name == "speculative") {
    require(t.htm.started > 0, "htm.attempts > 0");
    require(t.htm.aborts_conflict > 0, "htm.aborts.conflict > 0");
  } else if (w.name == "nonspeculative") {
    require(t.htm.started == 0, "htm.attempts == 0");
  } else if (w.name == "am-crash") {
    require(t.rec.crashes > 0, "recovery.crashes > 0");
    require(t.rec.checkpoints > 0, "recovery.checkpoints > 0");
    require(t.net.retransmitted > 0, "net.retransmitted > 0");
  } else if (w.name == "sweep") {
    require(t.tele.batches > 0, "auto.batches > 0");
    for (const PassTotals& p : passes) {
      require(p.workers_used > 1, "more than one host worker busy");
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string workload_name =
      cli.get_choice("workload", "sweep", workload_names());
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int seconds = static_cast<int>(cli.get_int("seconds", 25));
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string state_dir = cli.get_string("state-dir", ".");
  cli.check_unknown();

  const Workload w = make_workload(workload_name);
  const std::string fingerprint = fingerprint_json(w, seed, seconds, trace);
  const auto origin = Clock::now();
  Tracer tracer(origin);
  tracer.set_enabled(trace);
  const int run_span = tracer.open("run." + w.name, -1, 0);

  // Every pass and set-up is bracketed by probe runs; probe_scale() turns
  // the host time between the last two into the reference host's speed:
  // kProbeReferenceS over the mean of the probes just before and after.
  HostProbe probe;
  double last_probe_s = probe.run();
  auto probe_scale = [&] {
    const double before = last_probe_s;
    last_probe_s = probe.run();
    return kProbeReferenceS / (0.5 * (before + last_probe_s));
  };
  std::vector<double> probe_s;
  // Set-up: input generation, CSR build and the auto-policy build. It is
  // timed again between passes, about once a second, so setup_s is a
  // median over the whole run rather than over one moment of the host.
  std::vector<SetupTimes> setups;
  auto time_setup = [&] {
    SpanScope span(tracer, "setup", run_span);
    SetupTimes times;
    Inputs built = build_inputs(seed, times, tracer, span.id());
    times.scale = probe_scale();
    probe_s.push_back(last_probe_s);
    setups.push_back(times);
    return built;
  };
  const Inputs in = time_setup();
  auto last_setup = Clock::now();
  References ref;
  {
    SpanScope span(tracer, "oracle.references", run_span);
    ref = build_references(in);
  }

  ProjectionStore store(state_dir + "/projections.txt");
  std::vector<std::vector<CellResult>> passes;
  std::vector<PassTotals> totals;
  std::vector<bool> traced;
  std::vector<double> spans_per_traced_pass;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto loop_start = Clock::now();
  // Closed loop of passes: at least kMinPasses, then another only while
  // it is expected (from the last one) to end within --seconds. A traced
  // run alternates untraced and traced passes so it can report the
  // tracing overhead, and runs one more pass: the first of a run is often
  // the slowest, and the overhead compares the others.
  const std::size_t min_passes = trace ? kMinPasses + 1 : kMinPasses;
  double last_pass_s = 0;
  while (passes.size() < min_passes ||
         seconds_since(loop_start, Clock::now()) + last_pass_s <= seconds) {
    const bool record = trace && passes.size() % 2 == 1;
    tracer.set_enabled(record);
    const std::size_t spans_before = tracer.size();
    const auto pass_start = Clock::now();
    const int pass_span = tracer.open("pass", run_span, 0);
    passes.push_back(run_pass(w, in, ref, seed, tracer, pass_span, origin));
    tracer.close(pass_span);
    last_pass_s = seconds_since(pass_start, Clock::now());
    traced.push_back(record);
    if (record) {
      spans_per_traced_pass.push_back(
          static_cast<double>(tracer.size() - spans_before));
    }
    const auto& cells = passes.back();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      CellResult& r = passes.back()[i];
      ++attempted;
      if (r.ok && !store.check(seed, w.cells[i].key(), projection(r))) {
        r.ok = false;
        r.error = "simulated projection differs from an earlier run";
      }
      if (!r.ok) {
        ++failed;
        std::cerr << "cell " << w.cells[i].key() << " failed: " << r.error
                  << "\n";
      }
    }
    totals.push_back(summarize(cells));
    totals.back().scale = probe_scale();
    probe_s.push_back(last_probe_s);
    std::cerr << w.name << " pass " << passes.size() << ": wall "
              << totals.back().wall_s << " s, probe " << last_probe_s
              << " s\n";
    if (seconds_since(last_setup, Clock::now()) >= kSetupEvery_s) {
      tracer.set_enabled(trace);
      time_setup();
      last_setup = Clock::now();
    }
  }
  tracer.set_enabled(trace);
  tracer.close(run_span);
  store.save();

  const std::vector<std::string> check_failures = self_check(w, totals);
  for (const std::string& f : check_failures) {
    std::cerr << "self-check failed: " << f << "\n";
  }

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const PassTotals& t : totals) v.push_back(field(t));
    return median(v);
  };
  // From here on every host time is at the reference host's speed.
  const double raw_wall_s = med([](const PassTotals& t) { return t.wall_s; });
  for (std::size_t p = 0; p < totals.size(); ++p) {
    PassTotals& t = totals[p];
    t.wall_s *= t.scale;
    t.busy_s *= t.scale;
    t.longest_cell_s *= t.scale;
    for (CellResult& r : passes[p]) r.host_s *= t.scale;
  }
  for (SetupTimes& s : setups) {
    s.kronecker_s *= s.scale;
    s.weighted_s *= s.scale;
    s.auto_policy_s *= s.scale;
  }
  std::vector<double> setup_totals;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total());

  MetricsJson m;
  const PassTotals& t0 = totals.front();
  if (!trace) {
    m.add("wall_s", med([](const PassTotals& t) { return t.wall_s; }), "s");
    m.add("setup_s", median(setup_totals), "s");
    m.add("elements_per_s", med([](const PassTotals& t) {
            return ratio(static_cast<double>(t.elements), t.wall_s);
          }), "1/s");
    m.add("sim_events_per_s", med([](const PassTotals& t) {
            return ratio(static_cast<double>(t.events), t.busy_s);
          }), "1/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    auto setup_med = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& s : setups) v.push_back(s.*field);
      return median(v);
    };
    m.add("graph.kronecker_s", setup_med(&SetupTimes::kronecker_s), "s");
    m.add("graph.weighted_s", setup_med(&SetupTimes::weighted_s), "s");
    m.add("analysis.auto_policy_s", setup_med(&SetupTimes::auto_policy_s),
          "s");
    // Per cell: host seconds of the run_* call (median over passes) and
    // simulated makespan. The ledger lists every cell on every workload;
    // a cell the workload does not run reports 0 for both.
    std::vector<std::string> cells = ledger_cells();
    cells.push_back("small");
    for (const std::string& c : cells) {
      std::vector<double> host_s;
      double sim_ms = 0;
      for (const auto& pass : passes) {
        double pass_host_s = 0;
        sim_ms = 0;
        for (std::size_t i = 0; i < pass.size(); ++i) {
          if (c == "small" ? !is_small(w.cells[i].algo)
                           : w.cells[i].name() != c) {
            continue;
          }
          pass_host_s += pass[i].host_s;
          sim_ms += pass[i].sim_ns * 1e-6;
        }
        host_s.push_back(pass_host_s);
      }
      m.add("cell." + c + ".host_s", median(host_s), "s");
      m.add("cell." + c + ".sim_ms", sim_ms, "sim_ms");
    }
    m.add("elements", static_cast<double>(t0.elements), "count");
    m.add("cells_attempted", static_cast<double>(attempted), "count");
    m.add("cells_failed", static_cast<double>(failed), "count");

    const htm::HtmStats& h = t0.htm;
    m.add("htm.attempts", static_cast<double>(h.started), "count");
    m.add("htm.commits", static_cast<double>(h.committed), "count");
    m.add("htm.serialized", static_cast<double>(h.serialized), "count");
    m.add("htm.aborts.conflict", static_cast<double>(h.aborts_conflict),
          "count");
    m.add("htm.aborts.capacity", static_cast<double>(h.aborts_capacity),
          "count");
    m.add("htm.aborts.other", static_cast<double>(h.aborts_other), "count");
    m.add("htm.aborts.explicit", static_cast<double>(h.aborts_explicit),
          "count");
    m.add("htm.commit_ratio",
          ratio(static_cast<double>(h.committed),
                static_cast<double>(h.started)), "ratio");
    m.add("htm.speculative_fraction",
          ratio(static_cast<double>(h.committed),
                static_cast<double>(h.committed + h.serialized)), "ratio");
    m.add("atomics.cas", static_cast<double>(h.atomic_cas), "count");
    m.add("atomics.acc", static_cast<double>(h.atomic_acc), "count");
    m.add("sim.events", static_cast<double>(t0.events), "count");
    m.add("sim.host_ns_per_event", med([](const PassTotals& t) {
            return ratio(t.busy_s * 1e9, static_cast<double>(t.events));
          }), "ns");

    m.add("host.probe_s", median(probe_s), "s");
    m.add("host.raw_wall_s", raw_wall_s, "s");
    m.add("pool.busy_s", med([](const PassTotals& t) { return t.busy_s; }),
          "s");
    const int workers = w.workers;
    m.add("pool.idle_s", med([workers](const PassTotals& t) {
            return workers * t.wall_s - t.busy_s;
          }), "s");
    m.add("pool.longest_cell_s",
          med([](const PassTotals& t) { return t.longest_cell_s; }), "s");

    m.add("auto.batches", static_cast<double>(t0.tele.batches), "count");
    m.add("auto.prediction_miss", static_cast<double>(t0.tele.prediction_miss),
          "count");
    m.add("auto.descents", static_cast<double>(t0.tele.descents), "count");
    m.add("auto.capacity_clamps",
          static_cast<double>(t0.tele.capacity_clamps), "count");

    const net::NetStats& n = t0.net;
    m.add("net.messages", static_cast<double>(n.messages_sent), "count");
    m.add("net.bytes", static_cast<double>(n.bytes_sent), "B");
    m.add("net.items_per_message",
          ratio(static_cast<double>(n.items_sent),
                static_cast<double>(n.messages_sent)), "items/msg");
    m.add("net.remote_atomics", static_cast<double>(n.remote_atomics),
          "count");
    m.add("net.dropped", static_cast<double>(n.dropped), "count");
    m.add("net.duplicated", static_cast<double>(n.duplicated), "count");
    m.add("net.retransmitted", static_cast<double>(n.retransmitted), "count");
    m.add("net.acked", static_cast<double>(n.acked), "count");
    m.add("net.dedup_discarded", static_cast<double>(n.dedup_discarded),
          "count");
    m.add("net.delivery_ratio",
          ratio(static_cast<double>(n.acked),
                static_cast<double>(n.messages_sent + n.retransmitted)),
          "ratio");

    m.add("fault.other_aborts", static_cast<double>(t0.fault.other_aborts),
          "count");
    m.add("fault.net_dropped", static_cast<double>(t0.fault.net_dropped),
          "count");
    m.add("fault.net_duplicated",
          static_cast<double>(t0.fault.net_duplicated), "count");
    m.add("fault.crashes", static_cast<double>(t0.fault.crashes), "count");

    m.add("recovery.checkpoints", static_cast<double>(t0.rec.checkpoints),
          "count");
    m.add("recovery.crashes", static_cast<double>(t0.rec.crashes), "count");
    m.add("recovery.replayed_sends",
          static_cast<double>(t0.rec.replayed_sends), "count");
    m.add("recovery.lost_work_ns", t0.rec.lost_work_ns, "sim_ns");
    m.add("recovery.snapshot_bytes",
          static_cast<double>(t0.rec.snapshot_bytes), "B");

    std::vector<double> traced_walls;
    std::vector<double> plain_walls;
    for (std::size_t i = 1; i < totals.size(); ++i) {
      (traced[i] ? traced_walls : plain_walls).push_back(totals[i].wall_s);
    }
    const double traced_wall = median(traced_walls);
    m.add("trace.wall_s", traced_wall, "s");
    m.add("trace.overhead_pct",
          100.0 * (ratio(traced_wall, median(plain_walls)) - 1.0), "%");
    // The cost of the spans themselves, which the wall-time comparison
    // above cannot resolve when it is far below the pass-to-pass noise.
    const double spans = median(spans_per_traced_pass);
    m.add("trace.spans_per_pass", spans, "count");
    m.add("trace.span_cost_pct",
          100.0 * ratio(spans * span_cost_s(), traced_wall), "%");

    const std::string path =
        state_dir + "/trace-" + w.name + "-seed" + std::to_string(seed) +
        ".json";
    tracer.write(path, fingerprint);
    std::cerr << "trace: " << tracer.size() << " spans written to " << path
              << "\n";
  }

  const bool correct = failed == 0 && check_failures.empty();
  std::printf("{\"fingerprint\": %s}\n", fingerprint.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.body().c_str());
  return 0;  // the verdict is "correct" in the result line
}
