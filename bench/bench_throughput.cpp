// Host wall-clock throughput harness (elements/sec per algorithm x
// mechanism at a fixed scale).
//
// Unlike the figure benches, which report *simulated* time, this harness
// measures how fast the simulator itself chews through modelled work on
// the host — the number that bounds how large a --scale any sweep can
// afford. Element counts are deterministic properties of the run (edges
// scanned, relaxations, ...), so elements/sec moves only with host-side
// cost per access: exactly the executor/footprint hot path this metric
// exists to track. Output is JSON (schema aam-bench-wallclock-v5) so CI
// can diff runs; tools/bench_record.sh wraps this into BENCH_wallclock.json.
// --host-threads=N runs the independent (algorithm, mechanism) cells on N
// host workers via the parallel DES backend; results are identical at any
// N, and the top-level wall_ms field captures the whole-sweep wall-clock.
//
// Besides the fixed mechanisms, every algorithm also runs one
// --mechanism=auto row: the static recommendation table
// (analysis::make_auto_policy) routes each operator's batches, and the
// row reports the auto executor's validation counters (prediction_miss,
// descents, capacity_clamps) next to the usual throughput numbers.
//
// --fault=<spec> threads deterministic fault injection (aam::fault) into
// every run, so CI can compare the simulator's host throughput with and
// without recovery machinery active. The "pagerank-dist" row runs on a
// 4-node Cluster specifically so network scenarios (lossy-net) have a
// substrate to act on. Crash scenarios additionally record the
// recovery telemetry per row (checkpoints, crashes, replayed sends,
// lost simulated work, snapshot bytes, rolled-back NetStats deltas) —
// all simulated-schedule-derived, so they participate in the
// determinism gate; recovery *wall* time is host noise and excluded.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/pagerank_dist.hpp"
#include "algorithms/registry.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "bench_common.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "graph/partition.hpp"
#include "sim/host_pool.hpp"

namespace {

using namespace aam;
using Clock = std::chrono::steady_clock;

std::string json_escape_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 16));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 8));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int repeats = static_cast<int>(cli.get_int("repeats", 1));
  const std::string machine_name = cli.get_string("machine", "BGQ");
  const std::string algo_filter = cli.get_string("algorithm", "all");
  std::vector<std::string> mech_choices = {"all"};
  for (const auto m : core::all_mechanisms()) {
    mech_choices.push_back(core::to_string(m));
  }
  mech_choices.push_back("auto");
  const std::string only_mech =
      cli.get_choice("mechanism", "all", mech_choices);
  const std::string json_path = cli.get_string("json", "");
  const int batch = static_cast<int>(cli.get_int("batch", 16));
  int threads = static_cast<int>(cli.get_int("threads", 0));
  const std::string fault_spec = bench::get_fault_spec(cli);
  const int host_threads = bench::get_host_threads(cli);
  cli.check_unknown();
  AAM_CHECK(repeats >= 1);

  const model::MachineConfig& config = model::machine_by_name(machine_name);
  if (threads == 0) threads = config.max_threads();
  const model::HtmKind kind =
      config.name == "BGQ" ? model::HtmKind::kBgqShort : model::HtmKind::kRtm;

  // Shared inputs: a Kronecker graph for the traversal algorithms and a
  // smaller weighted graph for SSSP/Boruvka (matching the ablation bench).
  const algorithms::Inputs in = algorithms::make_inputs(
      {.scale = scale, .edge_factor = edge_factor, .seed = seed,
       .weighted_vertices = 1500, .weighted_p = 0.01});

  // Static routing tables for the --mechanism=auto rows, one per input
  // graph (the conflict model conditions on the workload it will run on).
  const core::AutoPolicy policy_g = analysis::make_auto_policy(
      config, kind, analysis::workload_from_graph(in.g, threads, batch));
  const core::AutoPolicy policy_wg = analysis::make_auto_policy(
      config, kind, analysis::workload_from_graph(in.wg, threads, batch));

  std::string json = "{\n";
  json += "  \"schema\": \"aam-bench-wallclock-v5\",\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"edge_factor\": " + std::to_string(edge_factor) + ",\n";
  json += "  \"machine\": \"" + config.name + "\",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"host_threads\": " + std::to_string(host_threads) + ",\n";
  json += "  \"batch\": " + std::to_string(batch) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"fault\": \"" + fault_spec + "\",\n";

  struct Selection {
    std::string label;
    core::Mechanism mech = core::Mechanism::kHtmCoarsened;
    bool is_auto = false;
  };
  std::vector<Selection> selections;
  for (const core::Mechanism mech : core::all_mechanisms()) {
    if (only_mech == "all" || only_mech == core::to_string(mech)) {
      selections.push_back({core::to_string(mech), mech, false});
    }
  }
  if (only_mech == "all" || only_mech == "auto") {
    selections.push_back({"auto", core::Mechanism::kHtmCoarsened, true});
  }

  // Every (algorithm, mechanism) pair — plus the Cluster-backed
  // distributed-PageRank row — is an independent *cell*: its own SimHeap,
  // DesMachine, fault injector, and (for auto rows) AutoPolicy copy, no
  // shared mutable state. Cells are therefore shards for the parallel DES
  // backend: sim::ShardRunner executes them across --host-threads host
  // workers, results land in slot [cell index], and the table/JSON are
  // assembled in cell order — identical for every --host-threads value
  // while wall-clock drops with parallelism.
  struct Cell {
    const algorithms::AlgorithmEntry* algo = nullptr;  ///< nullptr = pr-dist
    Selection sel;
  };
  struct CellResult {
    std::string algorithm;
    std::string mechanism;
    std::uint64_t elements = 0;
    double best_seconds = 0;
    double sim_time_ns = 0;
    htm::HtmStats stats;
    core::AutoTelemetry tele;
    recovery::RecoveryStats rec;  ///< zeroes unless the plan crashes
  };
  std::vector<Cell> cells;
  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    if (algo_filter != "all" && algo_filter != algo.name) continue;
    for (const Selection& sel : selections) cells.push_back({&algo, sel});
  }
  if (algo_filter == "all" || algo_filter == "pagerank-dist") {
    cells.push_back({nullptr, {}});
  }

  // Dispatch order: the distributed-PageRank cell is the sweep's longest,
  // so it starts first instead of running alone as the tail; the rest
  // keep cell order. Results still land in slot [cell index].
  std::vector<std::size_t> dispatch(cells.size());
  std::iota(dispatch.begin(), dispatch.end(), std::size_t{0});
  std::stable_partition(dispatch.begin(), dispatch.end(),
                        [&](std::size_t i) { return cells[i].algo == nullptr; });

  std::vector<CellResult> slots(cells.size());
  const auto sweep_t0 = Clock::now();
  sim::ShardRunner runner(host_threads);
  runner.run(cells.size(), [&](sim::ShardId shard) {
    const std::size_t cell_id = dispatch[shard];
    const Cell& cell = cells[cell_id];
    CellResult& res = slots[cell_id];
    if (cell.algo != nullptr) {
      const algorithms::AlgorithmEntry& algo = *cell.algo;
      const Selection& sel = cell.sel;
      // Private policy copy: AutoTelemetry is mutable inside the shared
      // per-graph policy, so parallel auto cells each route via their own.
      core::AutoPolicy policy = algo.weighted ? policy_wg : policy_g;
      core::ExecConfig exec = algo.exec;
      exec.batch = batch;
      exec.mechanism = sel.mech;
      exec.auto_policy = sel.is_auto ? &policy : nullptr;
      double best_seconds = 0;
      algorithms::RunReport out;
      for (int rep = 0; rep < repeats; ++rep) {
        policy.telemetry = {};
        mem::SimHeap heap;
        htm::DesMachine machine(config, kind, threads, heap, seed);
        machine.bind_shard(shard);
        bench::ScopedFault fault(machine, fault_spec, seed);
        // Time the run_* call alone, not the report built after it.
        double seconds = 0;
        out = algo.run(machine, in, exec, [&](const auto& call) {
          const auto t0 = Clock::now();
          call();
          seconds = std::chrono::duration<double>(Clock::now() - t0).count();
        });
        if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
        if (fault.recovery() != nullptr) res.rec = fault.recovery()->stats();
      }
      res.algorithm = algo.name;
      res.mechanism = sel.label;
      res.elements = out.elements;
      res.best_seconds = best_seconds;
      res.sim_time_ns = out.sim_ns;
      res.stats = out.stats;
      if (sel.is_auto) res.tele = policy.telemetry;
      return;
    }
    // Distributed PageRank cell: the one Cluster-backed entry, so network
    // fault scenarios exercise the reliable-delivery protocol end to end.
    const int nodes = 4;
    const int per_node = std::max(1, threads / nodes);
    double best_seconds = 0;
    algorithms::DistPrResult r;
    std::uint64_t elements = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      const graph::Block1D part(in.g.num_vertices(), nodes);
      mem::SimHeap heap;
      net::Cluster cluster(config, kind, nodes, per_node, heap, seed);
      cluster.machine().bind_shard(shard);
      bench::ScopedFault fault(cluster, fault_spec, seed);
      algorithms::DistPrOptions o;
      o.iterations = 3;
      o.local_batch = batch;
      const auto t0 = Clock::now();
      r = algorithms::run_distributed_pagerank(cluster, in.g, part, o);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      if (fault.recovery() != nullptr) res.rec = fault.recovery()->stats();
      elements = static_cast<std::uint64_t>(o.iterations) *
                 (in.g.num_edges() + in.g.num_vertices());
    }
    res.algorithm = "pagerank-dist";
    res.mechanism = "am";
    res.elements = elements;
    res.best_seconds = best_seconds;
    res.sim_time_ns = r.total_time_ns;
    res.stats = r.stats;
  });
  const double sweep_wall_ms =
      std::chrono::duration<double>(Clock::now() - sweep_t0).count() * 1e3;

  json += "  \"wall_ms\": " + json_escape_double(sweep_wall_ms) + ",\n";
  json += "  \"results\": [\n";
  bool first = true;
  std::printf("%-10s %-12s %14s %12s %14s\n", "algorithm", "mechanism",
              "elements", "wall ms", "elems/sec");
  for (const CellResult& res : slots) {
    const double rate =
        res.best_seconds > 0
            ? static_cast<double>(res.elements) / res.best_seconds
            : 0;
    std::printf("%-10s %-12s %14llu %12.2f %14.0f\n", res.algorithm.c_str(),
                res.mechanism.c_str(),
                static_cast<unsigned long long>(res.elements),
                res.best_seconds * 1e3, rate);
    if (!first) json += ",\n";
    first = false;
    json += "    {\"algorithm\": \"" + res.algorithm + "\", \"mechanism\": \"" +
            res.mechanism + "\", \"elements\": " +
            std::to_string(res.elements) + ", \"wall_seconds\": " +
            json_escape_double(res.best_seconds) +
            ", \"elements_per_sec\": " + json_escape_double(rate) +
            ", \"sim_time_ns\": " + json_escape_double(res.sim_time_ns) +
            ", \"commits\": " + std::to_string(res.stats.committed) +
            ", \"aborts\": " + std::to_string(res.stats.total_aborts()) +
            ", \"prediction_miss\": " + std::to_string(res.tele.prediction_miss) +
            ", \"descents\": " + std::to_string(res.tele.descents) +
            ", \"capacity_clamps\": " +
            std::to_string(res.tele.capacity_clamps) +
            ", \"checkpoints\": " + std::to_string(res.rec.checkpoints) +
            ", \"crashes\": " + std::to_string(res.rec.crashes) +
            ", \"replayed_sends\": " + std::to_string(res.rec.replayed_sends) +
            ", \"lost_work_ns\": " + json_escape_double(res.rec.lost_work_ns) +
            ", \"snapshot_bytes\": " + std::to_string(res.rec.snapshot_bytes) +
            ", \"rolled_back_dropped\": " +
            std::to_string(res.rec.rolled_back_dropped) +
            ", \"rolled_back_duplicated\": " +
            std::to_string(res.rec.rolled_back_duplicated) + "}";
  }
  json += "\n  ]\n}\n";

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    AAM_CHECK_MSG(f != nullptr, "cannot open --json output path");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("(json written to %s)\n", json_path.c_str());
  } else {
    std::printf("\n%s", json.c_str());
  }
  return 0;
}
