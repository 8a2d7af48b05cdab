// Conflict-model coverage (DESIGN.md §9): unit tests pinning the overlap
// formula to hand-computed footprints, structural properties of the
// recommendation table, and the rank-agreement property the model exists
// for — the statically recommended mechanism must stay within a 2x
// predicted-cost band of the empirically best one, both on a simulated
// scale-10 sweep run in-process and on the committed BENCH_wallclock.json
// (AAM_BENCH_WALLCLOCK) recorded at full bench scale.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/capacity.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "analysis/signature.hpp"
#include "core/executor.hpp"
#include "graph/generators.hpp"

namespace aam {
namespace {

// ---------------------------------------------------------------------------
// Overlap formula on hand-computed footprints.
//
// The model sums expected colliding (write, read-or-write) pairs over the
// 2x2 class grid {uniform, skewed}^2: a pair of skewed draws collides at
// kappa/U, every pair involving a uniform draw at 1/U.

TEST(SkewMultiplier, EndpointsAndMidpoint) {
  // s = 0: everything lands in the 99% tail -> kappa = 1/0.99.
  EXPECT_NEAR(analysis::skew_multiplier(0.0), 1.0 / 0.99, 1e-12);
  // s = 1: all mass on the top 1% of vertices -> kappa = 100.
  EXPECT_NEAR(analysis::skew_multiplier(1.0), 100.0, 1e-12);
  // s = 0.1: 100 * 0.01 + 0.81 / 0.99 = 1.8181...
  EXPECT_NEAR(analysis::skew_multiplier(0.1), 1.0 + 0.81 / 0.99, 1e-12);
}

TEST(SkewMultiplier, MonotoneAndAtLeastOne) {
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double k = analysis::skew_multiplier(s);
    EXPECT_GE(k, 1.0) << "kappa < 1 at s=" << s;
    if (s >= 0.05) {
      EXPECT_GE(k, prev) << "kappa not monotone at s=" << s;
    }
    prev = k;
  }
}

TEST(ExpectedOverlap, UniformOnlyFootprint) {
  // Wu=2, Ru=3, U=100: lambda = (Wu*(Wu+Ru) + Ru*Wu)/U = (10+6)/100.
  EXPECT_NEAR(analysis::expected_overlap(2, 3, 0, 0, 100, /*kappa=*/7.0),
              0.16, 1e-12);
}

TEST(ExpectedOverlap, SkewedOnlyFootprint) {
  // Ws=2, Rs=1, kappa=4, U=100: lambda = 4*(2*(2+1) + 1*2)/100 = 32/100.
  EXPECT_NEAR(analysis::expected_overlap(0, 0, 2, 1, 100, 4.0), 0.32, 1e-12);
}

TEST(ExpectedOverlap, MixedFootprint) {
  // Wu=1, Ws=1, no reads, U=50, kappa=10. Terms: (u,u)=1/50, (u,s)=1/50,
  // (s,u)=1/50, (s,s)=10/50 -> lambda = 13/50.
  EXPECT_NEAR(analysis::expected_overlap(1, 0, 1, 0, 50, 10.0), 0.26, 1e-12);
}

TEST(ExpectedOverlap, InverseInUniverseMonotoneInSkew) {
  const double base = analysis::expected_overlap(2, 4, 3, 1, 1000, 2.0);
  EXPECT_NEAR(analysis::expected_overlap(2, 4, 3, 1, 2000, 2.0), base / 2,
              1e-12);
  EXPECT_GT(analysis::expected_overlap(2, 4, 3, 1, 1000, 8.0), base);
}

// ---------------------------------------------------------------------------
// Contention signatures: derived probabilities behave physically.

TEST(Contention, AbortProbabilityGrowsWithThreads) {
  const auto sigs = analysis::analyze_all();
  analysis::Workload w;
  w.scale = 10;
  w.vertices = 1u << 10;
  w.mean_degree = 8;
  w.skew = 0.3;
  for (const auto& sig : sigs) {
    w.threads = 2;
    const auto low = analysis::contention(sig, w, model::bgq(),
                                          model::HtmKind::kBgqShort);
    w.threads = 16;
    const auto high = analysis::contention(sig, w, model::bgq(),
                                           model::HtmKind::kBgqShort);
    EXPECT_LE(low.abort_prob, high.abort_prob)
        << core::to_string(sig.op) << ": abort prob fell with more threads";
    EXPECT_GE(low.conflict_prob, 0.0);
    EXPECT_LE(high.abort_prob, 1.0);
  }
}

TEST(Contention, LineGranularityShrinksUniverse) {
  // Haswell detects conflicts per 64-byte line over packed 8-byte elements:
  // an 8x smaller universe than BG/Q's 8-byte versioning grain (§5.5.1).
  const auto sigs = analysis::analyze_all();
  analysis::Workload w;
  w.vertices = 1u << 12;
  w.threads = 8;
  const auto on_bgq = analysis::contention(sigs.front(), w, model::bgq(),
                                           model::HtmKind::kBgqShort);
  const auto on_hasc = analysis::contention(sigs.front(), w, model::has_c(),
                                            model::HtmKind::kRtm);
  EXPECT_NEAR(on_bgq.universe_units, 8.0 * on_hasc.universe_units,
              on_bgq.universe_units * 1e-9);
  EXPECT_GE(on_hasc.conflict_prob, on_bgq.conflict_prob);
}

// ---------------------------------------------------------------------------
// Recommendation table structure.

TEST(Recommend, RanksAllMechanismsSortedAscending) {
  const auto sigs = analysis::analyze_all();
  const auto w = analysis::workload_for_scale(10, 4, /*threads=*/0,
                                              /*batch=*/16);
  const auto bounds = analysis::capacity_bounds(
      sigs, static_cast<int>(w.mean_degree + 0.5), w.chain);
  const auto recs = analysis::recommend(sigs, bounds, w);
  ASSERT_FALSE(recs.empty());
  for (const auto& rec : recs) {
    ASSERT_EQ(rec.ranked.size(), core::all_mechanisms().size());
    EXPECT_EQ(rec.best(), rec.ranked.front().mechanism);
    for (std::size_t i = 1; i < rec.ranked.size(); ++i) {
      EXPECT_LE(rec.ranked[i - 1].cost_ns, rec.ranked[i].cost_ns)
          << rec.machine << "/" << core::to_string(rec.op)
          << ": ranking not sorted";
    }
    for (const core::Mechanism m : core::all_mechanisms()) {
      EXPECT_GT(rec.cost_of(m), 0.0);
    }
  }
}

TEST(Recommend, OversizedBatchMarksHtmCapacityUnsafe) {
  const auto sigs = analysis::analyze_all();
  auto w = analysis::workload_for_scale(10, 4, 0, 16);
  w.batch = 1 << 20;  // far past any machine's speculative capacity
  const auto bounds = analysis::capacity_bounds(
      sigs, static_cast<int>(w.mean_degree + 0.5), w.chain);
  const auto recs =
      analysis::recommend_for(model::bgq(), model::HtmKind::kBgqShort, sigs,
                              bounds, w);
  for (const auto& rec : recs) {
    bool saw_htm = false;
    for (const auto& mc : rec.ranked) {
      if (mc.mechanism != core::Mechanism::kHtmCoarsened) continue;
      saw_htm = true;
      EXPECT_TRUE(mc.capacity_unsafe)
          << core::to_string(rec.op) << ": 2^20-operator batch not flagged";
    }
    EXPECT_TRUE(saw_htm);
    EXPECT_NE(rec.best(), core::Mechanism::kHtmCoarsened)
        << core::to_string(rec.op)
        << ": capacity-unsafe HTM still recommended";
  }
}

// ---------------------------------------------------------------------------
// Rank agreement: 6 algorithms x 2 machines at scale 10, simulated
// in-process. The empirically fastest fixed mechanism must score within a
// 2x predicted-cost band of the statically recommended one.

const analysis::Recommendation* find_rec(
    const std::vector<analysis::Recommendation>& recs, core::OperatorId op) {
  for (const auto& rec : recs) {
    if (rec.op == op) return &rec;
  }
  return nullptr;
}

std::vector<analysis::Recommendation> recs_for(
    const model::MachineConfig& machine, model::HtmKind kind,
    const std::vector<analysis::EffectSignature>& sigs,
    const analysis::Workload& w) {
  const auto bounds = analysis::capacity_bounds(
      sigs, static_cast<int>(w.mean_degree + 0.5), w.chain);
  return analysis::recommend_for(machine, kind, sigs, bounds, w);
}

TEST(RankAgreement, SimulatedSweepScale10WithinBand) {
  algorithms::Inputs in = algorithms::make_inputs({});
  in.coloring_seed = 7;
  const auto sigs = analysis::analyze_all();
  struct Setup {
    const model::MachineConfig* config;
    model::HtmKind kind;
    int threads;
  };
  const Setup setups[] = {
      {&model::bgq(), model::HtmKind::kBgqShort, 16},
      {&model::has_c(), model::HtmKind::kRtm, 8},
  };
  for (const Setup& setup : setups) {
    const auto recs_g = recs_for(
        *setup.config, setup.kind, sigs,
        analysis::workload_from_graph(in.g, setup.threads, 16));
    const auto recs_wg = recs_for(
        *setup.config, setup.kind, sigs,
        analysis::workload_from_graph(in.wg, setup.threads, 16));
    for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
      core::Mechanism best_mech = core::Mechanism::kSerialLock;
      double best_time = 0;
      for (const core::Mechanism mech : core::all_mechanisms()) {
        mem::SimHeap heap;
        htm::DesMachine machine(*setup.config, setup.kind, setup.threads,
                                heap, /*seed=*/1);
        core::ExecConfig exec = algo.exec;
        exec.mechanism = mech;
        const double t = algo.run(machine, in, exec).sim_ns;
        if (best_time == 0 || t < best_time) {
          best_time = t;
          best_mech = mech;
        }
      }
      const auto* rec = find_rec(algo.weighted ? recs_wg : recs_g, algo.op);
      ASSERT_NE(rec, nullptr) << "no recommendation for "
                              << core::to_string(algo.op);
      const double predicted_best = rec->ranked.front().cost_ns;
      const double predicted_empirical = rec->cost_of(best_mech);
      EXPECT_LE(predicted_empirical, 2.0 * predicted_best)
          << setup.config->name << "/" << algo.name << ": empirical best "
          << core::to_string(best_mech) << " (sim " << best_time
          << " ns) scores " << predicted_empirical << " vs recommended "
          << core::to_string(rec->best()) << " at " << predicted_best;
    }
  }
}

// ---------------------------------------------------------------------------
// Rank agreement against the committed wallclock record: the same band,
// but judged on the full-scale sim times baked into BENCH_wallclock.json.

struct WallclockRow {
  std::string algorithm;
  std::string mechanism;
  double sim_time_ns = 0;
};

struct WallclockDoc {
  int scale = 0;
  int edge_factor = 0;
  int threads = 0;
  int batch = 0;
  std::string machine;
  std::vector<WallclockRow> rows;
};

bool extract_string(const std::string& line, const std::string& key,
                    std::string* out) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

bool extract_number(const std::string& line, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

WallclockDoc parse_wallclock(const std::string& path) {
  WallclockDoc doc;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::string line;
  double num = 0;
  while (std::getline(f, line)) {
    if (line.find("\"algorithm\"") != std::string::npos) {
      WallclockRow row;
      if (extract_string(line, "algorithm", &row.algorithm) &&
          extract_string(line, "mechanism", &row.mechanism) &&
          extract_number(line, "sim_time_ns", &row.sim_time_ns)) {
        doc.rows.push_back(std::move(row));
      }
      continue;
    }
    if (extract_number(line, "scale", &num)) doc.scale = (int)num;
    if (extract_number(line, "edge_factor", &num)) doc.edge_factor = (int)num;
    if (extract_number(line, "threads", &num)) doc.threads = (int)num;
    if (extract_number(line, "batch", &num)) doc.batch = (int)num;
    extract_string(line, "machine", &doc.machine);
  }
  return doc;
}

TEST(RankAgreement, WallclockRecordWithinBand) {
  const WallclockDoc doc = parse_wallclock(AAM_BENCH_WALLCLOCK);
  ASSERT_FALSE(doc.rows.empty()) << "no result rows in " << AAM_BENCH_WALLCLOCK;
  ASSERT_GT(doc.scale, 0);
  ASSERT_GT(doc.threads, 0);
  const model::MachineConfig& machine = model::machine_by_name(doc.machine);
  const model::HtmKind kind = machine.name == "BGQ"
                                  ? model::HtmKind::kBgqShort
                                  : model::HtmKind::kRtm;
  const auto sigs = analysis::analyze_all();
  // The unweighted workload comes from the deterministic Kronecker probe at
  // the recorded scale; the weighted one re-measures the exact ER graph
  // bench_throughput feeds SSSP/Boruvka (seed 1 + 1).
  const auto recs_g = recs_for(
      machine, kind, sigs,
      analysis::workload_for_scale(doc.scale, doc.edge_factor, doc.threads,
                                   doc.batch));
  util::Rng wrng(2);
  auto wedges = graph::erdos_renyi_edges(1500, 0.01, wrng);
  const auto weights =
      graph::random_weights(wedges.size(), 1.0f, 100.0f, wrng);
  const graph::Graph wg =
      graph::Graph::from_weighted_edges(1500, wedges, weights, true);
  const auto recs_wg = recs_for(
      machine, kind, sigs,
      analysis::workload_from_graph(wg, doc.threads, doc.batch));

  for (const algorithms::AlgorithmEntry& algo : algorithms::registry()) {
    core::Mechanism best_mech = core::Mechanism::kSerialLock;
    double best_time = 0;
    double times[8] = {};
    int fixed_rows = 0;
    for (const WallclockRow& row : doc.rows) {
      if (row.algorithm != algo.name) continue;
      const auto mech = core::parse_mechanism(row.mechanism);
      if (!mech.has_value()) continue;  // skip auto and AM rows
      ++fixed_rows;
      times[static_cast<std::size_t>(*mech)] = row.sim_time_ns;
      if (best_time == 0 || row.sim_time_ns < best_time) {
        best_time = row.sim_time_ns;
        best_mech = *mech;
      }
    }
    ASSERT_EQ(fixed_rows, (int)core::all_mechanisms().size())
        << algo.name << ": expected one row per fixed mechanism";
    const auto* rec = find_rec(algo.weighted ? recs_wg : recs_g, algo.op);
    ASSERT_NE(rec, nullptr);
    // Rank agreement holds when the recommendation is observed
    // near-optimal (within 1.5x of the fastest recorded sim time), or —
    // for cells whose observed spread is material — when the model also
    // scores the empirically best mechanism inside the 2x band. The first
    // arm absorbs degenerate cells like st-conn at large scale, where the
    // search terminates after a few hundred visits and every mechanism
    // records a near-tied startup-dominated time.
    const double observed_rec = times[static_cast<std::size_t>(rec->best())];
    const double observed_ratio = observed_rec / best_time;
    const double predicted_ratio =
        rec->cost_of(best_mech) / rec->ranked.front().cost_ns;
    EXPECT_TRUE(observed_ratio <= 1.5 || predicted_ratio <= 2.0)
        << doc.machine << "/" << algo.name << ": recorded best "
        << core::to_string(best_mech) << " vs recommended "
        << core::to_string(rec->best()) << " (observed ratio "
        << observed_ratio << ", predicted ratio " << predicted_ratio << ")";
  }
}

}  // namespace
}  // namespace aam
