#include "analysis/conflict.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aam::analysis {

Workload workload_from_graph(const graph::Graph& g, int threads, int batch) {
  const graph::DegreeStats stats = graph::degree_stats(g);
  Workload w;
  w.vertices = g.num_vertices();
  w.scale = std::bit_width(std::max<std::uint64_t>(1, w.vertices - 1));
  w.mean_degree = std::max(1.0, stats.mean);
  w.skew = stats.top1pct_edge_share;
  w.threads = threads;
  w.batch = batch;
  return w;
}

Workload workload_for_scale(int scale, int edge_factor, int threads,
                            int batch) {
  AAM_CHECK(scale >= 1 && edge_factor >= 1);
  util::Rng rng(1);  // the bench harnesses' default seed
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  const graph::Graph g = graph::kronecker(params, rng);
  Workload w = workload_from_graph(g, threads, batch);
  w.scale = scale;
  return w;
}

double skew_multiplier(double top1pct_edge_share) {
  const double s = std::clamp(top1pct_edge_share, 0.0, 1.0);
  // Two-point mixture over the universe: fraction s of skew-class draws
  // lands uniformly in the top 1% of vertices, the rest in the other 99%.
  // Collision probability of two independent draws is then
  // (s^2/0.01 + (1-s)^2/0.99) / universe — kappa times the uniform bound.
  return s * s / 0.01 + (1.0 - s) * (1.0 - s) / 0.99;
}

double expected_overlap(double uniform_writes, double uniform_reads,
                        double skewed_writes, double skewed_reads,
                        double universe_units, double skew_mult) {
  AAM_CHECK(universe_units >= 1.0);
  const double u = universe_units;
  // Conflicting element pairs between activities A and B (identical
  // footprints): W_A x W_B, W_A x R_B, and R_A x W_B, each pair colliding
  // at 1/u — except skew-on-skew pairs, which collide at kappa/u.
  const double writes[2] = {uniform_writes, skewed_writes};
  const double reads[2] = {uniform_reads, skewed_reads};
  double lambda = 0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      const double q = (a == 1 && b == 1) ? skew_mult / u : 1.0 / u;
      lambda += q * (writes[a] * (writes[b] + reads[b]) +
                     reads[a] * writes[b]);
    }
  }
  return lambda;
}

ContentionSignature contention(const EffectSignature& sig, const Workload& w,
                               const model::MachineConfig& machine,
                               model::HtmKind kind) {
  const int degree = std::max(1, static_cast<int>(std::lround(w.mean_degree)));
  const int threads = w.threads > 0 ? w.threads : machine.max_threads();
  const double m = static_cast<double>(std::max(1, w.batch));

  ContentionSignature c;
  c.op = sig.op;
  for (const RegionSignature& region : sig.regions) {
    for (std::size_t cls = 0; cls < kNumIndexClasses; ++cls) {
      const double r =
          static_cast<double>(region.reads[cls].eval(degree, w.chain));
      const double wr =
          static_cast<double>(region.writes[cls].eval(degree, w.chain));
      if (cls == static_cast<std::size_t>(IndexClass::kSelf)) {
        c.uniform_reads += m * r;
        c.uniform_writes += m * wr;
      } else {
        c.skewed_reads += m * r;
        c.skewed_writes += m * wr;
      }
    }
  }

  // Universe in conflict-detection units: each region spans ~|V| packed
  // 8-byte elements; a `g`-byte detection grain folds g/8 elements into
  // one unit (false sharing on Haswell's 64B lines, none on BG/Q's 8B).
  const std::uint32_t grain = machine.htm(kind).conflict_granularity_bytes;
  const double elem_bytes = 8.0;
  c.universe_units = std::max(
      1.0, static_cast<double>(w.vertices) * elem_bytes /
               static_cast<double>(std::max<std::uint32_t>(8, grain)));
  c.skew_mult = skew_multiplier(w.skew);
  c.pair_overlap =
      expected_overlap(c.uniform_writes, c.uniform_reads, c.skewed_writes,
                       c.skewed_reads, c.universe_units, c.skew_mult);
  c.conflict_prob = 1.0 - std::exp(-c.pair_overlap);
  const double peers = static_cast<double>(std::max(0, threads - 1));
  c.abort_prob = 1.0 - std::pow(1.0 - c.conflict_prob, peers);
  return c;
}

}  // namespace aam::analysis
