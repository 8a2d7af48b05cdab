// aam_analyze: run the static effect-signature analysis over every
// operator body and report the results.
//
//   aam_analyze                       aligned signature + capacity tables
//   aam_analyze --json                machine-readable dump
//   aam_analyze --golden=PATH         diff against a committed golden file;
//                                     exit 1 (with a unified-ish diff) on drift
//   aam_analyze --write-golden=PATH   regenerate the golden file
//   aam_analyze --degree=D --chain=C  evaluation parameters for the
//                                     element-count and capacity columns
//   aam_analyze --recommend           mechanism recommendation table from
//                                     the conflict + capacity models, for a
//                                     workload probed at --scale/--edge-factor
//                                     with --threads/--batch concurrency
//                                     (combines with --json/--golden/
//                                     --write-golden like the default mode)
//
// CI runs `aam_analyze --golden=tests/golden/effect_signatures.txt` and
// `aam_analyze --recommend --golden=tests/golden/recommendations.txt`: any
// change to an operator body or to either model that shifts a signature or
// a recommendation must be accompanied by a regenerated golden, making the
// effect reviewable line-by-line.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/capacity.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "analysis/report.hpp"
#include "analysis/signature.hpp"
#include "util/cli.hpp"
#include "util/golden.hpp"

int main(int argc, char** argv) {
  aam::util::Cli cli(argc, argv);
  const bool json = cli.get_bool("json", false);
  const bool recommend = cli.get_bool("recommend", false);
  const std::string golden_path = cli.get_string("golden", "");
  const std::string write_golden_path = cli.get_string("write-golden", "");
  const int degree = static_cast<int>(cli.get_int("degree", 16));
  const int chain = static_cast<int>(cli.get_int("chain", 8));
  const int scale = static_cast<int>(cli.get_int("scale", 16));
  const int edge_factor = static_cast<int>(cli.get_int("edge-factor", 8));
  const int threads = static_cast<int>(cli.get_int("threads", 0));
  const int batch = static_cast<int>(cli.get_int("batch", 16));
  cli.check_unknown();

  const auto signatures = aam::analysis::analyze_all();

  if (recommend) {
    const auto workload =
        aam::analysis::workload_for_scale(scale, edge_factor, threads, batch);
    const auto wbounds = aam::analysis::capacity_bounds(
        signatures, static_cast<int>(workload.mean_degree + 0.5),
        workload.chain);
    const auto recs =
        aam::analysis::recommend(signatures, wbounds, workload);
    if (!golden_path.empty() || !write_golden_path.empty()) {
      return aam::util::run_golden(
          {"aam_analyze", "mechanism recommendations", "match",
           "--recommend "},
          aam::analysis::render_recommend_golden(recs, workload), golden_path,
          write_golden_path);
    }
    if (json) {
      std::printf(
          "%s\n",
          aam::analysis::render_recommend_json(recs, workload).c_str());
    } else {
      std::printf(
          "%s\n",
          aam::analysis::render_recommend_table(recs, workload).c_str());
    }
    return 0;
  }

  const auto bounds = aam::analysis::capacity_bounds(signatures, degree, chain);

  if (!golden_path.empty() || !write_golden_path.empty()) {
    return aam::util::run_golden(
        {"aam_analyze", "effect signatures", "match", ""},
        aam::analysis::render_golden(signatures, bounds, degree, chain),
        golden_path, write_golden_path);
  }

  if (json) {
    std::printf("%s\n",
                aam::analysis::render_json(signatures, bounds, degree, chain)
                    .c_str());
  } else {
    std::printf("%s\n",
                aam::analysis::render_table(signatures, bounds, degree, chain)
                    .c_str());
  }
  return 0;
}
