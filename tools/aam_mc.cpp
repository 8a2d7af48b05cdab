// aam_mc: bounded schedule-space model checking of the DES mechanism
// engines.
//
//   aam_mc                              full certification sweep, aligned table
//   aam_mc --json                       machine-readable sweep dump
//   aam_mc --golden=PATH                diff the sweep manifest against a
//                                       committed golden; exit 1 on drift
//   aam_mc --write-golden=PATH          regenerate the golden manifest
//   aam_mc --workload=W [--mechanism=M] explore one configuration; on a
//       [--mutation=X] [--budget=N]     violation, print the minimized
//                                       failing trace and how to replay it
//   aam_mc --workload=W --mc-replay=T   re-execute a recorded trace
//       [--mechanism=M] [--mutation=X]  ("0n.1n.1c...") step by step
//   aam_mc --expect-violation           invert the exit code (CI mutation
//                                       smoke: seeded bugs MUST be caught)
//
// CI runs `aam_mc --golden=tests/golden/mc_certification.txt`: any engine
// or workload change that shifts a schedule count or a certification
// verdict must come with a regenerated manifest, reviewable line by line.

#include <cstdio>
#include <string>

#include "mc/explorer.hpp"
#include "mc/harness.hpp"
#include "mc/trace.hpp"
#include "util/cli.hpp"
#include "util/golden.hpp"

namespace {

void print_violations(const aam::mc::RunResult& result) {
  for (const aam::mc::ViolationInfo& v : result.violations) {
    std::printf("violation [%s]: %s\n", aam::mc::to_string(v.kind),
                v.detail.c_str());
  }
}

/// Exit code: violations normally fail, but under --expect-violation the
/// seeded-bug smoke wants the checker to FIND the bug.
int verdict(bool violated, bool expect_violation) {
  if (expect_violation) {
    if (!violated) {
      std::fprintf(stderr,
                   "aam_mc: expected a violation but none was found\n");
      return 1;
    }
    return 0;
  }
  return violated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  aam::util::Cli cli(argc, argv);
  const bool json = cli.get_bool("json", false);
  cli.get_bool("table", false);  // accepted for symmetry; table is default
  const std::string golden_path = cli.get_string("golden", "");
  const std::string write_golden_path = cli.get_string("write-golden", "");
  const std::string workload = cli.get_string("workload", "");
  const std::string mechanism = cli.get_string("mechanism", "htm");
  const std::string mutation_name = cli.get_string("mutation", "none");
  const std::string replay_text = cli.get_string("mc-replay", "");
  const std::uint64_t budget =
      static_cast<std::uint64_t>(cli.get_int("budget", 200000));
  const std::uint64_t naive_budget =
      static_cast<std::uint64_t>(cli.get_int("naive-budget", 50000));
  const bool expect_violation = cli.get_bool("expect-violation", false);
  cli.check_unknown();

  if (workload.empty()) {
    // Sweep mode: the committed certification matrix.
    aam::mc::CertOptions options;
    options.naive_budget = naive_budget;
    options.max_runs = budget;
    const aam::mc::CertReport report = aam::mc::certify(options);
    if (!golden_path.empty() || !write_golden_path.empty()) {
      return aam::util::run_golden(
          {"aam_mc", "certification manifest", "matches", ""},
          aam::mc::render_golden(report), golden_path, write_golden_path);
    }
    if (json) {
      std::printf("%s", aam::mc::render_json(report).c_str());
    } else {
      std::printf("%s", aam::mc::render_table(report).c_str());
    }
    return 0;
  }

  const std::optional<aam::mc::Mutation> mutation =
      aam::mc::parse_mutation(mutation_name);
  if (!mutation.has_value()) {
    std::fprintf(stderr, "aam_mc: bad --mutation value '%s' (valid: %s)\n",
                 mutation_name.c_str(), aam::mc::mutation_names().c_str());
    return 2;
  }
  aam::mc::RunConfig config = aam::mc::row_run_config(workload, mechanism);
  config.mutation = *mutation;
  aam::mc::Runner runner(config);

  if (!replay_text.empty()) {
    const std::optional<aam::mc::Trace> trace =
        aam::mc::parse_trace(replay_text);
    if (!trace.has_value()) {
      std::fprintf(stderr, "aam_mc: malformed --mc-replay trace '%s'\n",
                   replay_text.c_str());
      return 2;
    }
    const aam::mc::RunResult result = runner.replay(*trace);
    std::printf("replaying %zu steps on %s/%s (mutation: %s)\n%s",
                trace->size(), workload.c_str(), mechanism.c_str(),
                aam::mc::to_string(*mutation),
                aam::mc::pretty_trace(result.trace).c_str());
    std::printf("outcome: %s\n", canonical(result.outcome).c_str());
    print_violations(result);
    return verdict(!result.violations.empty(), expect_violation);
  }

  // Single-configuration exploration.
  aam::mc::ExploreConfig explore_config;
  explore_config.preemption_bound = aam::mc::row_bound(workload);
  explore_config.max_runs = budget;
  aam::mc::ExploreResult explored = aam::mc::explore(runner, explore_config);
  std::printf(
      "%s/%s (mutation: %s): %llu runs, %llu complete schedules, %llu "
      "pruned, %llu steps%s\n",
      workload.c_str(), mechanism.c_str(), aam::mc::to_string(*mutation),
      static_cast<unsigned long long>(explored.stats.runs),
      static_cast<unsigned long long>(explored.stats.schedules),
      static_cast<unsigned long long>(explored.stats.pruned),
      static_cast<unsigned long long>(explored.stats.steps),
      explored.stats.budget_exhausted ? " (budget exhausted)" : "");
  if (explored.violating_schedules == 0) {
    std::printf("no violations: every explored schedule is serializable "
                "and satisfies the workload invariant\n");
    return verdict(false, expect_violation);
  }
  std::printf("%llu violating schedule(s); minimizing...\n",
              static_cast<unsigned long long>(explored.violating_schedules));
  const std::optional<aam::mc::FoundViolation> minimal =
      aam::mc::find_minimal(runner);
  const aam::mc::FoundViolation& witness =
      minimal.has_value() ? *minimal : explored.violations.front();
  std::printf("violation [%s]: %s\nminimized trace (%zu steps): %s\n%s",
              aam::mc::to_string(witness.info.kind),
              witness.info.detail.c_str(), witness.trace.size(),
              aam::mc::format_trace(witness.trace).c_str(),
              aam::mc::pretty_trace(witness.trace).c_str());
  std::printf(
      "replay with: aam_mc --workload=%s --mechanism=%s --mutation=%s "
      "--mc-replay=%s\n",
      workload.c_str(), mechanism.c_str(), aam::mc::to_string(*mutation),
      aam::mc::format_trace(witness.trace).c_str());
  return verdict(true, expect_violation);
}
