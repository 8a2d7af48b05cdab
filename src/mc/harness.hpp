#pragma once

// The certification sweep behind tools/aam_mc: a fixed matrix of
// (workload x mechanism) configurations, each explored to completion (or
// to its declared preemption bound), with the DPOR and naive-DFS schedule
// counts side by side. The rendered golden form is committed as
// tests/golden/mc_certification.txt and drift-diffed in CI, so every
// number here is deterministic by construction.

#include <cstdint>
#include <string>
#include <vector>

#include "mc/explorer.hpp"

namespace aam::mc {

struct CertRow {
  std::string workload;
  std::string mechanism;  ///< canonical mechanism name or "auto"
  int threads = 0;
  /// Sleep-set DPOR exploration (the certifying pass).
  std::uint64_t dpor_runs = 0;
  std::uint64_t dpor_schedules = 0;
  /// Reduction-free DFS over the same space; kNotRun when the row's
  /// naive budget ran out before the space was exhausted (rendered "-").
  std::uint64_t naive_schedules = 0;
  bool naive_complete = false;
  std::uint64_t violating_schedules = 0;
  std::uint64_t max_auto_descents = 0;
  /// -1 = exhaustive; >= 0 = certified only up to this preemption bound.
  int bound = -1;
  /// "certified", "certified-bounded(p=N)", or "VIOLATION".
  std::string result;
};

struct CertReport {
  std::vector<CertRow> rows;
};

struct CertOptions {
  /// Machine-execution budget for each row's naive (reduction-free)
  /// comparison pass; 0 skips the naive pass entirely.
  std::uint64_t naive_budget = 50000;
  /// Run budget for the certifying DPOR pass; its step budget is
  /// ExploreConfig's default.
  std::uint64_t max_runs = 200000;
};

/// The per-row configuration conventions: the committed matrix encodes
/// its knobs by (workload, mechanism) name so every caller — the sweep,
/// the CLI's single-config modes, the tests — reproduces identical rows.
/// `mechanism` is a canonical mechanism name or "auto".
RunConfig row_run_config(const std::string& workload,
                         const std::string& mechanism);

/// The row's exploration bound: -1 (exhaustive) except for the workloads
/// whose full space exceeds any budget (auto-window: p=1).
int row_bound(const std::string& workload);

/// Runs one certification row (exposed for tests).
CertRow certify_one(const std::string& workload, const std::string& mechanism,
                    const CertOptions& options = {});

/// The full committed sweep: every spec workload under every mechanism it
/// is meant to certify, the five fixed engines each exhaustively, and the
/// auto dispatcher on its routing, escalation (htm -> serial-lock), and
/// band-miss (htm -> stm, preemption-bounded) paths.
CertReport certify(const CertOptions& options = {});

std::string render_table(const CertReport& report);
std::string render_json(const CertReport& report);
/// The drift-diffed manifest body (stable line format, trailing newline).
std::string render_golden(const CertReport& report);

}  // namespace aam::mc
