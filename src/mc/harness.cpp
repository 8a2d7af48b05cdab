#include "mc/harness.hpp"

#include <iomanip>
#include <sstream>

#include "core/executor.hpp"
#include "util/check.hpp"

namespace aam::mc {

RunConfig row_run_config(const std::string& workload,
                         const std::string& mechanism) {
  RunConfig cfg;
  cfg.workload = workload;
  if (mechanism == "auto") {
    cfg.mech = core::MechanismSelection{};  // nullopt fixed = auto
    if (workload == "auto-escalate") {
      // Make the livelock escalation (htm -> serial-lock rung jump)
      // reachable within a 2x2 counter: two consecutive aborts escalate.
      cfg.livelock_watermark = 2;
    } else if (workload == "auto-window") {
      // Any abort inside a 32-activity validation window is a band miss:
      // the htm -> stm descent fires mid-run.
      cfg.auto_abort_band = 0.01;
    }
  } else {
    const std::optional<core::Mechanism> fixed =
        core::parse_mechanism(mechanism);
    AAM_CHECK_MSG(fixed.has_value(), "unknown mechanism in certify row");
    cfg.mech = core::MechanismSelection{*fixed};
  }
  return cfg;
}

/// auto-window's full space is far beyond any budget (36 transactions);
/// it is the committed example of the preemption-bound fallback.
int row_bound(const std::string& workload) {
  return workload == "auto-window" ? 1 : -1;
}

CertRow certify_one(const std::string& workload, const std::string& mechanism,
                    const CertOptions& options) {
  CertRow row;
  row.workload = workload;
  row.mechanism = mechanism;
  row.bound = row_bound(workload);

  Runner runner(row_run_config(workload, mechanism));
  row.threads = static_cast<int>(runner.workload().threads.size());

  ExploreConfig dpor;
  dpor.sleep_sets = true;
  dpor.preemption_bound = row.bound;
  dpor.max_runs = options.max_runs;
  const ExploreResult certified = explore(runner, dpor);
  row.dpor_runs = certified.stats.runs;
  row.dpor_schedules = certified.stats.schedules;
  row.violating_schedules = certified.violating_schedules;
  row.max_auto_descents = certified.stats.max_auto_descents;

  if (options.naive_budget > 0 && row.bound < 0) {
    ExploreConfig naive;
    naive.sleep_sets = false;
    naive.preemption_bound = -1;
    naive.max_runs = options.naive_budget;
    const ExploreResult full = explore(runner, naive);
    row.naive_complete = !full.stats.budget_exhausted;
    row.naive_schedules = full.stats.schedules;
  }

  if (certified.violating_schedules > 0) {
    row.result = "VIOLATION";
  } else if (certified.stats.budget_exhausted) {
    row.result = "budget-exhausted";
  } else if (row.bound >= 0) {
    std::ostringstream os;
    os << "certified-bounded(p=" << row.bound << ")";
    row.result = os.str();
  } else {
    row.result = "certified";
  }
  return row;
}

CertReport certify(const CertOptions& options) {
  CertReport report;
  const std::vector<std::string> engines = {"htm", "atomics", "fine-locks",
                                            "serial-lock", "stm"};
  for (const std::string workload : {"disjoint", "counter", "cross"}) {
    for (const std::string& mechanism : engines) {
      report.rows.push_back(certify_one(workload, mechanism, options));
    }
  }
  report.rows.push_back(certify_one("counter3", "htm", options));
  for (const std::string workload : {"lock-protocol", "ack-protocol"}) {
    for (const std::string mechanism : {"htm", "atomics"}) {
      report.rows.push_back(certify_one(workload, mechanism, options));
    }
  }
  report.rows.push_back(certify_one("counter", "auto", options));
  report.rows.push_back(certify_one("auto-escalate", "auto", options));
  report.rows.push_back(certify_one("auto-window", "auto", options));
  return report;
}

std::string render_table(const CertReport& report) {
  std::ostringstream os;
  os << std::left << std::setw(14) << "workload" << std::setw(13)
     << "mechanism" << std::right << std::setw(3) << "T" << std::setw(11)
     << "dpor-runs" << std::setw(12) << "dpor-scheds" << std::setw(13)
     << "naive-scheds" << std::setw(9) << "descents" << std::setw(6) << "viol"
     << "  " << std::left << "result" << "\n";
  for (const CertRow& r : report.rows) {
    os << std::left << std::setw(14) << r.workload << std::setw(13)
       << r.mechanism << std::right << std::setw(3) << r.threads
       << std::setw(11) << r.dpor_runs << std::setw(12) << r.dpor_schedules;
    if (r.naive_complete) {
      os << std::setw(13) << r.naive_schedules;
    } else {
      os << std::setw(13) << "-";
    }
    os << std::setw(9) << r.max_auto_descents << std::setw(6)
       << r.violating_schedules << "  " << std::left << r.result << "\n";
  }
  return os.str();
}

std::string render_json(const CertReport& report) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const CertRow& r = report.rows[i];
    os << "  {\"workload\": \"" << r.workload << "\", \"mechanism\": \""
       << r.mechanism << "\", \"threads\": " << r.threads
       << ", \"dpor_runs\": " << r.dpor_runs
       << ", \"dpor_schedules\": " << r.dpor_schedules
       << ", \"naive_schedules\": ";
    if (r.naive_complete) {
      os << r.naive_schedules;
    } else {
      os << "null";
    }
    os << ", \"max_auto_descents\": " << r.max_auto_descents
       << ", \"violating_schedules\": " << r.violating_schedules
       << ", \"result\": \"" << r.result << "\"}"
       << (i + 1 < report.rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

std::string render_golden(const CertReport& report) {
  std::ostringstream os;
  os << "# aam_mc certification manifest\n"
     << "# workload mechanism threads dpor_runs dpor_schedules "
     << "naive_schedules descents violations result\n";
  for (const CertRow& r : report.rows) {
    os << r.workload << " " << r.mechanism << " " << r.threads << " "
       << r.dpor_runs << " " << r.dpor_schedules << " ";
    if (r.naive_complete) {
      os << r.naive_schedules;
    } else {
      os << "-";
    }
    os << " " << r.max_auto_descents << " " << r.violating_schedules << " "
       << r.result << "\n";
  }
  return os.str();
}

}  // namespace aam::mc
