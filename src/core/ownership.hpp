#pragma once

// The ownership protocol for distributed activities (§4.3, Fig 5i).
//
// A hardware transaction cannot span nodes (it could not roll back remote
// side effects), so an activity that touches remote elements first brings
// them under local control:
//
//   * every element carries an ownership marker, initially free (⊥);
//   * the handler CASes the marker of each remote element to its process
//     id (modelled as a one-sided NIC operation with a reply);
//   * if every CAS succeeds, the elements are logically relocated and the
//     transaction executes locally; afterwards the markers are released;
//   * if any CAS fails, all previously acquired markers are released and
//     the handler backs off for a random time — without backoff the
//     protocol livelocks (§5.7);
//   * a local transaction that touches a marked element does not commit;
//     it backs off and retries (the borrower is guaranteed to finish).
//
// The driver below reproduces the §5.7 experiment: each process issues x
// transactions, each marking a local and b remote randomly selected
// vertices.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "net/cluster.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace aam::core {

class OwnershipProtocol {
 public:
  struct Params {
    int txns_per_process = 1000;  ///< x
    int local_elements = 5;       ///< a
    int remote_elements = 1;      ///< b
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::uint64_t transactions_completed = 0;
    std::uint64_t marker_cas_attempts = 0;
    std::uint64_t marker_cas_failures = 0;
    std::uint64_t acquisition_rounds = 0;  ///< full acquire attempts
    std::uint64_t backoffs = 0;
    std::uint64_t local_blocked = 0;  ///< txn retries due to marked elements
    double makespan_ns = 0;
  };

  /// `markers` and `values` are per-element arrays on the cluster's
  /// SimHeap, distributed by `part`; markers must be zero-initialized
  /// (0 = free, p+1 = held by process p).
  OwnershipProtocol(net::Cluster& cluster, std::span<std::uint64_t> markers,
                    std::span<std::uint64_t> values,
                    const graph::Block1D& part);
  ~OwnershipProtocol();

  /// Runs one configuration to completion and reports the statistics.
  /// Uses one driver worker per cluster thread.
  Stats run(const Params& params);

 private:
  class Driver;

  net::Cluster& cluster_;
  std::span<std::uint64_t> markers_;
  std::span<std::uint64_t> values_;
  graph::Block1D part_;
  std::vector<std::unique_ptr<Driver>> drivers_;
};

}  // namespace aam::core
