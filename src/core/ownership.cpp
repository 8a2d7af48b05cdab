#include "core/ownership.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aam::core {

namespace {

/// The random backoff after a failed acquisition or a blocked local
/// transaction: first window and cap.
constexpr double kBackoffBaseNs = 600.0;
constexpr double kBackoffMaxNs = 80000.0;

}  // namespace

// One driver per cluster thread. A driver walks each of its jobs through:
//   kPick -> kAcquiring -> kExecute -> (blocked? backoff -> kExecute) ->
//   release -> kPick ... until all jobs complete.
class OwnershipProtocol::Driver : public htm::Worker {
 public:
  Driver(OwnershipProtocol& proto, int node, util::Rng rng)
      : proto_(proto), node_(node), rng_(rng) {}

  void configure(const Params& params, Stats* stats) {
    params_ = params;
    stats_ = stats;
    jobs_left_ = params.txns_per_process;
    state_ = State::kPick;
    attempt_ = 0;
  }

  bool next(htm::ThreadCtx& ctx) override {
    switch (state_) {
      case State::kPick:
        if (jobs_left_ == 0) return false;
        pick_elements();
        if (remotes_.empty()) {
          state_ = State::kExecute;
          return true;
        }
        state_ = State::kWaiting;
        start_acquisition(ctx);
        return false;  // park; the last reply callback wakes us
      case State::kWaiting:
        return false;  // spurious wake-up while replies are outstanding
      case State::kExecute:
        state_ = State::kWaiting;  // the done callback picks the next state
        stage_transaction(ctx);
        return true;
    }
    return false;
  }

 private:
  enum class State { kPick, kWaiting, kExecute };

  std::uint64_t my_marker() const {
    return static_cast<std::uint64_t>(node_) + 1;
  }

  void pick_elements() {
    const auto n = proto_.part_.num_vertices();
    locals_.clear();
    remotes_.clear();
    while (static_cast<int>(locals_.size()) < params_.local_elements) {
      const auto v = static_cast<graph::Vertex>(
          proto_.part_.begin(node_) +
          rng_.next_below(proto_.part_.count(node_)));
      if (std::find(locals_.begin(), locals_.end(), v) == locals_.end()) {
        locals_.push_back(v);
      }
    }
    while (static_cast<int>(remotes_.size()) < params_.remote_elements) {
      const auto v = static_cast<graph::Vertex>(rng_.next_below(n));
      if (proto_.part_.owner(v) == node_) continue;
      if (std::find(remotes_.begin(), remotes_.end(), v) == remotes_.end()) {
        remotes_.push_back(v);
      }
    }
  }

  // Issues marker CASes for every remote element in parallel; the last
  // reply decides success (all acquired) vs release + backoff.
  void start_acquisition(htm::ThreadCtx& ctx) {
    ++stats_->acquisition_rounds;
    outstanding_ = static_cast<int>(remotes_.size());
    failures_this_round_ = 0;
    acquired_.clear();

    auto& machine = proto_.cluster_.machine();
    const auto& net = proto_.cluster_.config().net;
    const std::uint32_t tid = ctx.thread_id();

    for (graph::Vertex v : remotes_) {
      ++stats_->marker_cas_attempts;
      ctx.compute(net.rmw_issue_ns);
      const double arrival = ctx.now() + net.rmw_latency_ns;
      machine.schedule_callback(arrival, [this, v, tid, &machine, &net] {
        // NIC-side CAS on the marker at the owner.
        std::uint64_t& marker = proto_.markers_[v];
        const bool ok = (marker == 0);
        if (ok) {
          marker = my_marker();
          machine.bump_addr(&marker);
        }
        // Reply to the spawner.
        machine.schedule_callback(machine.now() + net.latency_ns,
                                  [this, v, tid, ok, &machine] {
          if (ok) {
            acquired_.push_back(v);
          } else {
            ++stats_->marker_cas_failures;
            ++failures_this_round_;
          }
          if (--outstanding_ == 0) finish_acquisition(tid, machine);
        });
      });
    }
  }

  void finish_acquisition(std::uint32_t tid, htm::DesMachine& machine) {
    if (failures_this_round_ == 0) {
      state_ = State::kExecute;
      machine.wake(tid);
      return;
    }
    // Release everything we managed to grab, then back off for a random
    // time: mandatory for livelock freedom (§5.7).
    release_markers(machine, acquired_);
    ++stats_->backoffs;
    const sim::Backoff backoff(kBackoffBaseNs, kBackoffMaxNs);
    const double wait = backoff.wait(attempt_++, rng_.next_double());
    machine.schedule_callback(machine.now() + wait, [this, tid, &machine] {
      // Retry with a fresh random pick; the job is only consumed when a
      // transaction commits, so jobs_left_ is untouched.
      state_ = State::kPick;
      machine.wake(tid);
    });
  }

  void release_markers(htm::DesMachine& machine,
                       const std::vector<graph::Vertex>& elems) {
    const auto& net = proto_.cluster_.config().net;
    for (graph::Vertex v : elems) {
      machine.schedule_callback(machine.now() + net.rmw_latency_ns,
                                [this, v, &machine] {
        std::uint64_t& marker = proto_.markers_[v];
        marker = 0;
        machine.bump_addr(&marker);
      });
    }
  }

  void stage_transaction(htm::ThreadCtx& ctx) {
    ctx.stage_transaction(
        [this](htm::Txn& tx) {
          blocked_ = false;
          // Local elements must not be marked by another process (§4.3:
          // a local transaction touching a marked element aborts).
          for (graph::Vertex v : locals_) {
            const std::uint64_t m = tx.load(proto_.markers_[v]);
            if (m != 0 && m != my_marker()) {
              blocked_ = true;
              return;
            }
          }
          for (graph::Vertex v : locals_) {
            tx.fetch_add(proto_.values_[v], std::uint64_t{1});
          }
          for (graph::Vertex v : remotes_) {
            tx.fetch_add(proto_.values_[v], std::uint64_t{1});
          }
        },
        [this](htm::ThreadCtx& done_ctx, const htm::TxnOutcome&) {
          auto& machine = proto_.cluster_.machine();
          if (blocked_) {
            // A borrower holds one of our local elements. Holding our own
            // acquisitions while waiting would deadlock (the borrower may
            // in turn be blocked by a marker we hold), so — as with a
            // failed CAS (§4.3) — release everything, back off for a
            // random time, and restart from acquisition.
            ++stats_->local_blocked;
            release_markers(machine, remotes_);
            const sim::Backoff backoff(kBackoffBaseNs, kBackoffMaxNs);
            const double wait =
                backoff.wait(attempt_++, rng_.next_double());
            const std::uint32_t tid = done_ctx.thread_id();
            state_ = State::kWaiting;
            machine.schedule_callback(done_ctx.now() + wait,
                                      [this, tid, &machine] {
              state_ = State::kPick;
              machine.wake(tid);
            });
            return;
          }
          // Committed: send the elements back and free their markers.
          release_markers(machine, remotes_);
          ++stats_->transactions_completed;
          --jobs_left_;
          attempt_ = 0;
          state_ = State::kPick;
        });
  }

  OwnershipProtocol& proto_;
  int node_;
  util::Rng rng_;
  Params params_;
  Stats* stats_ = nullptr;

  State state_ = State::kPick;
  int jobs_left_ = 0;
  int attempt_ = 0;
  std::vector<graph::Vertex> locals_;
  std::vector<graph::Vertex> remotes_;
  std::vector<graph::Vertex> acquired_;
  int outstanding_ = 0;
  int failures_this_round_ = 0;
  bool blocked_ = false;
};

OwnershipProtocol::OwnershipProtocol(net::Cluster& cluster,
                                     std::span<std::uint64_t> markers,
                                     std::span<std::uint64_t> values,
                                     const graph::Block1D& part)
    : cluster_(cluster), markers_(markers), values_(values), part_(part) {
  AAM_CHECK(markers.size() == values.size());
  AAM_CHECK(markers.size() >= part.num_vertices());
  AAM_CHECK_MSG(cluster.num_nodes() >= 2,
                "the ownership protocol needs at least two nodes");
}

OwnershipProtocol::~OwnershipProtocol() = default;

OwnershipProtocol::Stats OwnershipProtocol::run(const Params& params) {
  Stats stats;
  auto& machine = cluster_.machine();
  const util::Rng root(params.seed);
  drivers_.clear();
  const int threads = cluster_.num_nodes() * cluster_.threads_per_node();
  for (int t = 0; t < threads; ++t) {
    drivers_.push_back(std::make_unique<Driver>(
        *this, cluster_.node_of_thread(static_cast<std::uint32_t>(t)),
        root.fork(static_cast<std::uint64_t>(t) + 1)));
    drivers_.back()->configure(params, &stats);
    machine.set_worker(static_cast<std::uint32_t>(t), drivers_.back().get());
  }
  machine.run();
  stats.makespan_ns = machine.makespan();
  return stats;
}

}  // namespace aam::core
