#pragma once

// Machine models for the three evaluation platforms of the paper (§5.1):
//
//   BGQ    — ALCF "Vesta" Blue Gene/Q node: 16 PowerPC A2 cores x 4 SMT
//            (64 HW threads), HTM implemented in the shared 32 MB 16-way L2,
//            with a *short* and a *long* running mode.
//   Has-C  — Trivium V70.05: Intel Core i7-4770 Haswell, 4 cores x 2 SMT
//            (8 HW threads), TSX (RTM + HLE) with speculative state in the
//            private 32 KB 8-way L1.
//   Has-P  — Greina cluster node: Xeon E5-2680, 12 cores x 2 SMT
//            (24 HW threads), TSX with a larger L1 (the paper reports 64 KB),
//            nodes connected by InfiniBand FDR.
//
// Each config carries the cost constants that drive the discrete-event
// simulation. The constants are calibrated to the *ratios* the paper reports
// (e.g. single-vertex RTM is 1.5-3x a Haswell CAS; BG/Q HTM aborts are
// expensive enough to degrade single-vertex activities ~11x from T=1 to
// T=64; PAMI remote atomics are ~5x cheaper than an uncoalesced atomic
// active message). Absolute values are plausible-order nanoseconds, not
// claims about the original hardware.

#include <cstdint>
#include <string>
#include <vector>

namespace aam::model {

/// The HTM mechanism variants analyzed in the paper (§5.2).
enum class HtmKind : std::uint8_t {
  kRtm,       ///< Intel Restricted Transactional Memory (software retry)
  kHle,       ///< Intel Hardware Lock Elision (serialize after 1st abort)
  kBgqShort,  ///< BG/Q short running mode (bypasses L1; cheap begin/commit)
  kBgqLong,   ///< BG/Q long running mode (L1-resident; cheaper per access)
};

const char* to_string(HtmKind kind);

/// Cache geometry holding speculative transactional state.
struct CacheGeometry {
  std::uint32_t line_bytes = 64;
  std::uint32_t sets = 64;
  std::uint32_t ways = 8;
  std::uint32_t capacity_lines() const { return sets * ways; }
};

/// Cost table for one HTM variant.
struct HtmCosts {
  double begin_ns = 0;    ///< entering speculative execution
  double commit_ns = 0;   ///< successful commit
  double read_ns = 0;     ///< per transactional load (tracking + access)
  double write_ns = 0;    ///< per transactional store (buffering + access)
  double abort_ns = 0;    ///< rollback penalty (state discard + restart)
  double backoff_base_ns = 0;  ///< first exponential-backoff window
  double backoff_max_ns = 0;   ///< backoff cap (livelock avoidance, §4.1)
  int max_retries = 10;        ///< rollbacks before irrevocable serialization
  bool serialize_after_first_abort = false;  ///< HLE behaviour (§4.1)
  bool hardware_retry = false;  ///< BG/Q retries without software dispatch
  /// Poisson rate (events per microsecond of transaction duration) of
  /// "other" aborts: interrupts, context switches, TLB events (§3.2.2).
  double other_abort_per_us = 0;
  /// Per-line probability that a co-scheduled SMT sibling evicts a
  /// speculative line from the shared cache level, aborting the
  /// transaction with a capacity/overflow code. Scaled by thread pressure
  /// ((T-1)/(T_max-1)): zero when single-threaded. This reproduces the
  /// Fig 5a/5b observation that Has-C sees overflow aborts even for tiny
  /// transactions once threads share its small L1, while Has-P (larger
  /// L1) and BG/Q (large shared L2) barely do.
  double smt_evict_per_line = 0;
  /// Conflict-detection granularity in bytes. Haswell tracks read/write
  /// sets per 64B L1 line; BG/Q's L2-based TM versions memory at a finer
  /// grain, which is what lets large-M transactions over packed vertex
  /// arrays survive 64-way parallelism (§5.5.1) without false sharing.
  std::uint32_t conflict_granularity_bytes = 64;
  CacheGeometry write_capacity;  ///< geometry bounding the write set
  /// Total line budget for the read set (reads are typically tracked with
  /// a larger, less associativity-constrained structure).
  std::uint32_t read_capacity_lines = 4096;
  double serialize_acquire_ns = 0;  ///< taking the fallback lock
};

/// Cost table for hardware atomic operations (§2.3, §5.2).
struct AtomicCosts {
  double cas_ns = 0;   ///< compare-and-swap
  double acc_ns = 0;   ///< fetch-and-add / accumulate
  double load_ns = 0;  ///< plain cached load
  double store_ns = 0; ///< plain cached store
  /// Serialization window a hot cache line imposes on the *next* atomic
  /// from another thread (line ping-pong). Models the Fig 3a/3b latency
  /// growth of Has-CAS with T and its stabilization once the memory system
  /// saturates.
  double line_transfer_ns = 0;
  /// Machine-wide serialization between *any* two atomics: BG/Q executes
  /// atomics at the shared L2 atomic unit, so their aggregate throughput
  /// is bounded regardless of which lines they touch. This is what caps
  /// the scaling of atomics-based Graph500 BFS at high T while AAM's
  /// transactional accesses (normal cache path) keep scaling — the
  /// paper's headline speedup mechanism (§6.1, Fig 7a). Zero on Haswell
  /// (atomics execute in private caches).
  double global_gap_ns = 0;
};

/// LogGP-flavoured network model plus remote-atomic parameters (§5.6).
struct NetworkCosts {
  double overhead_ns = 0;     ///< o: sender CPU cost per message
  double latency_ns = 0;      ///< L: wire latency
  double byte_ns = 0;         ///< 1/B: per-byte serialization cost
  double rmw_issue_ns = 0;    ///< pipelined one-sided remote atomic issue gap
  double rmw_latency_ns = 0;  ///< remote atomic end-to-end completion
  double am_dispatch_ns = 0;  ///< receiver-side handler dispatch per message
};

/// Per-machine calibration of the canned fault scenarios (aam::fault).
/// These are the *defaults* a `--fault=<name>` spec expands to; every field
/// can be overridden with key=value tokens. Rates are chosen so each
/// scenario visibly stresses the machine's recovery paths (retransmits,
/// retry policies, AdaptiveBatch cooldown) without starving progress.
struct FaultProfile {
  // abort-storm: extra Poisson rate of injected kOther aborts (events per
  // microsecond of transaction duration), applied in square-wave bursts.
  double storm_rate_per_us = 0.5;
  double storm_period_ns = 2.0e5;  ///< burst square-wave period (0 = always on)
  double storm_duty = 0.5;         ///< fraction of the period that storms
  // lossy-net: per-transmission fault probabilities and magnitudes.
  double net_drop = 0.05;
  double net_duplicate = 0.03;
  double net_reorder = 0.10;        ///< probability of reorder jitter
  double net_reorder_ns = 2000.0;   ///< max extra jitter when reordered
  double net_delay_spike = 0.02;    ///< probability of a delay spike
  double net_delay_spike_ns = 20000.0;
  double net_rto_ns = 8000.0;       ///< initial retransmit timeout
  double net_rto_cap_ns = 64000.0;  ///< exponential-backoff cap
  // straggler: a deterministic subset of threads runs slower in windows.
  double straggler_fraction = 0.25;  ///< fraction of threads affected
  double straggler_factor = 4.0;     ///< multiplicative slowdown
  double straggler_period_ns = 4.0e5;
  double straggler_duty = 0.5;
  // brownout: whole simulated nodes transiently slow down.
  double brownout_fraction = 0.5;
  double brownout_factor = 6.0;
  double brownout_period_ns = 1.0e6;
  double brownout_duty = 0.25;
  // crash-restart: crash-stop machine failures recovered from checkpoints
  // (src/recovery/). crash_p is the per-consult (completed activity or
  // event boundary) crash probability; crash_at_ns forces one crash at
  // the first consult past that virtual time (0 = disabled) so every
  // non-trivial run deterministically suffers at least one crash;
  // crash_max caps the total crashes a run may suffer; crash_ckpt_ns is
  // the checkpoint interval handed to the RecoveryManager.
  double crash_p = 5.0e-5;
  double crash_at_ns = 3.0e3;
  double crash_max = 3.0;
  double crash_ckpt_ns = 2.0e3;
};

struct MachineConfig {
  std::string name;
  int cores = 1;
  int smt = 1;
  AtomicCosts atomics;
  NetworkCosts net;
  FaultProfile fault;
  std::vector<HtmKind> supported_htm;

  int max_threads() const { return cores * smt; }
  /// One thread per core (middle scenario of §5.5).
  int threads_per_core_one() const { return cores; }
  const HtmCosts& htm(HtmKind kind) const;

  HtmCosts htm_costs_[4];  // indexed by HtmKind; filled by factory functions
};

/// ALCF Vesta Blue Gene/Q node model.
const MachineConfig& bgq();
/// Trivium V70.05 commodity Haswell model.
const MachineConfig& has_c();
/// Greina high-performance cluster node model.
const MachineConfig& has_p();

/// Look up by name ("BGQ", "Has-C", "Has-P"); aborts on unknown names.
const MachineConfig& machine_by_name(const std::string& name);

/// Every spelling machine_by_name accepts: each canonical name, then its
/// aliases (for a --machine flag's list of valid choices).
const std::vector<std::string>& machine_names();

}  // namespace aam::model
