#include "model/machines.hpp"

#include <utility>

#include "util/check.hpp"

namespace aam::model {

const char* to_string(HtmKind kind) {
  switch (kind) {
    case HtmKind::kRtm: return "RTM";
    case HtmKind::kHle: return "HLE";
    case HtmKind::kBgqShort: return "BGQ-HTM-S";
    case HtmKind::kBgqLong: return "BGQ-HTM-L";
  }
  return "?";
}

const HtmCosts& MachineConfig::htm(HtmKind kind) const {
  for (HtmKind k : supported_htm) {
    if (k == kind) return htm_costs_[static_cast<int>(kind)];
  }
  AAM_CHECK_MSG(false, "HTM kind not supported on this machine");
}

namespace {

// ---------------------------------------------------------------------------
// Calibration notes. Each constant is tied to a paper observation:
//  [H1] Has RTM/HLE single-vertex latency is 1.5-3x Has-CAS; RTM is 5-15%
//       faster than HLE (§5.4.1).
//  [H2] Has-CAS latency grows with T due to line contention and stabilizes
//       at T=8 (§5.4.1, point (a) of Fig 3b).
//  [H3] RTM capacity lives in the 8-way L1; buffer overflows dominate
//       Has-C aborts for M>64 while Has-P sees <1% (§5.5 discussion).
//  [B1] BG/Q HTM single-vertex performance degrades ~11x from T=1 to T=64
//       because aborts are expensive (§5.4.1).
//  [B2] Short mode beats long mode for small transactions and inverts for
//       M>32 (short mode has cheaper begin/commit, pricier per access)
//       (§5.2, §5.5.1).
//  [B3] BG/Q HTM auto-retries and serializes after 10 rollbacks (§4.1).
//  [B4] BG/Q keeps speculative state in the 16-way L2, so associativity
//       capacity aborts are rare (§5.5 discussion).
//  [N1] Uncoalesced atomic active messages are ~5x slower than PAMI_Rmw
//       remote atomics; coalescing with C>=16 inverts this (§5.6.1).
//  [N2] On InfiniBand/MPI-3 RMA the crossover is already at C=2 because
//       MPI RMA atomics have a higher per-op cost (§5.6.2).
// ---------------------------------------------------------------------------

MachineConfig make_has_c() {
  MachineConfig m;
  m.name = "Has-C";
  m.cores = 4;
  m.smt = 2;

  m.atomics.cas_ns = 19.0;          // [H1] baseline for the 1.5-3x ratio
  m.atomics.acc_ns = 14.0;          // CAS costs more than ACC (§5.4 disc.)
  m.atomics.load_ns = 1.8;
  m.atomics.store_ns = 2.2;
  // [H2] moderate: CAS stays fastest in Fig 3a across T (~50%% growth
  // from T=4 to T=8) while still growing with contention.
  m.atomics.line_transfer_ns = 6.0;

  HtmCosts rtm;
  rtm.begin_ns = 12.0;              // xbegin/xend are ~30 cycles combined:
  rtm.commit_ns = 10.0;             // single vertex ~= 1.6x CAS [H1], and
                                    // the t(N) crossover lands at N~2 —
                                    // exactly the paper's Has-C M_min.
  rtm.read_ns = 3.0;
  rtm.write_ns = 4.2;
  rtm.abort_ns = 150.0;
  rtm.backoff_base_ns = 120.0;
  rtm.backoff_max_ns = 16000.0;
  rtm.max_retries = 10;             // software retry loop (§4.1)
  rtm.other_abort_per_us = 0.0003;
  rtm.smt_evict_per_line = 1.5e-3;  // [H3] small shared L1 -> Fig 5a shape
  rtm.write_capacity = CacheGeometry{64, 64, 8};  // 32KB 8-way L1 [H3]
  rtm.read_capacity_lines = 4096;
  rtm.serialize_acquire_ns = 70.0;

  HtmCosts hle = rtm;               // [H1] RTM 5-15% faster than HLE
  hle.begin_ns = 14.0;
  hle.commit_ns = 12.0;
  hle.serialize_after_first_abort = true;  // §4.1

  m.htm_costs_[static_cast<int>(HtmKind::kRtm)] = rtm;
  m.htm_costs_[static_cast<int>(HtmKind::kHle)] = hle;
  m.supported_htm = {HtmKind::kRtm, HtmKind::kHle};

  // Not a distributed-memory machine; network params unused but kept sane.
  m.net.overhead_ns = 700.0;
  m.net.latency_ns = 1200.0;
  m.net.byte_ns = 0.25;
  m.net.rmw_issue_ns = 900.0;
  m.net.rmw_latency_ns = 2600.0;
  m.net.am_dispatch_ns = 1100.0;

  // Canned fault calibration: commodity desktop — OS jitter is the main
  // hazard (interrupt storms on a shared box), the network is an
  // afterthought, so the RTO tracks the modest AM round-trip.
  m.fault.storm_rate_per_us = 0.8;
  m.fault.net_rto_ns = 3.0 * (m.net.latency_ns + m.net.am_dispatch_ns);
  m.fault.net_rto_cap_ns = 8.0 * m.fault.net_rto_ns;
  return m;
}

MachineConfig make_has_p() {
  MachineConfig m = make_has_c();
  m.name = "Has-P";
  m.cores = 12;
  m.smt = 2;

  // 2.5 GHz vs 3.4 GHz: scale CPU-side costs up ~1.35x.
  const double f = 1.35;
  m.atomics.cas_ns *= f;
  m.atomics.acc_ns *= f;
  m.atomics.load_ns *= f;
  m.atomics.store_ns *= f;
  m.atomics.line_transfer_ns *= f;

  for (HtmKind k : {HtmKind::kRtm, HtmKind::kHle}) {
    HtmCosts& c = m.htm_costs_[static_cast<int>(k)];
    c.begin_ns *= f;
    c.commit_ns *= f;
    c.read_ns *= f;
    c.write_ns *= f;
    c.abort_ns *= f;
    // [H3] the paper reports 64 KB L1 on Greina => twice the sets, so
    // Has-P is only marginally impacted by buffer overflows (<1% of
    // aborts, §5.5): an order of magnitude lower eviction hazard.
    c.smt_evict_per_line = 3.0e-5;
    c.write_capacity = CacheGeometry{64, 128, 8};
    c.read_capacity_lines = 8192;
  }

  // InfiniBand FDR + MPI-3 RMA. [N2]
  m.net.overhead_ns = 650.0;
  m.net.latency_ns = 1100.0;
  m.net.byte_ns = 0.15;           // ~6.8 GB/s effective
  m.net.rmw_issue_ns = 1400.0;    // MPI RMA fetch-ops are not as pipelined
  m.net.rmw_latency_ns = 3200.0;
  m.net.am_dispatch_ns = 1600.0;  // generic MPI-based AM layer

  // Canned fault calibration: HPC cluster — clean cores (rare OS jitter)
  // but a real fabric: lossy-net and brown-outs (power capping on shared
  // racks) are the interesting scenarios.
  m.fault.storm_rate_per_us = 0.4;
  m.fault.net_drop = 0.08;
  m.fault.net_delay_spike = 0.04;
  m.fault.net_rto_ns = 3.0 * (m.net.latency_ns + m.net.am_dispatch_ns);
  m.fault.net_rto_cap_ns = 8.0 * m.fault.net_rto_ns;
  return m;
}

MachineConfig make_bgq() {
  MachineConfig m;
  m.name = "BGQ";
  m.cores = 16;
  m.smt = 4;

  // A2 cores are slow and in-order; atomics execute at the shared L2, so
  // they cost more but scale gracefully with T (BGQ-CAS "least affected by
  // the increasing T", §5.4.1).
  m.atomics.cas_ns = 72.0;
  m.atomics.acc_ns = 62.0;
  m.atomics.load_ns = 6.0;
  m.atomics.store_ns = 7.0;
  // Atomics are applied *at* the shared L2 (no line ping-pong between
  // private caches), deeply pipelined: BGQ-CAS is "least affected by the
  // increasing T" (§5.4.1) — but the L2 atomic unit's aggregate
  // throughput is bounded (global_gap_ns), which is what AAM's coarse
  // transactions sidestep (§6.1).
  m.atomics.line_transfer_ns = 3.0;
  m.atomics.global_gap_ns = 6.0;

  HtmCosts shrt;
  shrt.begin_ns = 310.0;   // [B2] cheap begin/commit relative to long mode
  shrt.commit_ns = 260.0;
  shrt.read_ns = 12.0;     // [B2] bypasses L1 -> pricier per access
  shrt.write_ns = 14.0;
  shrt.abort_ns = 1500.0;  // [B1] expensive rollbacks
  shrt.backoff_base_ns = 200.0;
  shrt.backoff_max_ns = 25000.0;
  shrt.max_retries = 10;   // [B3]
  shrt.hardware_retry = true;
  shrt.other_abort_per_us = 0.012;  // Table 3c: short mode sees many "other"
  shrt.smt_evict_per_line = 2.0e-6;  // [B4] 32MB shared L2: evictions rare
  shrt.conflict_granularity_bytes = 8;  // fine-grained L2 TM versioning
  // [B4] speculative state in the 16-way L2; budget bounded by per-thread
  // allocation rather than associativity.
  shrt.write_capacity = CacheGeometry{64, 128, 16};  // 2048-line budget
  shrt.read_capacity_lines = 16384;
  shrt.serialize_acquire_ns = 260.0;

  HtmCosts lng = shrt;
  lng.begin_ns = 640.0;    // [B2] long mode pays L1 handling up front
  lng.commit_ns = 520.0;
  lng.read_ns = 8.0;       // [B2] L1-resident -> cheaper per access
  lng.write_ns = 9.0;
  lng.abort_ns = 1900.0;
  lng.other_abort_per_us = 0.004;
  lng.smt_evict_per_line = 1.0e-6;
  lng.conflict_granularity_bytes = 8;
  lng.write_capacity = CacheGeometry{64, 1024, 16};  // 16384-line budget
  lng.read_capacity_lines = 65536;

  m.htm_costs_[static_cast<int>(HtmKind::kBgqShort)] = shrt;
  m.htm_costs_[static_cast<int>(HtmKind::kBgqLong)] = lng;
  m.supported_htm = {HtmKind::kBgqShort, HtmKind::kBgqLong};

  // 5D torus + PAMI. [N1]
  m.net.overhead_ns = 900.0;
  m.net.latency_ns = 1800.0;
  m.net.byte_ns = 0.56;           // ~1.8 GB/s per link
  m.net.rmw_issue_ns = 350.0;     // PAMI_Rmw is deeply pipelined
  m.net.rmw_latency_ns = 3000.0;
  m.net.am_dispatch_ns = 800.0;   // PAMI's lean AM dispatch path

  // Canned fault calibration: BG/Q already injects "other" aborts at a
  // high base rate (Table 3c), so the storm adds relatively less; the
  // torus has long links (larger RTO) and CNK's gang scheduling makes
  // whole-node brown-outs the realistic slowdown mode.
  m.fault.storm_rate_per_us = 0.3;
  m.fault.straggler_fraction = 0.125;  // 64 threads: still 8 stragglers
  m.fault.net_rto_ns = 3.0 * (m.net.latency_ns + m.net.am_dispatch_ns);
  m.fault.net_rto_cap_ns = 8.0 * m.fault.net_rto_ns;
  return m;
}

}  // namespace

const MachineConfig& bgq() {
  static const MachineConfig m = make_bgq();
  return m;
}

const MachineConfig& has_c() {
  static const MachineConfig m = make_has_c();
  return m;
}

const MachineConfig& has_p() {
  static const MachineConfig m = make_has_p();
  return m;
}

namespace {

constexpr std::pair<const char*, const MachineConfig& (*)()> kNames[] = {
    {"BGQ", bgq},    {"bgq", bgq},     {"Has-C", has_c}, {"has-c", has_c},
    {"hasc", has_c}, {"Has-P", has_p}, {"has-p", has_p}, {"hasp", has_p},
};

}  // namespace

const MachineConfig& machine_by_name(const std::string& name) {
  for (const auto& [alias, machine] : kNames) {
    if (name == alias) return machine();
  }
  AAM_CHECK_MSG(false, "unknown machine name (use BGQ, Has-C, Has-P)");
}

const std::vector<std::string>& machine_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& entry : kNames) out.emplace_back(entry.first);
    return out;
  }();
  return names;
}

}  // namespace aam::model
