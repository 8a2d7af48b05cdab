#pragma once

// Fault-injection seam and self-healing knobs of the DES engine.
//
// The engine only *counts* what actually happened (the abort.hpp contract:
// counters are exact, never synthesized), so injected faults enter through
// a hook that the engine consults at well-defined points:
//
//   * inject_other_abort() — once per successful speculative body run,
//     before the machine's own Poisson "other"-abort model. A true return
//     turns that attempt into exactly one observed kOther abort, so the
//     injector's own count always equals the observed delta.
//   * slowdown() — a multiplicative factor (>= 1) applied to a thread's
//     elapsed virtual time; stragglers and node brown-outs are windows
//     where the factor exceeds 1.
//
// The hardening side lives in ResilienceConfig: a per-thread consecutive-
// abort watermark that escalates livelocked threads to the irrevocable
// path (and flags the outcome so AdaptiveBatch can enter its cooldown
// regime), and a global progress watchdog that turns a stalled simulation
// into a structured StallError instead of an endless event loop.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace aam::util {
class BlobIo;
}  // namespace aam::util

namespace aam::htm {

class DesMachine;

/// Injection interface consulted by DesMachine when installed (see
/// DesMachine::set_fault_hook). Implemented by fault::FaultInjector; all
/// randomness must come from streams forked off the simulation seed so the
/// fault schedule is bit-reproducible.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Consulted after a speculative body ran to completion. Return true to
  /// abort the attempt with AbortReason::kOther; `frac_out` (in [0, 1))
  /// selects how far into the attempt the abort strikes.
  virtual bool inject_other_abort(std::uint32_t tid, double start_ns,
                                  double duration_ns, double& frac_out) = 0;

  /// Multiplicative slowdown (>= 1.0) for `tid` around virtual time
  /// `now_ns`. 1.0 = full speed.
  virtual double slowdown(std::uint32_t tid, double now_ns) = 0;

  /// Consulted once per completed activity (the engine's finish_txn seam,
  /// i.e. "mid-batch") and once per dispatched event boundary (so
  /// non-speculative mechanisms without transactional completions crash
  /// too). Return true to crash-stop the machine at `now_ns`: the engine
  /// throws CrashError, dropping all volatile state; a registered
  /// RecoveryClient then restores from the last checkpoint.
  /// Default: never crash, so existing hooks are unaffected.
  virtual bool inject_crash(std::uint32_t tid, double now_ns) {
    (void)tid;
    (void)now_ns;
    return false;
  }
};

/// Runtime-hardening configuration (DesMachine::set_resilience). The
/// defaults are calibrated to be invisible in fault-free runs: the retry
/// policies cap per-transaction abort streaks at max_retries + 2 << 32,
/// and commits arrive many orders of magnitude more often than once per
/// simulated second.
struct ResilienceConfig {
  /// Consecutive aborts on one thread — across activities, reset by any
  /// completion — before the thread escalates to irrevocable
  /// serialization and the activity's outcome is flagged `escalated`.
  /// 0 disables livelock detection.
  int livelock_watermark = 32;
  /// Simulated nanoseconds without any activity completing, while at
  /// least one transaction is in flight, before the watchdog throws
  /// StallError. 0 disables the watchdog.
  double watchdog_ns = 1e9;
};

/// What the watchdog saw when it declared the simulation stalled.
struct StallDiagnostic {
  double now_ns = 0;            ///< virtual time of the detection
  double last_progress_ns = 0;  ///< virtual time of the last completion
  int inflight_txns = 0;        ///< activities started but not completed
  std::uint32_t worst_tid = 0;  ///< thread with the longest abort streak
  int worst_streak = 0;         ///< that thread's consecutive aborts
  std::uint64_t events_processed = 0;
  /// In-flight cluster messages at detection time (0 when the machine is
  /// not the substrate of a net::Cluster, or no RecoveryClient reports).
  std::uint64_t inflight_messages = 0;
  /// Id of the last checkpoint taken before the stall (0 = none): a hung
  /// *recovery* is then diagnosable from the exception alone.
  std::uint64_t last_checkpoint_id = 0;

  std::string to_string() const;
};

/// Thrown out of DesMachine::run() by the progress watchdog. Carries the
/// structured diagnostic; what() renders it for logs.
class StallError : public std::runtime_error {
 public:
  explicit StallError(StallDiagnostic d)
      : std::runtime_error(d.to_string()), diagnostic(d) {}
  StallDiagnostic diagnostic;
};

/// What the crash injector saw when it killed the machine.
struct CrashDiagnostic {
  double now_ns = 0;        ///< virtual time of the crash
  std::uint32_t tid = 0;    ///< thread whose completion triggered it
  std::uint64_t events_processed = 0;

  std::string to_string() const;
};

/// Thrown out of DesMachine::run() when FaultHook::inject_crash fires and
/// no RecoveryClient is installed (an unrecoverable crash). With a client
/// installed the engine recovers in place and never surfaces this.
class CrashError : public std::runtime_error {
 public:
  explicit CrashError(CrashDiagnostic d)
      : std::runtime_error(d.to_string()), diagnostic(d) {}
  CrashDiagnostic diagnostic;
};

/// Host-side durable state a component contributes to every checkpoint:
/// one field list (see util::BlobIo) that saves the component's fields at
/// a checkpoint and restores them, in the same order, after a crash.
/// Registered via RecoveryClient::register_host_state; registrations run
/// in registration order in both directions.
using HostState = std::function<void(util::BlobIo&)>;

/// Receiver of droppable events (DesMachine::schedule_droppable): events
/// whose loss in a crash-restore is safe because the sink re-derives them
/// from its own checkpointed state. Implemented by net::Cluster, whose
/// reliable-delivery protocol schedules its deliveries, acks and
/// retransmit timers this way; the payload is the sink's own encoding.
class DroppableSink {
 public:
  virtual ~DroppableSink() = default;
  virtual void on_droppable(std::uint64_t payload) = 0;
};

/// The engine's view of the recovery subsystem (implemented by
/// recovery::RecoveryManager). The DesMachine calls the checkpoint hooks
/// at safe instants and on_crash when a FaultHook kills the machine; the
/// client decides whether a checkpoint is due and performs restores.
class RecoveryClient {
 public:
  virtual ~RecoveryClient() = default;

  /// run() entered the event loop (always a safe instant: no
  /// transactions in flight yet this run).
  virtual void on_run_entry(DesMachine& machine) = 0;

  /// run() drained the queue and is about to consult the quiescence hook.
  virtual void on_quiescence(DesMachine& machine) = 0;

  /// step() is at an event boundary and the machine reports it safe
  /// (no in-flight txns, no callbacks pending).
  virtual void on_event_boundary(DesMachine& machine) = 0;

  /// A crash fired. Return true after restoring the machine from the last
  /// checkpoint (the engine resumes its event loop); false to propagate
  /// the CrashError (no checkpoint available).
  virtual bool on_crash(DesMachine& machine, const CrashDiagnostic& d) = 0;

  /// Registers host-side durable state; returns a token for unregister.
  virtual std::uint64_t register_host_state(HostState durable) = 0;
  virtual void unregister_host_state(std::uint64_t token) = 0;

  /// Telemetry surfaced into StallDiagnostic.
  virtual std::uint64_t last_checkpoint_id() const = 0;
  virtual std::uint64_t inflight_messages() const = 0;
};

/// RAII registration of one component's host state with a client. A null
/// client makes the registration a no-op, so call sites can bind
/// unconditionally and stay inert in non-recovery runs.
class ScopedHostState {
 public:
  ScopedHostState(RecoveryClient* client, HostState durable)
      : client_(client) {
    if (client_) token_ = client_->register_host_state(std::move(durable));
  }
  ~ScopedHostState() {
    if (client_) client_->unregister_host_state(token_);
  }
  ScopedHostState(const ScopedHostState&) = delete;
  ScopedHostState& operator=(const ScopedHostState&) = delete;

 private:
  RecoveryClient* client_ = nullptr;
  std::uint64_t token_ = 0;
};

}  // namespace aam::htm
