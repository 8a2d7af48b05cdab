#pragma once

// Online selection of the coarsening factor M (§7).
//
// The paper leaves runtime M selection as future work but sketches the
// mechanism: the exhaustive offline analysis (§5.5) shows that runtime
// per processed vertex is U-shaped in M — too small wastes begin/commit
// overhead, too large drowns in aborts/serializations. This controller
// climbs that curve online with multiplicative-increase /
// multiplicative-decrease on the observed abort rate.
//
// Under a sustained abort storm, plain MIMD oscillates: the controller
// shrinks, the storm pauses, it doubles straight back up and is punished
// again. An `escalated` outcome (a thread hit the engine's livelock
// watermark, htm::ResilienceConfig) therefore switches the controller into
// a cooldown regime: M drops to the minimum, stays pinned for
// kCooldownWindows decisions, and then re-grows only after
// kGrowHysteresis consecutive calm windows per doubling, until the
// pre-escalation M is restored and normal control resumes. Clean runs
// never see an escalated outcome and behave exactly as before.

#include <algorithm>
#include <cstdint>

#include "htm/abort.hpp"
#include "util/blob.hpp"

namespace aam::core {

class AdaptiveBatch {
 public:
  static constexpr int kMinBatch = 1;
  static constexpr int kMaxBatch = 512;
  static constexpr int kInitialBatch = 8;
  /// Abort-rate thresholds (aborts per completed activity) in a window:
  /// below kLowWater M grows (overhead-bound regime), above kHighWater it
  /// shrinks (abort-bound regime).
  static constexpr double kLowWater = 0.02;
  static constexpr double kHighWater = 0.25;
  static constexpr int kWindow = 64;  ///< activities per adjustment decision
  /// Cooldown regime entered on an escalated outcome: windows pinned at
  /// kMinBatch before re-growth may begin.
  static constexpr int kCooldownWindows = 4;
  /// Calm (below-kLowWater) windows required per doubling while
  /// recovering from an escalation.
  static constexpr int kGrowHysteresis = 2;

  /// Feed the outcome of one completed activity.
  void record(const htm::TxnOutcome& outcome) {
    if (outcome.escalated) {
      // Livelock escalation: degrade immediately (mid-window) and restart
      // the cooldown clock; repeated escalations keep M pinned.
      if (!recovering_) {
        recovering_ = true;
        restore_target_ = batch_;
      }
      batch_ = kMinBatch;
      cooldown_left_ = kCooldownWindows;
      calm_windows_ = 0;
    }
    ++activities_;
    aborts_ += outcome.aborts;
    if (outcome.serialized) ++serialized_;
    if (activities_ < kWindow) return;

    const double rate = static_cast<double>(aborts_ + 4 * serialized_) /
                        static_cast<double>(activities_);
    if (recovering_) {
      decide_recovering(rate);
    } else if (rate > kHighWater) {
      batch_ = std::max(kMinBatch, batch_ / 2);
    } else if (rate < kLowWater) {
      batch_ = std::min(kMaxBatch, batch_ * 2);
    }
    activities_ = 0;
    aborts_ = 0;
    serialized_ = 0;
  }

  int batch() const { return batch_; }
  /// True while in the post-escalation cooldown/re-growth regime.
  bool recovering() const { return recovering_; }

  /// Checkpoint support (src/recovery/): the controller's full decision
  /// state, so a restored run re-climbs the M curve identically.
  void durable(util::BlobIo& io) {
    io(batch_, activities_, aborts_, serialized_, recovering_,
       restore_target_, cooldown_left_, calm_windows_);
  }

 private:
  void decide_recovering(double rate) {
    if (rate > kHighWater) {
      // Still stormy: hold at min and restart the cooldown clock.
      batch_ = kMinBatch;
      cooldown_left_ = kCooldownWindows;
      calm_windows_ = 0;
      return;
    }
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      return;
    }
    calm_windows_ = rate < kLowWater ? calm_windows_ + 1 : 0;
    if (calm_windows_ >= kGrowHysteresis) {
      calm_windows_ = 0;
      batch_ = std::min({batch_ * 2, restore_target_, kMaxBatch});
      if (batch_ >= restore_target_) recovering_ = false;
    }
  }

  int batch_ = kInitialBatch;
  long activities_ = 0;
  long aborts_ = 0;
  long serialized_ = 0;
  // Cooldown state (inactive in clean runs).
  bool recovering_ = false;
  int restore_target_ = 0;   ///< M to climb back to after the storm
  int cooldown_left_ = 0;    ///< windows still pinned at kMinBatch
  int calm_windows_ = 0;     ///< consecutive calm windows seen so far
};

}  // namespace aam::core
