#pragma once

// Shard layer of the parallel DES backend.
//
// A *shard* is one self-contained slice of simulated work — an entire
// DesMachine (or Cluster) with its own SimHeap, event queue, and RNG
// streams — that the host can execute on a worker thread of its own.
// Shard identity is a thread-local ShardId installed by ShardGuard while
// a shard's job runs. Engine-side structures (EventQueue) can bind to the
// shard that owns them and reject accesses from foreign shards, so a
// cross-shard mutation bug fails deterministically instead of racing.
//
// Host-thread configuration (--host-threads=N) also lives here so the
// bench layer and the engines agree on one setting. N=1 is the strict
// sequential mode: runners execute inline on the caller with no thread
// machinery at all.

#include <cstdint>
#include <optional>
#include <string_view>

namespace aam::sim {

using ShardId = std::uint32_t;
inline constexpr ShardId kNoShard = 0xffffffffu;

/// The shard whose job is running on this host thread (kNoShard outside
/// any shard job, e.g. on the legacy single-threaded path).
ShardId current_shard();

/// RAII installer for the thread-local shard identity; restores the
/// previous identity on destruction (shard jobs never nest in practice,
/// but the guard composes anyway).
class ShardGuard {
 public:
  explicit ShardGuard(ShardId id);
  ~ShardGuard();
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  ShardId prev_;
};

/// Host worker threads the parallel backend may use (>= 1). Defaults to 1
/// (sequential) until set_host_threads() is called; the AAM_HOST_THREADS
/// environment variable, when set, provides the initial value so test
/// binaries can be swept without new flags. A value parse_host_threads
/// rejects exits 2 with a diagnostic naming the variable.
int host_threads();
void set_host_threads(int n);
/// Upper bound for "--host-threads=max": the host's hardware concurrency
/// (at least 1 even when the runtime reports 0).
int max_host_threads();

/// Largest numeric host-thread count parse_host_threads accepts.
inline constexpr int kMaxHostThreads = 1024;
/// What parse_host_threads accepts, for diagnostics.
inline constexpr const char* kHostThreadsSyntax =
    "expected an integer in [1, 1024] or \"max\"";

/// Parses a host-thread count for --host-threads and AAM_HOST_THREADS:
/// "max" (max_host_threads()) or a decimal integer in [1, kMaxHostThreads].
/// nullopt for anything else: empty, trailing characters, zero, negative
/// or out of range.
std::optional<int> parse_host_threads(std::string_view text);

}  // namespace aam::sim
