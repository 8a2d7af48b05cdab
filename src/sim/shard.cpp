#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "util/check.hpp"

namespace aam::sim {

namespace {

thread_local ShardId t_current_shard = kNoShard;

std::atomic<int> g_host_threads{0};  // 0 = not yet initialised

int initial_host_threads() {
  if (const char* env = std::getenv("AAM_HOST_THREADS"); env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) {
      return static_cast<int>(std::min<long>(v, 1024));
    }
  }
  return 1;
}

}  // namespace

ShardId current_shard() { return t_current_shard; }

ShardGuard::ShardGuard(ShardId id) : prev_(t_current_shard) {
  t_current_shard = id;
}

ShardGuard::~ShardGuard() { t_current_shard = prev_; }

int host_threads() {
  int v = g_host_threads.load(std::memory_order_relaxed);
  if (v == 0) {
    v = initial_host_threads();
    g_host_threads.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_host_threads(int n) {
  AAM_CHECK_MSG(n >= 1, "--host-threads must be >= 1");
  g_host_threads.store(n, std::memory_order_relaxed);
}

int max_host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace aam::sim
