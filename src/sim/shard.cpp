#include "sim/shard.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/check.hpp"

namespace aam::sim {

namespace {

thread_local ShardId t_current_shard = kNoShard;

std::atomic<int> g_host_threads{0};  // 0 = not yet initialised

int initial_host_threads() {
  const char* env = std::getenv("AAM_HOST_THREADS");
  if (env == nullptr) return 1;
  const std::optional<int> n = parse_host_threads(env);
  if (!n.has_value()) {
    std::fprintf(stderr, "invalid AAM_HOST_THREADS=%s; %s\n", env,
                 kHostThreadsSyntax);
    std::exit(2);
  }
  return *n;
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

std::optional<int> parse_host_threads(std::string_view text) {
  if (text == "max") return max_host_threads();
  int n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc{} || ptr != end || n < 1 || n > kMaxHostThreads) {
    return std::nullopt;
  }
  return n;
}

}  // namespace aam::sim
