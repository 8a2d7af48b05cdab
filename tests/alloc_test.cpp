// Regression guard on host allocations along the active-message path.
//
// This binary replaces the global operator new/delete with counting
// versions and runs a fault-free distributed PageRank (4 nodes x 4
// threads) twice on one cluster. The second, warm run must stay below one
// host allocation per committed activity: staged transaction closures are
// held inline (htm::TxnBody / TxnDone), batch item buffers are recycled by
// the runtime, and the coalescers keep their buffers' capacity.
//
// A second case runs the same PageRank under lossy-net faults, so every
// message takes the reliable-delivery protocol (sequence numbers, acks,
// retransmit timers, receiver dedup). Its warm run must stay within a few
// host allocations per logical message: protocol events carry no heap
// closure and the pending-send window holds no tree nodes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "algorithms/pagerank_dist.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aam {
namespace {

TEST(AllocationGuard, WarmDistributedPagerankStaysUnderOnePerActivity) {
  util::Rng rng(5);
  graph::KroneckerParams params;
  params.scale = 11;
  params.edge_factor = 8;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Block1D part(g.num_vertices(), 4);
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, 4, 4, heap);
  algorithms::DistPrOptions options;
  options.iterations = 3;

  // Cold run: sizes the engine's and cluster's long-lived containers.
  const auto cold = algorithms::run_distributed_pagerank(cluster, g, part,
                                                         options);
  const std::uint64_t before = g_allocations.load();
  const auto warm = algorithms::run_distributed_pagerank(cluster, g, part,
                                                         options);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_GT(cold.stats.committed, 0u);
  const std::uint64_t activities = warm.stats.committed;
  ASSERT_GT(activities, 1000u);
  const double per_activity =
      static_cast<double>(allocations) / static_cast<double>(activities);
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("activities", static_cast<int>(activities));
  std::printf("alloc_test: %llu allocations / %llu activities = %.3f\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(activities), per_activity);
  EXPECT_LT(per_activity, 1.0)
      << allocations << " allocations for " << activities
      << " committed activities";
}

TEST(AllocationGuard, WarmLossyDistributedPagerankStaysUnderThreePerMessage) {
  util::Rng rng(5);
  graph::KroneckerParams params;
  params.scale = 11;
  params.edge_factor = 8;
  const graph::Graph g = graph::kronecker(params, rng);
  const graph::Block1D part(g.num_vertices(), 4);
  mem::SimHeap heap;
  net::Cluster cluster(model::bgq(), model::HtmKind::kBgqShort, 4, 4, heap);
  fault::FaultInjector injector(
      fault::parse("lossy-net", model::bgq().fault), 5, 16, 4);
  injector.attach(cluster);
  algorithms::DistPrOptions options;
  options.iterations = 3;

  const auto cold = algorithms::run_distributed_pagerank(cluster, g, part,
                                                         options);
  const std::uint64_t before = g_allocations.load();
  const auto warm = algorithms::run_distributed_pagerank(cluster, g, part,
                                                         options);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_GT(warm.net.retransmitted, cold.net.retransmitted);
  const std::uint64_t messages =
      warm.net.messages_sent - cold.net.messages_sent;
  ASSERT_GT(messages, 1000u);
  const double per_message =
      static_cast<double>(allocations) / static_cast<double>(messages);
  std::printf("alloc_test: %llu allocations / %llu messages = %.3f\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(messages), per_message);
  EXPECT_LE(per_message, 3.0)
      << allocations << " allocations for " << messages << " messages";
}

}  // namespace
}  // namespace aam
