#pragma once

// Abstract interpretation of operator bodies (the static half of the
// footprint story; see DESIGN.md §7).
//
// The templated operators of algorithms/operators.hpp are instantiated
// once more here — besides the access types of core/executor_impl.hpp —
// with AbstractAccess: an access surface that never touches committed
// state. Loads of "symbolic" regions return one of a
// small candidate set (the abstract domain: concrete representative
// values per control-flow class), cas outcomes fork, and every explored
// path records the distinct elements it reads/writes per region. The
// union over all paths is the operator's may-read/may-write effect set;
// the maximum over paths is its per-invocation footprint bound.
//
// Path enumeration is exhaustive DFS driven by a decision oracle: the
// interpreter replays the operator once per path, forcing a recorded
// choice prefix and defaulting every decision beyond it to choice 0.
// By convention candidate 0 of every decision terminates the enclosing
// loop, so the default path always ends. Unbounded loops (the sssp_relax
// retry, the uf_root chain walk) are cut by bounded widening: each path
// may take at most `Params::chain` non-terminating choices; past that
// budget only terminating candidates are offered and the result is
// flagged `widened` (the footprint is then exact only up to the bound,
// and linear extrapolation over the bound recovers the general form —
// see signature.cpp).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/executor_impl.hpp"
#include "util/check.hpp"

namespace aam::analysis {

/// Element classes within a region, relative to the probe layout: the
/// operator's own element (kSelf), the second explicit argument element
/// (kPeer, e.g. uf_union's v), elements reached through the probe graph's
/// adjacency (kNeighbor), and elements materialized by widened pointer
/// walks (kChain).
enum class IndexClass : std::uint8_t { kSelf = 0, kPeer, kNeighbor, kChain };
inline constexpr std::size_t kNumIndexClasses = 4;

const char* to_string(IndexClass c);

class Interpreter;

/// One load candidate: the bit pattern the load may observe. kLoop and
/// kChainAlloc candidates are non-terminating (they keep an enclosing
/// loop alive) and consume the path's widening budget when picked;
/// kChainAlloc additionally materializes the region's next chain element.
struct Candidate {
  enum class Kind : std::uint8_t { kPlain, kLoop, kChainAlloc };
  std::uint64_t bits = 0;
  Kind kind = Kind::kPlain;
};

/// A region: a small concrete host array standing in for one simulated
/// heap allocation the operator may touch.
struct Region {
  std::string name;   ///< display name (distinguishes same-label arrays)
  std::string label;  ///< SimHeap allocation label the algorithm uses
  const std::byte* base = nullptr;
  std::size_t elem_bytes = 0;
  std::size_t count = 0;
  /// True when concurrent writers are modelled: loads consult the
  /// candidate provider and cas outcomes fork. False = loads return the
  /// concrete backing and cas compares against it deterministically.
  bool symbolic = false;
  /// First element index of the chain area (kChainAlloc candidates).
  std::size_t chain_base = 0;
  std::function<IndexClass(std::size_t index)> classify;
  /// Appends the load candidates for element `index`. Candidate 0 must
  /// terminate the enclosing loop (see header comment). Unset or empty
  /// output = concrete load.
  std::function<void(Interpreter&, std::size_t index,
                     std::vector<Candidate>& out)>
      candidates;
};

/// Exhaustive path enumerator + effect recorder. One Interpreter analyzes
/// one operator invocation shape; regions are registered once, then
/// enumerate() explores every path.
class Interpreter {
 public:
  struct Params {
    int degree = 2;  ///< d: neighbor count of the probe graph
    int chain = 2;   ///< widening bound: non-terminating choices per path
    int max_paths = 1 << 16;
  };

  struct RegionEffect {
    std::string name;
    std::string label;
    /// Max distinct elements touched per path, split by class and total.
    std::size_t reads[kNumIndexClasses] = {};
    std::size_t writes[kNumIndexClasses] = {};
    std::size_t total_reads = 0;
    std::size_t total_writes = 0;
  };

  explicit Interpreter(Params params) : params_(params) {}

  int register_region(Region region) {
    AAM_CHECK(region.base != nullptr && region.elem_bytes > 0 &&
              region.count > 0);
    regions_.push_back(std::move(region));
    effects_.push_back(RegionEffect{regions_.back().name,
                                    regions_.back().label});
    path_reads_.emplace_back();
    path_writes_.emplace_back();
    may_reads_.emplace_back();
    may_writes_.emplace_back();
    chain_next_.push_back(regions_.back().chain_base);
    return static_cast<int>(regions_.size()) - 1;
  }

  /// Runs `body` (one operator invocation against an AbstractAccess built
  /// over this interpreter) once per control-flow path.
  template <typename Body>
  void enumerate(Body&& body) {
    prefix_.clear();
    paths_ = 0;
    for (;;) {
      begin_path();
      body();
      fold_path();
      ++paths_;
      AAM_CHECK_MSG(paths_ <= static_cast<std::size_t>(params_.max_paths),
                    "abstract interpretation: path explosion");
      // Odometer: advance the deepest decision that still has an untried
      // option; drop everything after it (re-derived on replay).
      std::size_t i = taken_.size();
      while (i > 0 && taken_[i - 1] + 1 >= options_[i - 1]) --i;
      if (i == 0) break;
      prefix_.assign(taken_.begin(),
                     taken_.begin() + static_cast<std::ptrdiff_t>(i));
      ++prefix_[i - 1];
    }
  }

  /// Decision oracle: returns this path's choice in [0, n).
  std::size_t choose(std::size_t n) {
    AAM_CHECK(n >= 1);
    const std::size_t c = cursor_ < prefix_.size() ? prefix_[cursor_] : 0;
    AAM_CHECK(c < n);
    taken_.push_back(c);
    options_.push_back(n);
    ++cursor_;
    return c;
  }

  /// A non-terminating loop candidate, while widening budget remains;
  /// nullopt (and the widened flag) once the budget is exhausted.
  std::optional<Candidate> loop_candidate(std::uint64_t bits) {
    if (budget_used_ >= params_.chain) {
      widened_ = true;
      return std::nullopt;
    }
    return Candidate{bits, Candidate::Kind::kLoop};
  }

  /// A fresh chain element of region `r` (its index as the value), while
  /// widening budget remains and the chain area has room. The element is
  /// materialized only when the candidate is actually picked.
  std::optional<Candidate> chain_candidate(int r) {
    if (budget_used_ >= params_.chain) {
      widened_ = true;
      return std::nullopt;
    }
    const Region& region = regions_[static_cast<std::size_t>(r)];
    const std::size_t next = chain_next_[static_cast<std::size_t>(r)];
    AAM_CHECK_MSG(next < region.count,
                  "chain area smaller than the widening bound");
    return Candidate{next, Candidate::Kind::kChainAlloc};
  }

  const Params& params() const { return params_; }
  bool widened() const { return widened_; }
  std::size_t paths() const { return paths_; }
  const std::vector<RegionEffect>& effects() const { return effects_; }

  /// Union of the element indices read/written across *all* enumerated
  /// paths, per region: the may-read/may-write effect sets. The
  /// schedule-space model checker (src/mc/) consumes these as static
  /// footprints for its DPOR commutativity check; the per-class counts in
  /// effects() keep serving the cost/capacity predictions.
  const std::set<std::size_t>& may_reads(int r) const {
    return may_reads_[static_cast<std::size_t>(r)];
  }
  const std::set<std::size_t>& may_writes(int r) const {
    return may_writes_[static_cast<std::size_t>(r)];
  }

  // --- AbstractAccess support -------------------------------------------

  struct Resolved {
    int region;
    std::size_t index;
  };

  Resolved resolve(const void* p) const {
    const auto* addr = static_cast<const std::byte*>(p);
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      const Region& region = regions_[r];
      if (addr >= region.base &&
          addr < region.base + region.count * region.elem_bytes) {
        return Resolved{static_cast<int>(r),
                        static_cast<std::size_t>(addr - region.base) /
                            region.elem_bytes};
      }
    }
    AAM_CHECK_MSG(false, "operator accessed memory outside every region");
    return Resolved{-1, 0};
  }

  void note_read(int r, std::size_t idx) {
    path_reads_[static_cast<std::size_t>(r)].insert(idx);
  }
  void note_write(int r, std::size_t idx) {
    path_writes_[static_cast<std::size_t>(r)].insert(idx);
  }

  bool is_symbolic(int r) const {
    return regions_[static_cast<std::size_t>(r)].symbolic;
  }

  /// Load candidates for (r, idx); empty = concrete load.
  void candidates_for(int r, std::size_t idx, std::vector<Candidate>& out) {
    out.clear();
    const Region& region = regions_[static_cast<std::size_t>(r)];
    if (region.symbolic && region.candidates) {
      region.candidates(*this, idx, out);
    }
  }

  /// Called when a picked candidate was non-terminating.
  void take_candidate(int r, const Candidate& c) {
    if (c.kind == Candidate::Kind::kPlain) return;
    ++budget_used_;
    if (c.kind == Candidate::Kind::kChainAlloc) {
      ++chain_next_[static_cast<std::size_t>(r)];
    }
  }

  /// cas outcome on a symbolic region: choice 0 = success (terminating);
  /// failure keeps retry loops alive and consumes widening budget. Once
  /// the budget is exhausted the cas is forced to succeed.
  bool cas_fork() {
    if (budget_used_ >= params_.chain) {
      widened_ = true;
      return true;
    }
    const bool ok = choose(2) == 0;
    if (!ok) ++budget_used_;
    return ok;
  }

  bool buffered_load(int r, std::size_t idx, std::uint64_t& bits) const {
    const auto it = write_buffer_.find({r, idx});
    if (it == write_buffer_.end()) return false;
    bits = it->second;
    return true;
  }
  void buffer_store(int r, std::size_t idx, std::uint64_t bits) {
    write_buffer_[{r, idx}] = bits;
  }

 private:
  void begin_path() {
    cursor_ = 0;
    taken_.clear();
    options_.clear();
    budget_used_ = 0;
    write_buffer_.clear();
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      path_reads_[r].clear();
      path_writes_[r].clear();
      chain_next_[r] = regions_[r].chain_base;
    }
  }

  void fold_path() {
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      RegionEffect& eff = effects_[r];
      may_reads_[r].insert(path_reads_[r].begin(), path_reads_[r].end());
      may_writes_[r].insert(path_writes_[r].begin(), path_writes_[r].end());
      std::size_t by_class[kNumIndexClasses] = {};
      for (std::size_t idx : path_reads_[r]) {
        ++by_class[static_cast<std::size_t>(regions_[r].classify(idx))];
      }
      for (std::size_t c = 0; c < kNumIndexClasses; ++c) {
        eff.reads[c] = std::max(eff.reads[c], by_class[c]);
        by_class[c] = 0;
      }
      eff.total_reads = std::max(eff.total_reads, path_reads_[r].size());
      for (std::size_t idx : path_writes_[r]) {
        ++by_class[static_cast<std::size_t>(regions_[r].classify(idx))];
      }
      for (std::size_t c = 0; c < kNumIndexClasses; ++c) {
        eff.writes[c] = std::max(eff.writes[c], by_class[c]);
      }
      eff.total_writes = std::max(eff.total_writes, path_writes_[r].size());
    }
  }

  Params params_;
  std::vector<Region> regions_;
  std::vector<RegionEffect> effects_;

  // Decision oracle state.
  std::vector<std::size_t> prefix_;   ///< forced choices for this path
  std::vector<std::size_t> taken_;    ///< choices actually taken
  std::vector<std::size_t> options_;  ///< option count at each decision
  std::size_t cursor_ = 0;
  std::size_t paths_ = 0;

  // Per-path state.
  int budget_used_ = 0;  ///< non-terminating choices taken (widening)
  std::vector<std::set<std::size_t>> path_reads_;   ///< per region
  std::vector<std::set<std::size_t>> path_writes_;  ///< per region
  // Cross-path unions (may-effect sets), folded alongside the maxima.
  std::vector<std::set<std::size_t>> may_reads_;   ///< per region
  std::vector<std::set<std::size_t>> may_writes_;  ///< per region
  std::vector<std::size_t> chain_next_;             ///< per region
  std::map<std::pair<int, std::size_t>, std::uint64_t> write_buffer_;

  bool widened_ = false;
};

/// The abstract access surface. Satisfies the same typed interface as the
/// fast-path access classes of executor_impl.hpp, so the templated
/// operator bodies instantiate against it unchanged. Writes are buffered
/// per path (read-your-writes); committed backing is never mutated.
class AbstractAccess final {
 public:
  explicit AbstractAccess(Interpreter& interp) : interp_(interp) {}

  template <core::AccessValue T>
  T load(const T& ref) {
    const auto [r, idx] = interp_.resolve(&ref);
    interp_.note_read(r, idx);
    std::uint64_t bits = 0;
    if (interp_.buffered_load(r, idx, bits)) return from_bits<T>(bits);
    interp_.candidates_for(r, idx, cands_);
    if (cands_.empty()) return ref;  // concrete backing
    const std::size_t pick =
        cands_.size() == 1 ? 0 : interp_.choose(cands_.size());
    const Candidate c = cands_[pick];
    interp_.take_candidate(r, c);
    return from_bits<T>(c.bits);
  }

  template <core::AccessValue T>
  void store(T& ref, T value) {
    const auto [r, idx] = interp_.resolve(&ref);
    interp_.note_write(r, idx);
    interp_.buffer_store(r, idx, to_bits(value));
  }

  template <core::AccessValue T>
  bool cas(T& ref, T expect, T desired) {
    const auto [r, idx] = interp_.resolve(&ref);
    interp_.note_read(r, idx);
    bool ok = false;
    std::uint64_t bits = 0;
    if (interp_.buffered_load(r, idx, bits)) {
      ok = from_bits<T>(bits) == expect;  // own write: deterministic
    } else if (interp_.is_symbolic(r)) {
      ok = interp_.cas_fork();  // concurrent writers modelled
    } else {
      ok = ref == expect;
    }
    if (ok) {
      interp_.note_write(r, idx);
      interp_.buffer_store(r, idx, to_bits(desired));
    }
    return ok;
  }

  template <core::AccumValue T>
  T fetch_add(T& ref, T delta) {
    const auto [r, idx] = interp_.resolve(&ref);
    interp_.note_read(r, idx);
    std::uint64_t bits = 0;
    const T old =
        interp_.buffered_load(r, idx, bits) ? from_bits<T>(bits) : ref;
    interp_.note_write(r, idx);
    interp_.buffer_store(r, idx, to_bits(static_cast<T>(old + delta)));
    return old;
  }

  bool transactional() const { return true; }
  void emit(std::uint64_t /*value*/) {}  // emissions carry no footprint

 private:
  template <typename T>
  static T from_bits(std::uint64_t bits) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<double>(bits);
    } else {
      return static_cast<T>(bits);
    }
  }
  template <typename T>
  static std::uint64_t to_bits(T value) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(value);
    } else {
      return static_cast<std::uint64_t>(value);
    }
  }

  Interpreter& interp_;
  std::vector<Candidate> cands_;  // scratch, reused across decisions
};

}  // namespace aam::analysis
