#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aam::sim {

void EventQueue::sift_up(std::size_t i) {
  const Slot e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(e.key < heap_[parent].key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i, const Slot& e) {
  const std::size_t n = heap_.size();
  Slot* h = heap_.data();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t child;
    if (first + 3 < n) {
      // Full family: min of four as a tournament of index selects, which
      // compile to conditional moves rather than mispredicted branches.
      const std::size_t a = first + (h[first + 1].key < h[first].key);
      const std::size_t b = first + 2 + (h[first + 3].key < h[first + 2].key);
      child = h[b].key < h[a].key ? b : a;
    } else {
      child = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (h[c].key < h[child].key) child = c;
      }
    }
    if (!(h[child].key < e.key)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = e;
}

void EventQueue::repair_hole() {
  hole_ = false;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

Time Backoff::window(int attempt) const {
  Time w = base_;
  for (int i = 0; i < attempt && w < max_; ++i) w *= 2.0;
  return std::min(w, max_);
}

Time Backoff::wait(int attempt, double u01) const {
  const Time w = window(attempt);
  // (0, w]: never zero, so two conflicting parties cannot retry in lockstep.
  return w * (1.0 - u01 * 0.999);
}

}  // namespace aam::sim
