#pragma once

// Self-test fixture for tools/lint_operators.sh: the lint must REJECT this
// file (exit 1, pass 6). A component that writes its checkpoint fields
// with a BlobWriter and reads them back with a BlobReader lists them twice;
// the two lists drift apart silently. BlobWriter spelled inside comments
// must NOT trip the pass; the uncommented uses below must.

#include <cstdint>

#include "util/blob.hpp"

namespace lint_fixture {

class HandPaired {
 public:
  /* A block comment naming util::BlobReader is fine. */
  void save(aam::util::BlobWriter& w) const {
    w.put(count_);
    w.put<std::uint8_t>(done_ ? 1 : 0);
  }
  void restore(aam::util::BlobReader& r) {
    count_ = r.get<std::uint64_t>();
    done_ = r.get<std::uint8_t>() != 0;
  }

 private:
  std::uint64_t count_ = 0;
  bool done_ = false;
};

}  // namespace lint_fixture
