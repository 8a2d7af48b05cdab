#pragma once

// Self-test fixture for tools/lint_operators.sh: the lint must ACCEPT this
// file (exit 0). The component lists its checkpoint fields once, in
// durable(util::BlobIo&), which saves them to a BlobWriter and restores
// them from a BlobReader (named only in these comments).

#include <cstdint>
#include <vector>

#include "util/blob.hpp"

namespace lint_fixture {

class OneFieldList {
 public:
  void durable(aam::util::BlobIo& io) { io(count_, done_, items_); }

 private:
  std::uint64_t count_ = 0;
  bool done_ = false;
  std::vector<std::uint64_t> items_;
};

}  // namespace lint_fixture
