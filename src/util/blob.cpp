#include "util/blob.hpp"

namespace aam::util {

void BlobWriter::append(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + len);
}

}  // namespace aam::util
