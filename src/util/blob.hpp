#pragma once

// Flat binary serialization for checkpoint snapshots (src/recovery/).
//
// BlobWriter appends trivially-copyable values and length-prefixed
// vectors/strings to a byte buffer; BlobReader consumes them in the same
// order. The format is positional (no tags): writer and reader are always
// the same code revision — snapshots live only inside one process run —
// so self-description would buy nothing. What the format *does* guard is
// truncation: every read checks the remaining length and aborts loudly on
// a short buffer, so a torn snapshot can never be half-applied.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace aam::util {

class BlobWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "blobs hold trivially-copyable data only");
    append(&value, sizeof(T));
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

  void put_bytes(const void* data, std::size_t len) {
    put<std::uint64_t>(len);
    append(data, len);
  }

  void put_string(const std::string& s) { put_bytes(s.data(), s.size()); }

  /// Appends each value in order: vectors as put_vector, the rest as put.
  /// BlobReader::get_all reads them back.
  template <typename... Ts>
  void put_all(const Ts&... values) {
    (put_one(values), ...);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  /// Out of line: inlined into a fresh writer's callers, the vector growth
  /// draws false -Wstringop-overflow / -Warray-bounds reports from GCC 12
  /// at -O3.
  void append(const void* data, std::size_t len);

  template <typename T>
  void put_one(const T& value) {
    put(value);
  }
  template <typename T>
  void put_one(const std::vector<T>& v) {
    put_vector(v);
  }

  std::vector<std::uint8_t> bytes_;
};

class BlobReader {
 public:
  BlobReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit BlobReader(const std::vector<std::uint8_t>& bytes)
      : BlobReader(bytes.data(), bytes.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    AAM_CHECK_MSG(sizeof(T) <= len_ - pos_, "truncated snapshot blob");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = get<std::uint64_t>();
    // Divide, not multiply: a hostile length prefix cannot wrap n * sizeof(T).
    AAM_CHECK_MSG(n <= (len_ - pos_) / sizeof(T), "truncated snapshot blob");
    std::vector<T> v(n);
    // An empty vector's data() may be null, which memcpy must not get.
    if (n != 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Copies a length-prefixed byte run into `out` (must hold `expect`
  /// bytes); aborts if the stored length differs from `expect`.
  void get_bytes_into(void* out, std::size_t expect) {
    const std::uint64_t n = get<std::uint64_t>();
    AAM_CHECK_MSG(n == expect, "snapshot byte-run length mismatch");
    AAM_CHECK_MSG(n <= len_ - pos_, "truncated snapshot blob");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::string get_string() {
    const std::uint64_t n = get<std::uint64_t>();
    AAM_CHECK_MSG(n <= len_ - pos_, "truncated snapshot blob");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Reads back what BlobWriter::put_all wrote, into the same fields.
  template <typename... Ts>
  void get_all(Ts&... values) {
    (get_one(values), ...);
  }

  bool exhausted() const { return pos_ == len_; }
  std::size_t remaining() const { return len_ - pos_; }

 private:
  template <typename T>
  void get_one(T& value) {
    value = get<T>();
  }
  template <typename T>
  void get_one(std::vector<T>& v) {
    v = get_vector<T>();
  }
  // A stored byte other than 0 or 1 is no valid bool: normalize it.
  void get_one(bool& value) { value = get<std::uint8_t>() != 0; }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace aam::util
