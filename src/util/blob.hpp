#pragma once

// Flat binary serialization for checkpoint snapshots (src/recovery/).
//
// BlobWriter appends trivially-copyable values and length-prefixed
// vectors and byte runs to a byte buffer; BlobReader consumes them in the
// same order. The format is positional (no tags): writer and reader are always
// the same code revision — snapshots live only inside one process run —
// so self-description would buy nothing. What the format *does* guard is
// truncation: every read checks the remaining length and aborts loudly on
// a short buffer, so a torn snapshot can never be half-applied.
//
// Components never pair a writer with a reader by hand. Each one lists its
// checkpointed fields once, in `void durable(util::BlobIo& io)`, and the
// same list saves and restores them (BlobIo below).

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
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
    put<std::uint64_t>(v.size());
    put_span(std::span<const T>(v));
  }

  /// Appends the elements with no length prefix.
  template <typename T>
  void put_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(v.data(), v.size_bytes());
  }

  void put_bytes(const void* data, std::size_t len) {
    put<std::uint64_t>(len);
    append(data, len);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  /// Out of line: inlined into a fresh writer's callers, the vector growth
  /// draws false -Wstringop-overflow / -Warray-bounds reports from GCC 12
  /// at -O3.
  void append(const void* data, std::size_t len);

  std::vector<std::uint8_t> bytes_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), len_(bytes.size()) {}

  template <typename T>
  T get() {
    T value{};
    get_into(value);
    return value;
  }

  template <typename T>
  void get_into(T& value) {
    get_span_into(std::span<T>(&value, 1));
  }

  /// Fills `out` from elements stored with no length prefix.
  template <typename T>
  void get_span_into(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    AAM_CHECK_MSG(out.size() <= (len_ - pos_) / sizeof(T),
                  "truncated snapshot blob");
    // An empty span's data() may be null, which memcpy must not get.
    if (!out.empty()) std::memcpy(out.data(), data_ + pos_, out.size_bytes());
    pos_ += out.size_bytes();
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = get<std::uint64_t>();
    // Divide, not multiply: a hostile length prefix cannot wrap n * sizeof(T).
    AAM_CHECK_MSG(n <= (len_ - pos_) / sizeof(T), "truncated snapshot blob");
    std::vector<T> v(n);
    get_span_into(std::span<T>(v));
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

  bool exhausted() const { return pos_ == len_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// One pass over a component's checkpointed fields that either saves them
/// to a BlobWriter or restores them from a BlobReader, so a component
/// lists its fields once:
///
///   void durable(util::BlobIo& io) {
///     io.each(queues_, "queue count changed since checkpoint");
///     io(stats_, done_, items_);
///   }
///
/// A field is stored as
///   - bool: one byte, 0 or 1 (a restored nonzero byte reads as true);
///   - a type with a `durable(BlobIo&)` member: its own field list;
///   - any other trivially-copyable type: its bytes;
///   - std::vector of a trivially-copyable type: as BlobWriter::put_vector;
///   - std::vector, std::deque, std::set or std::map of other fields: a
///     u64 length, then each element (each key, then its value, for a
///     map).
/// Restoring replaces a container's contents. Steps that only one
/// direction takes (a save-time safety check, dropping volatile state
/// after a restore) branch on saving()/restoring() around the list.
class BlobIo {
 public:
  explicit BlobIo(BlobWriter& writer) : writer_(&writer) {}
  explicit BlobIo(BlobReader& reader) : reader_(&reader) {}

  bool saving() const { return writer_ != nullptr; }
  bool restoring() const { return reader_ != nullptr; }

  /// Saves or restores each field, in order.
  template <typename... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  /// `value` stored as a `Stored` (e.g. an enum in one byte).
  template <typename Stored, typename T>
  void as(T& value) {
    auto stored = static_cast<Stored>(value);
    field(stored);
    if (restoring()) value = static_cast<T>(stored);
  }

  /// Saves `value`; on restore aborts with `what` unless the saved value
  /// equals it. For shapes the checkpoint must not change (thread counts,
  /// which optional parts are attached).
  template <typename T>
  void expect(T value, const char* what) {
    T saved = value;
    field(saved);
    AAM_CHECK_MSG(saved == value, what);
  }

  void count(std::uint64_t n, const char* what) { expect(n, what); }

  /// A container whose size the component fixes: its size as a count()
  /// checked with `what`, then each element in place.
  template <typename C>
  void each(C& container, const char* what) {
    count(container.size(), what);
    for (auto& element : container) field(element);
  }

  /// Trivially-copyable values with no length prefix (the caller stores
  /// the length).
  template <typename T>
  void elements(std::span<T> values) {
    if (saving()) {
      writer_->put_span(std::span<const T>(values));
    } else {
      reader_->get_span_into(values);
    }
  }

 private:
  template <typename T>
  void field(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      if (saving()) {
        writer_->put<std::uint8_t>(value ? 1 : 0);
      } else {
        value = reader_->get<std::uint8_t>() != 0;
      }
    } else if constexpr (requires { value.durable(*this); }) {
      value.durable(*this);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      if (saving()) {
        writer_->put(value);
      } else {
        reader_->get_into(value);
      }
    } else {
      container(value);  // a vector, deque, set or map
    }
  }

  template <typename C>
  void container(C& c) {
    using E = typename C::value_type;
    constexpr bool kMap = requires { typename C::mapped_type; };
    if constexpr (std::is_same_v<C, std::vector<E>> &&
                  std::is_trivially_copyable_v<E>) {
      if (saving()) {
        writer_->put_vector(c);
      } else {
        c = reader_->template get_vector<E>();
      }
    } else if (saving()) {
      writer_->put<std::uint64_t>(c.size());
      // Saving only reads, so the const keys of sets and maps can pass.
      for (auto& element : c) {
        if constexpr (kMap) {
          field(const_cast<typename C::key_type&>(element.first));
          field(element.second);
        } else {
          field(const_cast<E&>(element));
        }
      }
    } else {
      // Element by element: a hostile length runs into the truncation
      // check instead of one huge allocation.
      const auto n = reader_->get<std::uint64_t>();
      c.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        if constexpr (kMap) {
          typename C::key_type key{};
          typename C::mapped_type mapped{};
          field(key);
          field(mapped);
          c.emplace_hint(c.end(), key, std::move(mapped));
        } else {
          E element{};
          field(element);
          c.insert(c.end(), std::move(element));
        }
      }
    }
  }

  BlobWriter* writer_ = nullptr;
  BlobReader* reader_ = nullptr;
};

}  // namespace aam::util
