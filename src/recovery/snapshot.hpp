#pragma once

// In-sim checkpoint snapshots with a chained integrity digest.
//
// A Snapshot is a set of tagged sections (engine core, heap bytes,
// host-side component state, network protocol state) sealed into one byte
// buffer. The seal appends a chained digest folded over the header and
// every section in order — FNV-1a's xor-multiply step taken a 64-bit word
// at a time — and each section records its own running digest value, so
// verification pinpoints *where* a snapshot was torn:
// any truncation, bit flip, or reordering fails open() before a single
// byte is applied to the machine. Recovery therefore either restores a
// bit-exact checkpoint or refuses loudly — never a half-applied one.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace aam::recovery {

class Snapshot {
 public:
  enum Tag : std::uint32_t { kCore = 1, kHeap = 2, kHost = 3, kNet = 4 };

  struct Section {
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> bytes;
  };

  void add_section(std::uint32_t tag, std::vector<std::uint8_t> bytes);

  /// The section with `tag`, or nullptr if absent.
  const std::vector<std::uint8_t>* find(std::uint32_t tag) const;

  /// Serializes header + sections + chained digest into one buffer.
  std::vector<std::uint8_t> seal(std::uint64_t checkpoint_id,
                                 double now_ns) const;

  /// Parses and verifies a sealed buffer. Returns nullopt — with a
  /// human-readable reason in `error` — on any truncation or digest
  /// mismatch; a returned Snapshot is bit-exact.
  static std::optional<Snapshot> open(const std::vector<std::uint8_t>& sealed,
                                      std::string* error);

  std::uint64_t checkpoint_id() const { return checkpoint_id_; }
  double now_ns() const { return now_ns_; }
  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::uint64_t checkpoint_id_ = 0;
  double now_ns_ = 0;
  std::vector<Section> sections_;
};

}  // namespace aam::recovery
