#include "recovery/snapshot.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

namespace aam::recovery {
namespace {

constexpr std::uint64_t kMagic = 0x61616d2d636b7074ULL;  // "aam-ckpt"
constexpr std::uint32_t kVersion = 2;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// One digest step: FNV-1a's xor-then-multiply over a whole word, with a
/// rotation between so high bits reach the low ones. For a fixed word each
/// step is a bijection of the state, and for a fixed state a bijection of
/// the word, so a change to any one word of the input changes the digest.
std::uint64_t step(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h ^ word, 29) * kFnvPrime;
}

/// Folds `len` bytes into the running digest: each 8-byte word (native
/// byte order), then the tail of fewer than 8 bytes zero-extended into one
/// more word. The byte counts come before the bytes in every snapshot, so
/// the zero extension cannot alias a longer input.
void fold(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t acc = h;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    acc = step(acc, word);
  }
  if (i < len) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, len - i);
    acc = step(acc, word);
  }
  h = acc;
}

template <typename T>
void append(std::vector<std::uint8_t>& out, std::uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
  fold(h, p, sizeof(T));
}

/// Reads a T at `pos`, folding it into the running digest. Returns false
/// (and leaves `err`) if the buffer is too short.
template <typename T>
bool read(const std::vector<std::uint8_t>& in, std::size_t& pos,
          std::uint64_t& h, T& v, std::string* err) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (in.size() - pos < sizeof(T) || pos > in.size()) {
    if (err != nullptr) *err = "snapshot truncated mid-field";
    return false;
  }
  std::memcpy(&v, in.data() + pos, sizeof(T));
  fold(h, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

void Snapshot::add_section(std::uint32_t tag, std::vector<std::uint8_t> bytes) {
  sections_.push_back(Section{tag, std::move(bytes)});
}

const std::vector<std::uint8_t>* Snapshot::find(std::uint32_t tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return &s.bytes;
  }
  return nullptr;
}

std::vector<std::uint8_t> Snapshot::seal(std::uint64_t checkpoint_id,
                                         double now_ns) const {
  // Reserve the whole buffer first, so each section is written once.
  std::size_t size = sizeof(kMagic) + sizeof(kVersion) +
                     sizeof(checkpoint_id) + sizeof(now_ns) +
                     2 * sizeof(std::uint64_t);
  for (const Section& s : sections_) {
    size += sizeof(s.tag) + 2 * sizeof(std::uint64_t) + s.bytes.size();
  }
  std::vector<std::uint8_t> out;
  out.reserve(size);
  std::uint64_t h = kFnvOffset;
  append(out, h, kMagic);
  append(out, h, kVersion);
  append(out, h, checkpoint_id);
  append(out, h, now_ns);
  append(out, h, static_cast<std::uint64_t>(sections_.size()));
  for (const Section& s : sections_) {
    append(out, h, s.tag);
    append(out, h, static_cast<std::uint64_t>(s.bytes.size()));
    out.insert(out.end(), s.bytes.begin(), s.bytes.end());
    fold(h, s.bytes.data(), s.bytes.size());
    // Running digest value after this section: lets open() report *which*
    // section a torn snapshot died in, and chains each section's check to
    // everything before it. Copied first — append folds the value into
    // `h`, and folding `h` into itself would corrupt the chain.
    const std::uint64_t section_digest = h;
    append(out, h, section_digest);
  }
  const std::uint64_t final_digest = h;  // over the whole buffer
  append(out, h, final_digest);
  return out;
}

std::optional<Snapshot> Snapshot::open(const std::vector<std::uint8_t>& sealed,
                                       std::string* error) {
  std::size_t pos = 0;
  std::uint64_t h = kFnvOffset;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  Snapshot snap;
  std::uint64_t n_sections = 0;
  if (!read(sealed, pos, h, magic, error)) return std::nullopt;
  if (magic != kMagic) {
    if (error != nullptr) *error = "snapshot magic mismatch";
    return std::nullopt;
  }
  if (!read(sealed, pos, h, version, error)) return std::nullopt;
  if (version != kVersion) {
    if (error != nullptr) *error = "snapshot version mismatch";
    return std::nullopt;
  }
  if (!read(sealed, pos, h, snap.checkpoint_id_, error)) return std::nullopt;
  if (!read(sealed, pos, h, snap.now_ns_, error)) return std::nullopt;
  if (!read(sealed, pos, h, n_sections, error)) return std::nullopt;
  if (n_sections > sealed.size()) {  // each section costs >= 1 byte of header
    if (error != nullptr) *error = "snapshot section count implausible";
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < n_sections; ++i) {
    Section s;
    std::uint64_t len = 0;
    if (!read(sealed, pos, h, s.tag, error)) return std::nullopt;
    if (!read(sealed, pos, h, len, error)) return std::nullopt;
    if (sealed.size() - pos < len) {
      if (error != nullptr) {
        *error = "snapshot truncated inside section " + std::to_string(s.tag);
      }
      return std::nullopt;
    }
    s.bytes.assign(sealed.begin() + static_cast<std::ptrdiff_t>(pos),
                   sealed.begin() + static_cast<std::ptrdiff_t>(pos + len));
    fold(h, s.bytes.data(), s.bytes.size());
    pos += len;
    const std::uint64_t expect = h;  // digest value the sealer recorded here
    std::uint64_t recorded = 0;
    if (!read(sealed, pos, h, recorded, error)) return std::nullopt;
    if (recorded != expect) {
      if (error != nullptr) {
        *error = "snapshot digest mismatch in section " + std::to_string(s.tag);
      }
      return std::nullopt;
    }
    snap.sections_.push_back(std::move(s));
  }
  const std::uint64_t expect_final = h;
  std::uint64_t recorded_final = 0;
  if (!read(sealed, pos, h, recorded_final, error)) return std::nullopt;
  if (recorded_final != expect_final) {
    if (error != nullptr) *error = "snapshot final digest mismatch";
    return std::nullopt;
  }
  if (pos != sealed.size()) {
    if (error != nullptr) *error = "snapshot has trailing bytes";
    return std::nullopt;
  }
  return snap;
}

}  // namespace aam::recovery
