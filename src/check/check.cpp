#include "check/check.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "analysis/contract.hpp"
#include "core/auto_executor.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace aam::check {

namespace {

// Allocations the engine and executors mutate outside the observed write
// channels by design (host-side cursor resets) or that only ever carry
// synchronization metadata. Excluded from the escaped-write diff.
constexpr std::string_view kExemptLabels[] = {
    "worklist.cursor",  "fine-locks.stripes", "serial-lock.word",
    "stm.orecs",        "stm.clock",          "htm.elision-lock",
};

bool is_exempt_label(std::string_view label) {
  for (std::string_view exempt : kExemptLabels) {
    if (label == exempt) return true;
  }
  return false;
}

void fnv1a(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
}

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

bool unit_listed(const std::vector<std::uint64_t>& units, std::uint64_t unit) {
  return std::find(units.begin(), units.end(), unit) != units.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckConfig parsing
// ---------------------------------------------------------------------------

std::optional<CheckConfig> parse_check(std::string_view name) {
  CheckConfig config;
  if (name == "none") return config;
  if (name == "races") {
    config.races = true;
    return config;
  }
  if (name == "serial") {
    config.serial = true;
    return config;
  }
  if (name == "footprint") {
    config.footprint = true;
    return config;
  }
  if (name == "all") {
    config.races = config.serial = config.footprint = true;
    return config;
  }
  return std::nullopt;
}

std::string check_names() { return "none, races, serial, footprint, all"; }

std::string check_error(const std::string& flag, const std::string& value) {
  return "--" + flag + "=" + value +
         ": unknown check mode; valid names: " + check_names();
}

CheckConfig check_flag(util::Cli& cli, const std::string& flag) {
  const std::string value = cli.get_string(flag, "none");
  const auto parsed = parse_check(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s\n", check_error(flag, value).c_str());
    std::exit(2);
  }
  return *parsed;
}

const char* to_string(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kEscapedWrite: return "escaped-write";
    case Violation::Kind::kSerialDivergence: return "serial-divergence";
    case Violation::Kind::kFootprintMismatch: return "footprint-mismatch";
    case Violation::Kind::kStaticEscape: return "static-escape";
    case Violation::Kind::kCapacityGuard: return "capacity-guard";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

Checker::Checker(htm::DesMachine& machine, CheckConfig config)
    : BatchRecorder(machine.heap(), machine.num_threads(),
                    /*record_words=*/config.serial || config.footprint,
                    /*log_writes=*/config.races, /*replays=*/config.serial),
      machine_(machine),
      config_(config) {
  footprint_stats_.resize(
      static_cast<std::size_t>(core::OperatorId::kStVisit) + 1);
  if (config_.races) {
    AAM_CHECK_MSG(machine_.write_observer() == nullptr,
                  "the machine already has a write observer");
    machine_.set_write_observer(this);
    on_run_start();  // snapshot whatever is already committed
  }
}

Checker::~Checker() {
  if (config_.races && machine_.write_observer() == this) {
    machine_.set_write_observer(nullptr);
  }
}

void Checker::set_capacity_policy(const core::AutoPolicy* policy) {
  capacity_policy_ = policy;
}

void Checker::on_legitimate_write(std::uint64_t offset, std::uint32_t len) {
  legit_.emplace_back(offset, len);
}

void Checker::on_run_start() {
  mem::SimHeap& heap = machine_.heap();
  shadow_.resize(heap.used_bytes());
  if (!shadow_.empty()) {
    std::memcpy(shadow_.data(), heap.addr_of(0), shadow_.size());
  }
  legit_.clear();
}

void Checker::on_quiescence() {
  // A write made after the round's last batch scan would otherwise be
  // sanctioned by the resynchronisation that follows a hook, or by the
  // next run's entry.
  scan_shadow(batches_ == 0 ? 0 : batches_ - 1);
}

void Checker::on_batch_done(std::uint32_t tid, core::Mechanism mechanism,
                            std::uint64_t count,
                            std::span<const std::uint64_t> results) {
  const std::uint64_t batch_no = batches_++;
  const core::BatchRecord& rec = records_[tid];
  if (capacity_policy_ != nullptr &&
      mechanism == core::Mechanism::kHtmCoarsened &&
      rec.op_id != core::OperatorId::kUnknown) {
    const core::MechanismPlan& plan = capacity_policy_->plan(rec.op_id);
    if (plan.htm_c_safe > 0 && count > plan.htm_c_safe) {
      add_violation(
          Violation::Kind::kCapacityGuard, batch_no, 0,
          format("%s batch of %llu items ran under HTM past the static "
                 "c_safe bound %llu",
                 core::to_string(rec.op_id),
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(plan.htm_c_safe)));
    }
  }
  if (config_.footprint) {
    if (mechanism == core::Mechanism::kHtmCoarsened && count > 0) {
      audit_footprint_for(tid, batch_no);
    }
    if (count > 0 && rec.op_id != core::OperatorId::kUnknown) {
      audit_static_signature(tid, batch_no);
      update_footprint_stats(tid, mechanism, count);
    }
    fold_digest(rec, count);
  }
  if (config_.serial && count > 0) {
    diff_serial(rec, results, batch_no);
  }
  // The shadow scan runs after every batch, so an escape is attributed to
  // the batch that made it.
  if (config_.races) scan_shadow(batch_no);
}

void Checker::audit_footprint_for(std::uint32_t tid, std::uint64_t batch_no) {
  const core::BatchRecord& rec = records_[tid];
  const mem::FootprintTracker& declared = machine_.thread_footprint(tid);
  const std::uint32_t shift = machine_.conflict_shift();
  for (std::uint64_t word : rec.write_words) {
    const std::uint64_t unit = word >> shift;
    if (!unit_listed(declared.write_units(), unit)) {
      add_violation(
          Violation::Kind::kFootprintMismatch, batch_no, word,
          format("write at %s (offset 0x%llx, unit %llu) outside the "
                 "declared write set",
                 machine_.heap().describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 static_cast<unsigned long long>(unit)));
    }
  }
  for (std::uint64_t word : rec.read_words) {
    const std::uint64_t unit = word >> shift;
    if (!unit_listed(declared.read_units(), unit) &&
        !unit_listed(declared.write_units(), unit)) {
      add_violation(
          Violation::Kind::kFootprintMismatch, batch_no, word,
          format("read at %s (offset 0x%llx, unit %llu) outside the "
                 "declared read/write sets",
                 machine_.heap().describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 static_cast<unsigned long long>(unit)));
    }
  }
}

void Checker::audit_static_signature(std::uint32_t tid,
                                     std::uint64_t batch_no) {
  const core::BatchRecord& rec = records_[tid];
  const analysis::LabelContract& contract =
      analysis::label_contract(rec.op_id);
  const mem::SimHeap& heap = machine_.heap();
  for (std::uint64_t word : rec.write_words) {
    const mem::SimHeap::AllocRecord* alloc = heap.find_alloc(word);
    if (alloc == nullptr || !contract.may_write(alloc->label)) {
      add_violation(
          Violation::Kind::kStaticEscape, batch_no, word,
          format("operator %s wrote %s (offset 0x%llx), outside its static "
                 "may-write label set {%s}",
                 core::to_string(rec.op_id), heap.describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 contract.write_labels_joined().c_str()));
    }
  }
  for (std::uint64_t word : rec.read_words) {
    const mem::SimHeap::AllocRecord* alloc = heap.find_alloc(word);
    if (alloc == nullptr || !contract.may_read(alloc->label)) {
      add_violation(
          Violation::Kind::kStaticEscape, batch_no, word,
          format("operator %s read %s (offset 0x%llx), outside its static "
                 "may-read label set {%s}",
                 core::to_string(rec.op_id), heap.describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 contract.read_labels_joined().c_str()));
    }
  }
}

void Checker::update_footprint_stats(std::uint32_t tid,
                                     core::Mechanism mechanism,
                                     std::uint64_t count) {
  const core::BatchRecord& rec = records_[tid];
  FootprintStats& stats =
      footprint_stats_[static_cast<std::size_t>(rec.op_id)];
  ++stats.batches;
  if (rec.read_words.size() > stats.max_read_words) {
    stats.max_read_words = rec.read_words.size();
    stats.items_at_max_read = count;
  }
  if (rec.write_words.size() > stats.max_write_words) {
    stats.max_write_words = rec.write_words.size();
    stats.items_at_max_write = count;
  }
  if (mechanism == core::Mechanism::kHtmCoarsened) {
    const mem::FootprintTracker& tracker = machine_.thread_footprint(tid);
    stats.max_read_lines =
        std::max<std::uint64_t>(stats.max_read_lines,
                                tracker.distinct_read_lines());
    stats.max_write_lines =
        std::max<std::uint64_t>(stats.max_write_lines,
                                tracker.distinct_write_lines());
  }
}

void Checker::fold_digest(const core::BatchRecord& rec, std::uint64_t count) {
  fnv1a(digest_, count);
  for (std::uint64_t word : rec.write_words) {
    fnv1a(digest_, word);
    fnv1a(digest_, committed_word(word));
  }
}

void Checker::diff_serial(const core::BatchRecord& rec,
                          std::span<const std::uint64_t> results,
                          std::uint64_t batch_no) {
  // Emission sequence: the committed results must match the serial order's.
  if (replay_results_.size() != results.size()) {
    add_violation(Violation::Kind::kSerialDivergence, batch_no, 0,
                  format("batch committed %zu emissions, serial replay "
                         "produced %zu",
                         results.size(), replay_results_.size()));
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (replay_results_[i] != results[i]) {
        add_violation(
            Violation::Kind::kSerialDivergence, batch_no, 0,
            format("emission #%zu: committed 0x%llx, serial 0x%llx", i,
                   static_cast<unsigned long long>(results[i]),
                   static_cast<unsigned long long>(replay_results_[i])));
        break;
      }
    }
  }

  // Final state: every word the serial replay wrote must hold the replay's
  // value in committed memory ...
  overlay_.for_each([&](std::uintptr_t word, std::uint64_t expected) {
    const std::uint64_t actual =
        committed_word(static_cast<std::uint64_t>(word));
    if (actual != expected) {
      add_violation(
          Violation::Kind::kSerialDivergence, batch_no, word,
          format("%s (offset 0x%llx): committed 0x%016llx, serial 0x%016llx",
                 machine_.heap().describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 static_cast<unsigned long long>(actual),
                 static_cast<unsigned long long>(expected)));
    }
  });
  // ... and every word the real execution wrote but the replay did not must
  // have kept its pre-image (a same-value write is indistinguishable).
  for (std::uint64_t word : rec.write_words) {
    std::uint64_t expected;
    if (overlay_.lookup(word, expected)) continue;
    if (!rec.pre.lookup(word, expected)) continue;
    const std::uint64_t actual = committed_word(word);
    if (actual != expected) {
      add_violation(
          Violation::Kind::kSerialDivergence, batch_no, word,
          format("%s (offset 0x%llx): batch wrote 0x%016llx, serial replay "
                 "left pre-image 0x%016llx",
                 machine_.heap().describe(word).c_str(),
                 static_cast<unsigned long long>(word),
                 static_cast<unsigned long long>(actual),
                 static_cast<unsigned long long>(expected)));
    }
  }
}

void Checker::sync_shadow_growth() {
  mem::SimHeap& heap = machine_.heap();
  const std::size_t used = heap.used_bytes();
  const std::size_t old = shadow_.size();
  if (used <= old) return;
  shadow_.resize(used);
  std::memcpy(shadow_.data() + old, heap.addr_of(old), used - old);
}

void Checker::refresh_exempt() {
  const auto allocs = machine_.heap().allocations();
  if (allocs.size() == exempt_allocs_seen_) return;
  exempt_allocs_seen_ = allocs.size();
  exempt_.clear();
  for (const auto& alloc : allocs) {
    if (is_exempt_label(alloc.label)) {
      exempt_.emplace_back(alloc.offset, alloc.offset + alloc.bytes);
    }
  }
}

void Checker::scan_shadow(std::uint64_t batch_no) {
  if (machine_.heap().used_bytes() == 0) return;
  sync_shadow_growth();
  mem::SimHeap& heap = machine_.heap();
  for (const auto& [offset, len] : legit_) {
    const std::uint64_t end =
        std::min<std::uint64_t>(offset + len, shadow_.size());
    if (offset < end) {
      std::memcpy(shadow_.data() + offset, heap.addr_of(offset), end - offset);
    }
  }
  legit_.clear();
  refresh_exempt();
  std::uint64_t pos = 0;
  for (const auto& [lo, hi] : exempt_) {
    compare_range(pos, lo, batch_no);
    pos = std::max(pos, hi);
  }
  compare_range(pos, shadow_.size(), batch_no);
}

void Checker::compare_range(std::uint64_t lo, std::uint64_t hi,
                            std::uint64_t batch_no) {
  if (lo >= hi) return;
  mem::SimHeap& heap = machine_.heap();
  const std::byte* committed = heap.addr_of(lo);
  if (std::memcmp(committed, shadow_.data() + lo, hi - lo) == 0) return;
  // Narrow the mismatch to words for reporting, then resynchronise the
  // shadow so one escape is reported once.
  for (std::uint64_t o = lo; o < hi;) {
    const std::uint64_t word = o & ~std::uint64_t{7};
    const std::uint64_t word_end = std::min<std::uint64_t>(hi, word + 8);
    const std::size_t span = static_cast<std::size_t>(word_end - o);
    if (std::memcmp(heap.addr_of(o), shadow_.data() + o, span) != 0) {
      std::uint64_t shadow_value = 0;
      const std::size_t avail =
          std::min<std::size_t>(8, shadow_.size() - word);
      std::memcpy(&shadow_value, shadow_.data() + word, avail);
      add_violation(
          Violation::Kind::kEscapedWrite, batch_no, word,
          format("offset 0x%llx (line %llu, %s): committed 0x%016llx, "
                 "shadow 0x%016llx — mutated outside every synchronization "
                 "channel",
                 static_cast<unsigned long long>(word),
                 static_cast<unsigned long long>(word / mem::kLineBytes),
                 heap.describe(word).c_str(),
                 static_cast<unsigned long long>(committed_word(word)),
                 static_cast<unsigned long long>(shadow_value)));
      std::memcpy(shadow_.data() + o, heap.addr_of(o), span);
    }
    o = word_end;
  }
}

void Checker::add_violation(Violation::Kind kind, std::uint64_t batch,
                            std::uint64_t offset, std::string detail) {
  ++violations_total_;
  if (violations_.size() < kMaxStored) {
    violations_.push_back(Violation{kind, batch, offset, std::move(detail)});
  }
}

void Checker::report(std::ostream& out) const {
  out << "check: " << violations_total_ << " violation(s) across "
      << batches_ << " checked batch(es)\n";
  for (const Violation& v : violations_) {
    out << "  [" << to_string(v.kind) << "] batch " << v.batch << ": "
        << v.detail << "\n";
  }
  if (violations_total_ > violations_.size()) {
    out << "  ... and " << (violations_total_ - violations_.size())
        << " more\n";
  }
}

}  // namespace aam::check
