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
// RecordingAccess: wraps the mechanism's Access during real execution.
// ---------------------------------------------------------------------------

/// Forwards every operation to the wrapped mechanism Access while logging
/// the touched words into the thread's BatchRecord: committed pre-images on
/// first touch (captured before the forwarded operation can mutate), the
/// read/write word sets in first-touch order, and — for the escaped-write
/// detector — the exact byte interval of every legitimate write (this is
/// the only legitimate-write channel for the STM executor, whose batches
/// write heap memory directly without passing a DesMachine choke point).
class RecordingAccess final : public core::Access {
 public:
  RecordingAccess(core::Access& inner, Checker& checker,
                  Checker::BatchRecord& rec)
      : Access(nullptr), inner_(inner), checker_(checker),
        heap_(checker.machine().heap()), rec_(rec) {
    rec_.transactional = inner.transactional();
  }

  std::uint32_t load(const std::uint32_t& ref) override { return load_impl(ref); }
  std::uint64_t load(const std::uint64_t& ref) override { return load_impl(ref); }
  double load(const double& ref) override { return load_impl(ref); }
  void store(std::uint32_t& ref, std::uint32_t value) override {
    store_impl(ref, value);
  }
  void store(std::uint64_t& ref, std::uint64_t value) override {
    store_impl(ref, value);
  }
  void store(double& ref, double value) override { store_impl(ref, value); }
  bool cas(std::uint32_t& ref, std::uint32_t expect,
           std::uint32_t desired) override {
    return cas_impl(ref, expect, desired);
  }
  bool cas(std::uint64_t& ref, std::uint64_t expect,
           std::uint64_t desired) override {
    return cas_impl(ref, expect, desired);
  }
  bool cas(double& ref, double expect, double desired) override {
    return cas_impl(ref, expect, desired);
  }
  std::uint64_t fetch_add(std::uint64_t& ref, std::uint64_t delta) override {
    return fetch_add_impl(ref, delta);
  }
  double fetch_add(double& ref, double delta) override {
    return fetch_add_impl(ref, delta);
  }
  bool transactional() const override { return inner_.transactional(); }
  void emit(std::uint64_t value) override { inner_.emit(value); }

 private:
  template <typename T>
  T load_impl(const T& ref) {
    note_read(&ref);
    return inner_.load(ref);
  }
  template <typename T>
  void store_impl(T& ref, T value) {
    note_write(&ref, sizeof(T));
    inner_.store(ref, value);
  }
  template <typename T>
  bool cas_impl(T& ref, T expect, T desired) {
    note_read(&ref);
    const bool ok = inner_.cas(ref, expect, desired);
    if (ok) note_write(&ref, sizeof(T));
    return ok;
  }
  template <typename T>
  T fetch_add_impl(T& ref, T delta) {
    note_read(&ref);
    const T old = inner_.fetch_add(ref, delta);
    note_write(&ref, sizeof(T));
    return old;
  }

  void note_read(const void* p) {
    if (!heap_.contains(p)) {
      rec_.foreign = true;
      return;
    }
    if (!checker_.record_batches_) return;
    const std::uint64_t word = heap_.offset_of(p) & ~std::uint64_t{7};
    capture_pre(word);
    if (rec_.read_set.insert(word)) rec_.read_words.push_back(word);
  }

  void note_write(const void* p, std::uint32_t len) {
    if (!heap_.contains(p)) {
      rec_.foreign = true;
      return;
    }
    const std::uint64_t offset = heap_.offset_of(p);
    if (checker_.config_.races) checker_.legit_.emplace_back(offset, len);
    if (!checker_.record_batches_) return;
    const std::uint64_t word = offset & ~std::uint64_t{7};
    capture_pre(word);
    if (rec_.write_set.insert(word)) rec_.write_words.push_back(word);
  }

  void capture_pre(std::uint64_t word) {
    std::uint64_t value;
    if (rec_.pre.lookup(word, value)) return;
    rec_.pre.insert_or_assign(word, checker_.committed_word(word));
  }

  core::Access& inner_;
  Checker& checker_;
  mem::SimHeap& heap_;
  Checker::BatchRecord& rec_;
};

// ---------------------------------------------------------------------------
// ShadowAccess: serial re-execution against recorded pre-images.
// ---------------------------------------------------------------------------

/// Replays operators against the batch's pre-images: reads hit the replay
/// overlay first, then the recorded pre-image, then (for words the real
/// execution never touched — only reachable once control flow has already
/// diverged) committed memory; writes land in the overlay only. Accesses
/// off the SimHeap read through and drop writes — host memory is outside
/// transactional isolation and is not replayed.
class ShadowAccess final : public core::Access {
 public:
  ShadowAccess(Checker& checker, Checker::BatchRecord& rec,
               std::vector<std::uint64_t>* results)
      : Access(results), checker_(checker), heap_(checker.machine().heap()),
        rec_(rec) {}

  std::uint32_t load(const std::uint32_t& ref) override { return load_impl(ref); }
  std::uint64_t load(const std::uint64_t& ref) override { return load_impl(ref); }
  double load(const double& ref) override { return load_impl(ref); }
  void store(std::uint32_t& ref, std::uint32_t value) override {
    store_impl(ref, value);
  }
  void store(std::uint64_t& ref, std::uint64_t value) override {
    store_impl(ref, value);
  }
  void store(double& ref, double value) override { store_impl(ref, value); }
  bool cas(std::uint32_t& ref, std::uint32_t expect,
           std::uint32_t desired) override {
    return cas_impl(ref, expect, desired);
  }
  bool cas(std::uint64_t& ref, std::uint64_t expect,
           std::uint64_t desired) override {
    return cas_impl(ref, expect, desired);
  }
  bool cas(double& ref, double expect, double desired) override {
    return cas_impl(ref, expect, desired);
  }
  std::uint64_t fetch_add(std::uint64_t& ref, std::uint64_t delta) override {
    return fetch_add_impl(ref, delta);
  }
  double fetch_add(double& ref, double delta) override {
    return fetch_add_impl(ref, delta);
  }
  bool transactional() const override { return rec_.transactional; }

 private:
  template <typename T>
  T load_impl(const T& ref) {
    if (!heap_.contains(&ref)) return ref;
    const std::uint64_t offset = heap_.offset_of(&ref);
    const std::uint64_t word = word_value(offset & ~std::uint64_t{7});
    T out;
    std::memcpy(&out, reinterpret_cast<const char*>(&word) + (offset & 7u),
                sizeof(T));
    return out;
  }
  template <typename T>
  void store_impl(T& ref, T value) {
    if (!heap_.contains(&ref)) return;
    const std::uint64_t offset = heap_.offset_of(&ref);
    const std::uint64_t word_off = offset & ~std::uint64_t{7};
    std::uint64_t word = word_value(word_off);
    std::memcpy(reinterpret_cast<char*>(&word) + (offset & 7u), &value,
                sizeof(T));
    checker_.overlay_.insert_or_assign(word_off, word);
  }
  template <typename T>
  bool cas_impl(T& ref, T expect, T desired) {
    if (load_impl(ref) != expect) return false;
    store_impl(ref, desired);
    return true;
  }
  template <typename T>
  T fetch_add_impl(T& ref, T delta) {
    const T old = load_impl(ref);
    store_impl(ref, static_cast<T>(old + delta));
    return old;
  }

  std::uint64_t word_value(std::uint64_t word) {
    std::uint64_t value;
    if (checker_.overlay_.lookup(word, value)) return value;
    if (rec_.pre.lookup(word, value)) return value;
    return checker_.committed_word(word);
  }

  Checker& checker_;
  mem::SimHeap& heap_;
  Checker::BatchRecord& rec_;
};

// ---------------------------------------------------------------------------
// CheckedExecutor
// ---------------------------------------------------------------------------

/// The decorating executor: wraps the operator in a RecordingAccess and the
/// done callback in the checker's per-batch analysis. Batch recording is
/// reset at item 0 of every attempt, so transactional retries (which re-run
/// the whole batch) start from a clean record and the done-time record
/// always describes exactly the committed attempt.
class CheckedExecutor final : public core::ActivityExecutor {
 public:
  CheckedExecutor(std::unique_ptr<core::ActivityExecutor> inner,
                  Checker& checker)
      : ActivityExecutor(inner->preferred_batch()),
        inner_(std::move(inner)),
        checker_(checker) {}

  core::Mechanism mechanism() const override { return inner_->mechanism(); }
  int preferred_batch() const override { return inner_->preferred_batch(); }
  void set_batch(int m) override { inner_->set_batch(m); }
  void set_adaptive(core::AdaptiveBatch* adaptive) override {
    inner_->set_adaptive(adaptive);
  }
  core::AdaptiveBatch* adaptive() const override { return inner_->adaptive(); }
  void set_outcome_hook(OutcomeHook hook) override {
    inner_->set_outcome_hook(std::move(hook));
  }
  void save_state(util::BlobWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(util::BlobReader& r) override {
    inner_->restore_state(r);
  }

  void execute(htm::ThreadCtx& ctx, std::uint64_t count, const ItemOp& op,
               BatchDone done = {},
               core::OperatorId op_id = core::OperatorId::kUnknown) override {
    const std::uint32_t tid = ctx.thread_id();
    checker_.begin_batch(tid, op_id);
    // One shared copy of the user operator: the recording wrapper needs it
    // during (possibly re-executed) attempts, the done hook for the serial
    // replay after commit.
    auto user_op = std::make_shared<const ItemOp>(op);
    const core::Mechanism mech = inner_->mechanism();
    inner_->execute(
        ctx, count,
        [this, tid, user_op](core::Access& access, std::uint64_t i) {
          if (i == 0) checker_.begin_attempt(tid);
          RecordingAccess recording(access, checker_, checker_.records_[tid]);
          (*user_op)(recording, i);
        },
        [this, tid, mech, count, user_op, done = std::move(done)](
            htm::ThreadCtx& done_ctx, std::span<const std::uint64_t> results) {
          checker_.on_batch_done(tid, mech, count, *user_op, results);
          if (done) done(done_ctx, results);
        });
  }

 private:
  std::unique_ptr<core::ActivityExecutor> inner_;
  Checker& checker_;
};

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

Checker::Checker(htm::DesMachine& machine, CheckConfig config)
    : machine_(machine),
      config_(config),
      record_batches_(config.serial || config.footprint) {
  AAM_CHECK(config_.scan_interval >= 1);
  records_.resize(static_cast<std::size_t>(machine.num_threads()));
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

std::unique_ptr<core::ActivityExecutor> Checker::wrap(
    std::unique_ptr<core::ActivityExecutor> inner) {
  if (!config_.enabled()) return inner;
  return std::make_unique<CheckedExecutor>(std::move(inner), *this);
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

void Checker::begin_batch(std::uint32_t tid, core::OperatorId op_id) {
  records_[tid].op_id = op_id;
  begin_attempt(tid);
}

void Checker::begin_attempt(std::uint32_t tid) {
  BatchRecord& rec = records_[tid];
  rec.pre.clear();
  rec.read_set.clear();
  rec.write_set.clear();
  rec.read_words.clear();
  rec.write_words.clear();
  rec.foreign = false;
}

void Checker::on_batch_done(std::uint32_t tid, core::Mechanism mechanism,
                            std::uint64_t count,
                            const core::ActivityExecutor::ItemOp& op,
                            std::span<const std::uint64_t> results) {
  const std::uint64_t batch_no = batches_++;
  BatchRecord& rec = records_[tid];
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
    replay_serial(rec, count, op, results, batch_no);
  }
  if (config_.races &&
      (batch_no + 1) % static_cast<std::uint64_t>(config_.scan_interval) == 0) {
    scan_shadow(batch_no);
  }
}

void Checker::audit_footprint_for(std::uint32_t tid, std::uint64_t batch_no) {
  const BatchRecord& rec = records_[tid];
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
  const BatchRecord& rec = records_[tid];
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
  const BatchRecord& rec = records_[tid];
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

void Checker::fold_digest(BatchRecord& rec, std::uint64_t count) {
  fnv1a(digest_, count);
  for (std::uint64_t word : rec.write_words) {
    fnv1a(digest_, word);
    fnv1a(digest_, committed_word(word));
  }
}

void Checker::replay_serial(BatchRecord& rec, std::uint64_t count,
                            const core::ActivityExecutor::ItemOp& op,
                            std::span<const std::uint64_t> results,
                            std::uint64_t batch_no) {
  overlay_.clear();
  replay_results_.clear();
  ShadowAccess access(*this, rec, &replay_results_);
  for (std::uint64_t i = 0; i < count; ++i) op(access, i);

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

std::uint64_t Checker::committed_word(std::uint64_t word) const {
  mem::SimHeap& heap = machine_.heap();
  std::uint64_t value = 0;
  const std::size_t avail =
      std::min<std::size_t>(8, heap.used_bytes() - word);
  std::memcpy(&value, heap.addr_of(word), avail);
  return value;
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
