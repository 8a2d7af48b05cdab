#include "core/executor.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/auto_executor.hpp"
#include "core/executor_impl.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace aam::core {

namespace {

constexpr Mechanism kAllMechanisms[] = {
    Mechanism::kHtmCoarsened, Mechanism::kAtomicOps, Mechanism::kFineLocks,
    Mechanism::kSerialLock, Mechanism::kStm,
};

constexpr OperatorId kAllOperatorIds[] = {
    OperatorId::kBfsVisit,  OperatorId::kPagerankPush, OperatorId::kSsspRelax,
    OperatorId::kUfRoot,    OperatorId::kUfUnion,      OperatorId::kColorAssign,
    OperatorId::kStVisit,
};

}  // namespace

const char* to_string(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kHtmCoarsened: return "htm";
    case Mechanism::kAtomicOps: return "atomics";
    case Mechanism::kFineLocks: return "fine-locks";
    case Mechanism::kSerialLock: return "serial-lock";
    case Mechanism::kStm: return "stm";
  }
  return "?";
}

std::optional<Mechanism> parse_mechanism(std::string_view name) {
  for (Mechanism m : kAllMechanisms) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

std::span<const Mechanism> all_mechanisms() { return kAllMechanisms; }

const char* to_string(OperatorId op) {
  switch (op) {
    case OperatorId::kUnknown: return "?";
    case OperatorId::kBfsVisit: return "bfs_visit";
    case OperatorId::kPagerankPush: return "pagerank_push";
    case OperatorId::kSsspRelax: return "sssp_relax";
    case OperatorId::kUfRoot: return "uf_root";
    case OperatorId::kUfUnion: return "uf_union";
    case OperatorId::kColorAssign: return "color_assign";
    case OperatorId::kStVisit: return "st_visit";
  }
  return "?";
}

std::span<const OperatorId> all_operator_ids() { return kAllOperatorIds; }

std::string mechanism_names() {
  std::string names;
  for (Mechanism m : kAllMechanisms) {
    if (!names.empty()) names += ", ";
    names += to_string(m);
  }
  return names;
}

std::optional<MechanismSelection> parse_mechanism_selection(
    std::string_view name) {
  if (name == "auto") return MechanismSelection{};
  if (const auto fixed = parse_mechanism(name); fixed.has_value()) {
    return MechanismSelection{.fixed = *fixed};
  }
  return std::nullopt;
}

std::string mechanism_selection_names() { return mechanism_names() + ", auto"; }

std::string mechanism_selection_error(const std::string& flag,
                                      const std::string& value) {
  return "--" + flag + "=" + value + ": unknown mechanism; valid names: " +
         mechanism_selection_names();
}

MechanismSelection mechanism_selection_flag(util::Cli& cli,
                                            const std::string& flag,
                                            const std::string& def) {
  const std::string value = cli.get_string(flag, def);
  const auto parsed = parse_mechanism_selection(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s\n",
                 mechanism_selection_error(flag, value).c_str());
    std::exit(2);
  }
  return *parsed;
}

void ActivityExecutor::durable(util::BlobIo& io) {
  io(batch_);
  io.expect(adaptive_ != nullptr,
            "adaptive controller attachment changed since checkpoint");
  if (adaptive_ != nullptr) io(*adaptive_);
}

std::unique_ptr<ActivityExecutor> make_executor(htm::DesMachine& machine,
                                                const ExecConfig& exec,
                                                std::uint32_t lock_stripes) {
  AAM_CHECK(exec.batch >= 1);
  if (exec.auto_policy != nullptr) {
    return std::make_unique<AutoExecutor>(machine, *exec.auto_policy, exec,
                                          lock_stripes);
  }
  switch (exec.mechanism) {
    case Mechanism::kHtmCoarsened:
      return std::make_unique<HtmCoarsenedExecutor>(machine, exec);
    case Mechanism::kAtomicOps:
      return std::make_unique<AtomicOpsExecutor>(machine, exec);
    case Mechanism::kFineLocks:
      return std::make_unique<FineLocksExecutor>(machine, exec, lock_stripes);
    case Mechanism::kSerialLock:
      return std::make_unique<SerialLockExecutor>(machine, exec);
    case Mechanism::kStm:
      return std::make_unique<StmExecutor>(machine, exec, lock_stripes);
  }
  AAM_CHECK_MSG(false, "unknown mechanism");
  return nullptr;
}

}  // namespace aam::core
