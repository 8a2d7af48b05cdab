#include "mc/workload.hpp"

#include <sstream>

#include "analysis/abstract_access.hpp"
#include "util/check.hpp"

namespace aam::mc {

namespace {

/// The serial reference interpreter's access surface: direct word
/// semantics, emissions appended to the running thread's list. Used both
/// by the serial-outcome enumeration here and by nothing else — the
/// executors interpret the same ops through core::execute_batch.
struct SerialRef {
  std::vector<std::uint64_t>* emits = nullptr;

  std::uint64_t load(const std::uint64_t& ref) { return ref; }
  void store(std::uint64_t& ref, std::uint64_t value) { ref = value; }
  std::uint64_t fetch_add(std::uint64_t& ref, std::uint64_t delta) {
    const std::uint64_t old = ref;
    ref = old + delta;
    return old;
  }
  bool cas(std::uint64_t& ref, std::uint64_t expect, std::uint64_t desired) {
    if (ref != expect) return false;
    ref = desired;
    return true;
  }
  void emit(std::uint64_t value) { emits->push_back(value); }
};

struct SerialState {
  std::vector<std::uint64_t> words;
  std::vector<std::size_t> next;  ///< per-thread next txn index
  std::vector<char> terminated;   ///< per-thread give-up flag
  std::vector<std::vector<std::uint64_t>> emits;
};

void enumerate_serial(const McWorkload& w, SerialState& st,
                      std::set<std::string>& out) {
  // Resolve give-ups eagerly: termination is a deterministic function of
  // the thread's own state, not a scheduling choice.
  for (std::size_t t = 0; t < w.threads.size(); ++t) {
    while (st.terminated[t] == 0 && st.next[t] < w.threads[t].txns.size() &&
           txn_gives_up(w.threads[t].txns[st.next[t]], st.emits[t])) {
      st.terminated[t] = 1;
    }
  }
  bool any = false;
  for (std::size_t t = 0; t < w.threads.size(); ++t) {
    if (st.terminated[t] != 0 || st.next[t] >= w.threads[t].txns.size()) {
      continue;
    }
    any = true;
    SerialState child = st;
    const McTxn& txn = w.threads[t].txns[child.next[t]];
    SerialRef acc{&child.emits[t]};
    for (const McOp& op : txn.ops) {
      apply_op(op, acc, child.words.data());
    }
    ++child.next[t];
    enumerate_serial(w, child, out);
  }
  if (!any) {
    Outcome o;
    o.finals = st.words;
    o.emits = st.emits;
    out.insert(canonical(o));
  }
}

McThreadProgram lock_thread(std::uint32_t scratch, bool early_release) {
  McThreadProgram p;
  // try-lock; give up if lost
  p.txns.push_back(McTxn{{{OpKind::kCasEmit, 0, 0, 0, 0, 0, 1}}, false});
  // scratch = data + 1 (the read half of the guarded RMW)
  p.txns.push_back(McTxn{{{OpKind::kCopyAdd, scratch, 1, 0, 0, 1, 0}}, true});
  if (early_release) {
    // BUG: the stripe lock is released before the write-back, exposing
    // the split RMW to the other thread's critical section.
    p.txns.push_back(McTxn{{{OpKind::kStoreImm, 0, 0, 0, 0, 0, 0}}, false});
    p.txns.push_back(
        McTxn{{{OpKind::kCopyAdd, 1, scratch, 0, 0, 0, 0}}, false});
  } else {
    // data = scratch (write-back), then release.
    p.txns.push_back(
        McTxn{{{OpKind::kCopyAdd, 1, scratch, 0, 0, 0, 0}}, false});
    p.txns.push_back(McTxn{{{OpKind::kStoreImm, 0, 0, 0, 0, 0, 0}}, false});
  }
  return p;
}

McThreadProgram counter_thread(std::size_t txns) {
  McThreadProgram p;
  for (std::size_t i = 0; i < txns; ++i) {
    p.txns.push_back(McTxn{{{OpKind::kAddImm, 0, 0, 0, 0, 1, 0}}, false});
  }
  return p;
}

std::optional<std::string> expect_final(std::uint32_t word,
                                        std::uint64_t want,
                                        const Outcome& o) {
  if (o.finals[word] == want) return std::nullopt;
  std::ostringstream os;
  os << "expected w" << word << "=" << want << ", got " << o.finals[word];
  return os.str();
}

}  // namespace

bool txn_gives_up(const McTxn& txn, const std::vector<std::uint64_t>& emits) {
  return txn.skip_if_last_emit_zero && (emits.empty() || emits.back() == 0);
}

std::string canonical(const Outcome& outcome) {
  std::ostringstream os;
  for (std::size_t i = 0; i < outcome.finals.size(); ++i) {
    os << (i > 0 ? " " : "") << "w" << i << "=" << outcome.finals[i];
  }
  os << " |";
  for (std::size_t t = 0; t < outcome.emits.size(); ++t) {
    os << " t" << t << ":";
    if (outcome.emits[t].empty()) {
      os << "-";
    } else {
      for (std::size_t i = 0; i < outcome.emits[t].size(); ++i) {
        if (i > 0) os << ",";
        os << outcome.emits[t][i];
      }
    }
  }
  return os.str();
}

const char* to_string(Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone: return "none";
    case Mutation::kLockEarlyRelease: return "lock-early-release";
    case Mutation::kSkipReadValidation: return "skip-read-validation";
    case Mutation::kDroppedAck: return "dropped-ack";
  }
  return "?";
}

std::optional<Mutation> parse_mutation(const std::string& name) {
  for (Mutation m : {Mutation::kNone, Mutation::kLockEarlyRelease,
                     Mutation::kSkipReadValidation, Mutation::kDroppedAck}) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

std::string mutation_names() {
  return "none, lock-early-release, skip-read-validation, dropped-ack";
}

std::vector<std::string> workload_names() {
  return {"disjoint",      "counter",       "counter3",
          "cross",         "lock-protocol", "ack-protocol",
          "auto-escalate", "auto-window"};
}

McWorkload make_workload(const std::string& name, Mutation mutation) {
  McWorkload w;
  w.name = name;
  AAM_CHECK_MSG(
      mutation == Mutation::kNone ||
          mutation == Mutation::kSkipReadValidation ||
          (mutation == Mutation::kLockEarlyRelease &&
           name == "lock-protocol") ||
          (mutation == Mutation::kDroppedAck && name == "ack-protocol"),
      "mutation does not apply to this workload");
  if (name == "disjoint") {
    w.description = "2 threads x 2 increments of disjoint words";
    w.num_words = 2;
    McThreadProgram t0, t1;
    for (int i = 0; i < 2; ++i) {
      t0.txns.push_back(McTxn{{{OpKind::kAddImm, 0, 0, 0, 0, 1, 0}}, false});
      t1.txns.push_back(McTxn{{{OpKind::kAddImm, 1, 0, 0, 0, 1, 0}}, false});
    }
    w.threads = {t0, t1};
    w.invariant = [](const Outcome& o) -> std::optional<std::string> {
      if (auto v = expect_final(0, 2, o)) return v;
      return expect_final(1, 2, o);
    };
  } else if (name == "counter") {
    w.description = "2 threads x 2 increments of one shared word";
    w.num_words = 1;
    w.threads = {counter_thread(2), counter_thread(2)};
    w.commutative = true;
    w.invariant = [](const Outcome& o) { return expect_final(0, 4, o); };
  } else if (name == "counter3") {
    w.description = "3 threads x 1 increment of one shared word";
    w.num_words = 1;
    w.threads = {counter_thread(1), counter_thread(1), counter_thread(1)};
    w.commutative = true;
    w.invariant = [](const Outcome& o) { return expect_final(0, 3, o); };
  } else if (name == "cross") {
    w.description = "cross-copy: t0 does x=y+1 while t1 does y=x+1";
    w.num_words = 2;
    McThreadProgram t0, t1;
    t0.txns.push_back(McTxn{{{OpKind::kCopyAdd, 0, 1, 0, 0, 1, 0}}, false});
    t1.txns.push_back(McTxn{{{OpKind::kCopyAdd, 1, 0, 0, 0, 1, 0}}, false});
    w.threads = {t0, t1};
  } else if (name == "lock-protocol") {
    w.description = "trylock-guarded split RMW of a shared counter";
    w.num_words = 4;  // lock, data, scratch0, scratch1
    const bool bug = mutation == Mutation::kLockEarlyRelease;
    w.threads = {lock_thread(2, bug), lock_thread(3, bug)};
    w.invariant = [](const Outcome& o) -> std::optional<std::string> {
      std::uint64_t wins = 0;
      for (const auto& emits : o.emits) {
        for (std::uint64_t e : emits) wins += (e == 1) ? 1 : 0;
      }
      if (o.finals[1] == wins) return std::nullopt;
      std::ostringstream os;
      os << wins << " thread(s) entered the critical section but the "
         << "counter ended at " << o.finals[1] << " (lost update)";
      return os.str();
    };
  } else if (name == "ack-protocol") {
    w.description = "at-most-once delivery with retransmit + dedup guard";
    w.num_words = 4;  // msg, seen, data, ack
    const std::uint32_t guard =
        mutation == Mutation::kDroppedAck ? 3u : 1u;  // BUG: ack, not seen
    McThreadProgram sender, receiver;
    sender.txns.push_back(
        McTxn{{{OpKind::kStoreImm, 0, 0, 0, 0, 1, 0}}, false});
    // Retransmit: resend the message and clear the (possibly stale) ack.
    sender.txns.push_back(McTxn{{{OpKind::kStoreImm, 0, 0, 0, 0, 1, 0},
                                 {OpKind::kStoreImm, 3, 0, 0, 0, 0, 0}},
                                false});
    for (int i = 0; i < 2; ++i) {
      receiver.txns.push_back(
          McTxn{{{OpKind::kDeliverOnce, 0, guard, 2, 3, 5, 0}}, false});
    }
    w.threads = {sender, receiver};
    w.invariant = [](const Outcome& o) -> std::optional<std::string> {
      if (o.finals[2] == 0 || o.finals[2] == 5) return std::nullopt;
      std::ostringstream os;
      os << "message payload applied " << (o.finals[2] / 5)
         << " times (data=" << o.finals[2] << ", want 0 or 5)";
      return os.str();
    };
  } else if (name == "auto-escalate") {
    w.description = "2 threads x 2 contended increments (escalation path)";
    w.num_words = 1;
    w.threads = {counter_thread(2), counter_thread(2)};
    w.commutative = true;
    w.invariant = [](const Outcome& o) { return expect_final(0, 4, o); };
  } else if (name == "auto-window") {
    w.description = "asymmetric contended counter past the auto validation "
                    "window (34 + 2 increments)";
    w.num_words = 1;
    w.threads = {counter_thread(34), counter_thread(2)};
    w.commutative = true;
    w.invariant = [](const Outcome& o) { return expect_final(0, 36, o); };
  } else {
    AAM_CHECK_MSG(false, "unknown mc workload name");
  }
  w.init.assign(w.num_words, 0);
  AAM_CHECK(w.num_words <= 64);
  return w;
}

std::set<std::string> serial_outcomes(const McWorkload& workload) {
  std::set<std::string> out;
  SerialState st;
  st.words = workload.init;
  st.next.assign(workload.threads.size(), 0);
  st.terminated.assign(workload.threads.size(), 0);
  st.emits.resize(workload.threads.size());
  enumerate_serial(workload, st, out);
  return out;
}

std::vector<ThreadFootprint> thread_footprints(const McWorkload& workload) {
  std::vector<ThreadFootprint> out;
  for (const McThreadProgram& prog : workload.threads) {
    // One abstract interpretation per thread: a single symbolic region
    // over the word array, loads forking over {0, 1} so both sides of
    // every guard contribute (conditions only ever test zero/non-zero).
    analysis::Interpreter::Params params;
    params.chain = 32;  // cas failure forks consume widening budget
    analysis::Interpreter interp(params);
    std::vector<std::uint64_t> scratch(workload.num_words, 0);
    analysis::Region region;
    region.name = "words";
    region.label = "mc.words";
    region.base = reinterpret_cast<const std::byte*>(scratch.data());
    region.elem_bytes = sizeof(std::uint64_t);
    region.count = scratch.size();
    region.symbolic = true;
    region.classify = [](std::size_t) { return analysis::IndexClass::kSelf; };
    region.candidates = [](analysis::Interpreter&, std::size_t,
                           std::vector<analysis::Candidate>& cands) {
      cands.push_back({0, analysis::Candidate::Kind::kPlain});
      cands.push_back({1, analysis::Candidate::Kind::kPlain});
    };
    const int r = interp.register_region(region);
    for (const McTxn& txn : prog.txns) {
      interp.enumerate([&] {
        analysis::AbstractAccess acc(interp);
        for (const McOp& op : txn.ops) {
          apply_op(op, acc, scratch.data());
        }
      });
    }
    ThreadFootprint fp;
    for (std::size_t idx : interp.may_reads(r)) {
      fp.reads |= std::uint64_t{1} << idx;
    }
    for (std::size_t idx : interp.may_writes(r)) {
      fp.writes |= std::uint64_t{1} << idx;
    }
    out.push_back(fp);
  }
  return out;
}

}  // namespace aam::mc
