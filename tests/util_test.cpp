#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/blob.hpp"
#include "util/cli.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace aam::util {
namespace {

// ----------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.next_below(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleApproximatelyUniform) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng root(5);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root(5);
  Rng a = root.fork(9);
  Rng b = root.fork(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(21);
  bool lo = false, hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo |= (v == 3);
    hi |= (v == 5);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

// --------------------------------------------------------------- Stats

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 32; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i + 42.0);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 42.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHighR2) {
  Rng rng(17);
  std::vector<double> xs, ys;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 10.0 + (rng.next_double() - 0.5));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(Crossover, HtmBeatsAtomicsBeyondN) {
  // The §5.3 shape: HTM has higher intercept, lower slope.
  LinearFit htm{/*slope=*/6.0, /*intercept=*/45.0, 1.0};
  LinearFit atomics{/*slope=*/22.0, /*intercept=*/0.0, 1.0};
  const double x = crossover(htm, atomics);
  EXPECT_NEAR(x, 45.0 / 16.0, 1e-9);
  // Beyond the crossover HTM is cheaper.
  EXPECT_LT(htm.eval(x + 1), atomics.eval(x + 1));
  EXPECT_GT(htm.eval(x - 1), atomics.eval(x - 1));
}

TEST(Crossover, NeverWins) {
  LinearFit a{10.0, 50.0, 1.0};
  LinearFit b{5.0, 0.0, 1.0};
  EXPECT_LT(crossover(a, b), 0.0);
}

TEST(Crossover, AlwaysWins) {
  LinearFit a{1.0, 0.0, 1.0};
  LinearFit b{5.0, 10.0, 1.0};
  EXPECT_DOUBLE_EQ(crossover(a, b), 0.0);
}

// ----------------------------------------------------------------- Cli

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7.5", "--flag",
                        "--name=x,y"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 7.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("name", ""), "x,y");
  EXPECT_EQ(cli.get_int("missing", 99), 99);
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--sizes=1,2,16"};
  Cli cli(2, const_cast<char**>(argv));
  const auto v = cli.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 16);
  const auto d = cli.get_int_list("other", {5});
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], 5);
}

TEST(Cli, HexIntegersStayValid) {
  const char* argv[] = {"prog", "--mask=0x10", "--sizes=0x2,3"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("mask", 0), 16);
  EXPECT_EQ(cli.get_int_list("sizes", {}), (std::vector<std::int64_t>{2, 3}));
}

TEST(Cli, BoolAcceptsEverySpelling) {
  for (const char* on : {"true", "1", "yes", "on"}) {
    const std::string arg = std::string("--json=") + on;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_TRUE(cli.get_bool("json", false)) << on;
  }
  for (const char* off : {"false", "0", "no", "off"}) {
    const std::string arg = std::string("--json=") + off;
    const char* argv[] = {"prog", arg.c_str()};
    Cli cli(2, const_cast<char**>(argv));
    EXPECT_FALSE(cli.get_bool("json", true)) << off;
  }
}

/// Parses `arg` as the only flag and reads it back with `get`.
template <typename Get>
void parse_one(const char* arg, Get get) {
  const char* argv[] = {"prog", arg};
  Cli cli(2, const_cast<char**>(argv));
  get(cli);
}

TEST(CliDeathTest, MalformedIntegersExitTwo) {
  const auto get_scale = [](Cli& cli) { cli.get_int("scale", 1); };
  EXPECT_EXIT(parse_one("--scale=abc", get_scale),
              ::testing::ExitedWithCode(2),
              "invalid --scale=abc; expected an integer");
  EXPECT_EXIT(parse_one("--scale=12x", get_scale),
              ::testing::ExitedWithCode(2),
              "invalid --scale=12x; expected an integer");
  EXPECT_EXIT(parse_one("--scale=1e3", get_scale),
              ::testing::ExitedWithCode(2),
              "invalid --scale=1e3; expected an integer");
  EXPECT_EXIT(parse_one("--scale=", get_scale), ::testing::ExitedWithCode(2),
              "invalid --scale=; expected an integer");
  EXPECT_EXIT(parse_one("--scale=99999999999999999999", get_scale),
              ::testing::ExitedWithCode(2), "expected an integer");
  // A value-less flag is stored as "true", which is not a number.
  EXPECT_EXIT(parse_one("--scale", get_scale), ::testing::ExitedWithCode(2),
              "invalid --scale=true; expected an integer");
}

TEST(CliDeathTest, MalformedNumbersExitTwo) {
  const auto get_p = [](Cli& cli) { cli.get_double("p", 0.5); };
  EXPECT_EXIT(parse_one("--p=0.5x", get_p), ::testing::ExitedWithCode(2),
              "invalid --p=0.5x; expected a number");
  EXPECT_EXIT(parse_one("--p=", get_p), ::testing::ExitedWithCode(2),
              "invalid --p=; expected a number");
  EXPECT_EXIT(parse_one("--p=1e999", get_p), ::testing::ExitedWithCode(2),
              "expected a number");
}

TEST(CliDeathTest, MalformedBoolsExitTwo) {
  const auto get_json = [](Cli& cli) { cli.get_bool("json", false); };
  EXPECT_EXIT(parse_one("--json=TRUE", get_json), ::testing::ExitedWithCode(2),
              "invalid --json=TRUE; expected true/false/1/0/yes/no/on/off");
  EXPECT_EXIT(parse_one("--json=flase", get_json),
              ::testing::ExitedWithCode(2), "invalid --json=flase");
  EXPECT_EXIT(parse_one("--json=", get_json), ::testing::ExitedWithCode(2),
              "invalid --json=;");
}

TEST(CliDeathTest, MalformedIntListsExitTwo) {
  const auto get_sizes = [](Cli& cli) { cli.get_int_list("sizes", {}); };
  EXPECT_EXIT(parse_one("--sizes=1,x,3", get_sizes),
              ::testing::ExitedWithCode(2),
              "invalid --sizes=1,x,3; expected a comma-separated list");
  EXPECT_EXIT(parse_one("--sizes=1,,3", get_sizes),
              ::testing::ExitedWithCode(2), "expected a comma-separated list");
  EXPECT_EXIT(parse_one("--sizes=", get_sizes), ::testing::ExitedWithCode(2),
              "expected a comma-separated list");
}

// --------------------------------------------------------------- Table

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(3.14159, 2);
  t.row().cell("beta").cell(std::uint64_t{42});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("beta,42"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a"});
  t.row().cell("x,y\"z");
  EXPECT_NE(t.to_csv().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Format, TimeUnits) {
  EXPECT_EQ(format_time_ns(12.0), "12.0 ns");
  EXPECT_EQ(format_time_ns(1500.0), "1.50 us");
  EXPECT_EQ(format_time_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(format_time_ns(3.2e9), "3.200 s");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

TEST(Blob, RoundTripsEmptyAndNonEmptyVectors) {
  BlobWriter w;
  w.put_vector(std::vector<std::uint32_t>{});
  w.put_vector(std::vector<std::uint64_t>{7, 8, 9});
  w.put_vector(std::vector<std::uint8_t>{});
  BlobReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<std::uint32_t>().empty());
  EXPECT_EQ(r.get_vector<std::uint64_t>(),
            (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_TRUE(r.get_vector<std::uint8_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

/// A component with a nested durable part and fields of every encoding.
struct Inner {
  std::uint32_t id = 0;
  std::vector<std::uint64_t> items;

  void durable(BlobIo& io) { io(id, items); }
};

enum class Level : int { kLow = 1, kHigh = 200 };

struct Outer {
  double clock = 0;
  bool flag = false;
  Level level = Level::kLow;
  Inner inner;
  std::deque<Inner> queue;
  std::map<std::uint64_t, Inner> pending;
  std::set<std::uint64_t> seen;
  std::vector<Inner> fixed = std::vector<Inner>(2);

  void durable(BlobIo& io) {
    io(clock, flag);
    io.as<std::uint8_t>(level);
    io(inner, queue, pending, seen);
    io.each(fixed, "fixed size changed");
  }
};

Outer sample_outer() {
  Outer o;
  o.clock = 2.5;
  o.flag = true;
  o.level = Level::kHigh;
  o.inner = {7, {1, 2, 3}};
  o.queue = {{1, {}}, {2, {9}}};
  o.pending = {{4, {5, {6}}}, {8, {9, {}}}};
  o.seen = {11, 3};
  o.fixed = {{21, {22}}, {23, {}}};
  return o;
}

std::vector<std::uint8_t> save_bytes(Outer& o) {
  BlobWriter w;
  BlobIo io(w);
  o.durable(io);
  return w.take();
}

TEST(BlobIo, RoundTripsScalarsVectorsContainersAndNestedDurables) {
  Outer saved = sample_outer();
  const std::vector<std::uint8_t> bytes = save_bytes(saved);

  Outer back;
  back.queue = {{99, {99}}};  // restoring replaces, not appends
  back.seen = {42};
  BlobReader r(bytes);
  BlobIo io(r);
  back.durable(io);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.clock, 2.5);
  EXPECT_TRUE(back.flag);
  EXPECT_EQ(back.level, Level::kHigh);
  EXPECT_EQ(back.inner.id, 7u);
  EXPECT_EQ(back.inner.items, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(back.queue.size(), 2u);
  EXPECT_EQ(back.queue[1].id, 2u);
  EXPECT_EQ(back.queue[1].items, (std::vector<std::uint64_t>{9}));
  ASSERT_EQ(back.pending.size(), 2u);
  EXPECT_EQ(back.pending.at(4).id, 5u);
  EXPECT_EQ(back.pending.at(4).items, (std::vector<std::uint64_t>{6}));
  EXPECT_EQ(back.seen, (std::set<std::uint64_t>{3, 11}));
  EXPECT_EQ(back.fixed[0].items, (std::vector<std::uint64_t>{22}));
  EXPECT_EQ(back.fixed[1].id, 23u);
  // Saving the restored copy reproduces the bytes.
  EXPECT_EQ(save_bytes(back), bytes);
}

TEST(BlobIo, OutputEqualsTheHandWrittenWriterSequence) {
  Outer o = sample_outer();
  BlobWriter w;
  w.put<double>(2.5);
  w.put<std::uint8_t>(1);
  w.put<std::uint8_t>(200);
  w.put<std::uint32_t>(7);
  w.put_vector(std::vector<std::uint64_t>{1, 2, 3});
  w.put<std::uint64_t>(2);  // queue
  w.put<std::uint32_t>(1);
  w.put_vector(std::vector<std::uint64_t>{});
  w.put<std::uint32_t>(2);
  w.put_vector(std::vector<std::uint64_t>{9});
  w.put<std::uint64_t>(2);  // pending, in key order
  w.put<std::uint64_t>(4);
  w.put<std::uint32_t>(5);
  w.put_vector(std::vector<std::uint64_t>{6});
  w.put<std::uint64_t>(8);
  w.put<std::uint32_t>(9);
  w.put_vector(std::vector<std::uint64_t>{});
  w.put<std::uint64_t>(2);  // seen, in order
  w.put<std::uint64_t>(3);
  w.put<std::uint64_t>(11);
  w.put<std::uint64_t>(2);  // fixed: the checked count, then each element
  w.put<std::uint32_t>(21);
  w.put_vector(std::vector<std::uint64_t>{22});
  w.put<std::uint32_t>(23);
  w.put_vector(std::vector<std::uint64_t>{});
  EXPECT_EQ(save_bytes(o), w.bytes());
}

TEST(BlobIo, NonzeroBoolByteRestoresAsTrue) {
  BlobWriter w;
  w.put<std::uint8_t>(0x7f);
  w.put<std::uint8_t>(0);
  bool on = false;
  bool off = true;
  BlobReader r(w.bytes());
  BlobIo io(r);
  io(on, off);
  EXPECT_TRUE(on);
  EXPECT_FALSE(off);
  EXPECT_TRUE(r.exhausted());
}

TEST(BlobIo, ElementsCarryNoLengthPrefix) {
  std::uint64_t words[3] = {1, 2, 3};
  BlobWriter w;
  BlobIo save(w);
  save.elements(std::span<std::uint64_t>(words));
  EXPECT_EQ(w.size(), sizeof(words));

  std::uint64_t back[3] = {};
  BlobReader r(w.bytes());
  BlobIo restore(r);
  restore.elements(std::span<std::uint64_t>(back));
  EXPECT_EQ(back[2], 3u);
  EXPECT_TRUE(r.exhausted());
}

// A class stored whole must have no padding; a padded one lists its
// fields. Scalars pass by kind (float and double have no unique object
// representation).
struct Padded {
  std::uint32_t id;
  double value;
};
struct PaddedWithFields {
  std::uint32_t id;
  double value;
  void durable(BlobIo& io) { io(id, value); }
};
struct Flat {
  std::uint32_t a;
  std::uint32_t b;
};
static_assert(!BlobBytes<Padded>);
static_assert(!BlobBytes<PaddedWithFields>);
static_assert(BlobBytes<Flat>);
static_assert(BlobBytes<double>);
static_assert(BlobBytes<float[4]>);
static_assert(BlobBytes<Level>);

TEST(BlobIo, PaddingNeverReachesTheBlob) {
  // The same value built over storage pre-filled with 0xAB and with 0x00.
  const auto saved = [](unsigned char fill) {
    alignas(PaddedWithFields) unsigned char storage[sizeof(PaddedWithFields)];
    std::memset(storage, fill, sizeof storage);
    auto* p = new (storage) PaddedWithFields;
    p->id = 7;
    p->value = 1.5;
    std::vector<PaddedWithFields> many(2, *p);
    BlobWriter w;
    BlobIo io(w);
    io(*p, many);
    return w.take();
  };
  const std::vector<std::uint8_t> clean = saved(0x00);
  EXPECT_EQ(saved(0xAB), clean);
  // Fields only: 4 + 8 bytes, then the vector's length and its elements.
  EXPECT_EQ(clean.size(), 12u + 8u + 2u * 12u);
}

TEST(BlobIoDeathTest, CountMismatchOnRestoreAbortsWithItsDiagnostic) {
  Outer saved = sample_outer();
  const std::vector<std::uint8_t> bytes = save_bytes(saved);
  EXPECT_DEATH(
      {
        Outer back;
        back.fixed.resize(3);
        BlobReader r(bytes);
        BlobIo io(r);
        back.durable(io);
      },
      "fixed size changed");
}

TEST(BlobDeathTest, WrappingVectorLengthIsTruncation) {
  // 2^61 + 1 elements of 8 bytes wrap n * 8 around to 8, which the one
  // element that follows would satisfy if the check multiplied.
  BlobWriter w;
  w.put<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  w.put<std::uint64_t>(42);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_DEATH(
      {
        BlobReader r(bytes);
        (void)r.get_vector<std::uint64_t>();
      },
      "truncated snapshot blob");
}

TEST(BlobDeathTest, ShortVectorIsTruncation) {
  BlobWriter w;
  w.put_vector(std::vector<std::uint64_t>{1, 2});
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  EXPECT_DEATH(
      {
        BlobReader r(bytes);
        (void)r.get_vector<std::uint64_t>();
      },
      "truncated snapshot blob");
}

// ------------------------------------------------------- InlineFunction

/// Counts live instances and the copies/moves that made them, so a test
/// can check that every captured object is destroyed exactly once.
struct Tracked {
  static inline int live = 0;
  static inline int copies = 0;
  static inline int moves = 0;
  static inline int destroyed = 0;
  static void reset() { live = copies = moves = destroyed = 0; }

  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) {
    ++live;
    ++copies;
  }
  Tracked(Tracked&& o) noexcept : value(o.value) {
    ++live;
    ++moves;
  }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() {
    --live;
    ++destroyed;
  }
  int value;
};

using IntFn = InlineFunction<int(int), 64>;

TEST(InlineFunction, EmptyStateAndNullptr) {
  IntFn empty;
  EXPECT_FALSE(empty);
  IntFn null_fn = nullptr;
  EXPECT_FALSE(null_fn);
  EXPECT_THROW(empty(1), std::bad_function_call);
  IntFn fn = [](int x) { return x + 1; };
  EXPECT_TRUE(fn);
  EXPECT_EQ(fn(41), 42);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(InlineFunction, CopiesAndMovesDestroyEachCaptureOnce) {
  Tracked::reset();
  {
    IntFn a = [t = Tracked(5)](int x) { return t.value + x; };
    EXPECT_EQ(Tracked::live, 1);  // the lambda's temporary is gone
    IntFn b = a;                  // copy construct
    EXPECT_EQ(Tracked::copies, 1);
    EXPECT_EQ(Tracked::live, 2);
    IntFn c = std::move(a);  // move construct empties the source
    EXPECT_FALSE(a);
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(b(1), 6);
    EXPECT_EQ(c(2), 7);
  }
  EXPECT_EQ(Tracked::live, 0);
  // Every instance ever made was destroyed exactly once.
  EXPECT_EQ(Tracked::destroyed, 1 + Tracked::copies + Tracked::moves);
}

TEST(InlineFunction, CopyAndMoveAssignmentReleaseTheOldTarget) {
  Tracked::reset();
  {
    IntFn a = [t = Tracked(1)](int x) { return t.value * x; };
    IntFn b = [t = Tracked(2)](int x) { return t.value * x; };
    EXPECT_EQ(Tracked::live, 2);
    b = a;  // copy assign: b's old capture dies, a's is copied
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(b(10), 10);
    IntFn c = [t = Tracked(3)](int x) { return t.value * x; };
    c = std::move(b);  // move assign: c's old capture dies
    EXPECT_FALSE(b);
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(c(10), 10);
    const IntFn& same = c;
    c = same;  // self-assignment keeps the target
    EXPECT_EQ(c(3), 3);
    a = nullptr;  // drops the last copy of the first capture
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 3 + Tracked::copies + Tracked::moves);
}

TEST(InlineFunction, StatefulTargetKeepsStateAcrossCalls) {
  IntFn counter = [n = 0](int step) mutable { return n += step; };
  EXPECT_EQ(counter(1), 1);
  EXPECT_EQ(counter(2), 3);
  EXPECT_EQ(counter(3), 6);
  // A copy snapshots the state; the two then evolve independently.
  IntFn copy = counter;
  EXPECT_EQ(copy(10), 16);
  EXPECT_EQ(counter(1), 7);
}

TEST(InlineFunction, HoldsCapturesUpToItsCapacity) {
  struct Big {
    std::uint64_t words[8];
  };
  static_assert(sizeof(Big) == 64);
  Big big{};
  for (int i = 0; i < 8; ++i) big.words[i] = static_cast<std::uint64_t>(i);
  InlineFunction<std::uint64_t(), 64> fn = [big] {
    std::uint64_t sum = 0;
    for (auto w : big.words) sum += w;
    return sum;
  };
  EXPECT_EQ(fn(), 28u);
}

}  // namespace
}  // namespace aam::util
