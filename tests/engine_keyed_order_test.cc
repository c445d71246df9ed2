// Pins the exact emission order of every keyed wide operator. Each test
// compares the operator's output partitions, in order and element by
// element, against a naive reference built from plain loops: the reference
// scatters with PartitionOfKey itself (input partitions in order, elements
// in order), then applies the operator's per-partition semantics with
// linear scans, so no hash table's iteration order can leak into it. The
// engine canonicalizes every keyed build on first-occurrence order (see
// DESIGN.md, "The external execution determinism contract"); these tests
// hold it to that for the pool off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "engine/bag.h"
#include "engine/extra_ops.h"
#include "engine/join.h"
#include "engine/ops.h"
#include "engine/shuffle.h"

namespace matryoshka::engine {
namespace {

using internal::PartitionOfKey;

template <typename T>
using Parts = std::vector<std::vector<T>>;

ClusterConfig Config(bool parallel) {
  ClusterConfig cfg;
  cfg.num_machines = 4;
  cfg.cores_per_machine = 2;
  cfg.default_parallelism = 8;
  cfg.execute_parallel = parallel;
  cfg.pool_threads = 3;
  return cfg;
}

/// Duplicate keys within and across partitions; keys 0..22.
std::vector<std::pair<int64_t, int64_t>> LeftPairs() {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 300; ++i) kv.emplace_back((i * 7) % 23, i);
  return kv;
}

/// Duplicate keys; only the even keys 0..16, so the left side misses some.
std::vector<std::pair<int64_t, int64_t>> RightPairs() {
  std::vector<std::pair<int64_t, int64_t>> kv;
  for (int64_t i = 0; i < 90; ++i) kv.emplace_back(((i * 5) % 9) * 2, -i);
  return kv;
}

std::vector<int64_t> Ints(int64_t n, int64_t mod, int64_t mul) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < n; ++i) v.push_back((i * mul) % mod);
  return v;
}

/// The sequential scatter loop: input partitions in order, elements in
/// order, each to PartitionOfKey(key_of(x)).
template <typename T, typename KeyOf>
Parts<T> NaiveScatter(const Parts<T>& in, int64_t parts, KeyOf key_of) {
  Parts<T> out(static_cast<std::size_t>(parts));
  for (const auto& p : in) {
    for (const auto& x : p) out[PartitionOfKey(key_of(x), parts)].push_back(x);
  }
  return out;
}

template <typename K, typename V>
Parts<std::pair<K, V>> ScatterByKey(const Parts<std::pair<K, V>>& in,
                                    int64_t parts) {
  return NaiveScatter(in, parts,
                      [](const std::pair<K, V>& kv) { return kv.first; });
}

template <typename T>
Parts<T> ScatterByValue(const Parts<T>& in, int64_t parts) {
  return NaiveScatter(in, parts, [](const T& x) { return x; });
}

/// First-occurrence-ordered fold with linear key lookup: a new key opens
/// its accumulator with `init(v)`, later values fold in with `absorb`.
template <typename K, typename V, typename Init, typename Absorb>
auto NaiveFold(const std::vector<std::pair<K, V>>& in, Init init,
               Absorb absorb) {
  using Acc = decltype(init(in.front().second));
  std::vector<std::pair<K, Acc>> out;
  for (const auto& [k, v] : in) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&k](const auto& e) { return e.first == k; });
    if (it == out.end()) {
      out.emplace_back(k, init(v));
    } else {
      absorb(it->second, v);
    }
  }
  return out;
}

template <typename T>
std::vector<T> NaiveDedup(const std::vector<T>& in) {
  std::vector<T> out;
  for (const auto& x : in) {
    if (std::find(out.begin(), out.end(), x) == out.end()) out.push_back(x);
  }
  return out;
}

template <typename T>
bool Contains(const std::vector<T>& v, const T& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

template <typename T>
void ExpectPartitionsEqual(const Bag<T>& got, const Parts<T>& expected) {
  ASSERT_EQ(got.partitions().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got.partitions()[i], expected[i]) << "partition " << i;
  }
}

class KeyedOrderTest : public ::testing::TestWithParam<bool> {
 protected:
  KeyedOrderTest() : c_(Config(GetParam())) {}
  Cluster c_;
};

constexpr int64_t kParts = 5;

TEST_P(KeyedOrderTest, RepartitionJoinMatchesNestedLoops) {
  auto left = Parallelize(&c_, LeftPairs(), 4);
  auto right = Parallelize(&c_, RightPairs(), 3);
  auto got = RepartitionJoin(left, right, kParts);
  const auto ls = ScatterByKey(left.partitions(), kParts);
  const auto rs = ScatterByKey(right.partitions(), kParts);
  Parts<std::pair<int64_t, std::pair<int64_t, int64_t>>> expected(kParts);
  for (std::size_t i = 0; i < kParts; ++i) {
    for (const auto& [k, v] : ls[i]) {
      for (const auto& [rk, w] : rs[i]) {
        if (rk == k) expected[i].emplace_back(k, std::make_pair(v, w));
      }
    }
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, BroadcastJoinMatchesNestedLoops) {
  auto left = Parallelize(&c_, LeftPairs(), 4);
  auto right = Parallelize(&c_, RightPairs(), 3);
  auto got = BroadcastJoin(left, right);
  Parts<std::pair<int64_t, std::pair<int64_t, int64_t>>> expected(
      left.partitions().size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (const auto& [k, v] : left.partitions()[i]) {
      for (const auto& rp : right.partitions()) {
        for (const auto& [rk, w] : rp) {
          if (rk == k) expected[i].emplace_back(k, std::make_pair(v, w));
        }
      }
    }
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, LeftOuterJoinMatchesNestedLoops) {
  auto left = Parallelize(&c_, LeftPairs(), 4);
  auto right = Parallelize(&c_, RightPairs(), 3);
  auto got = LeftOuterJoin(left, right, kParts);
  const auto ls = ScatterByKey(left.partitions(), kParts);
  const auto rs = ScatterByKey(right.partitions(), kParts);
  Parts<std::pair<int64_t, std::pair<int64_t, std::optional<int64_t>>>>
      expected(kParts);
  bool any_miss = false;
  for (std::size_t i = 0; i < kParts; ++i) {
    for (const auto& [k, v] : ls[i]) {
      bool matched = false;
      for (const auto& [rk, w] : rs[i]) {
        if (rk != k) continue;
        matched = true;
        expected[i].emplace_back(
            k, std::make_pair(v, std::optional<int64_t>(w)));
      }
      if (!matched) {
        any_miss = true;
        expected[i].emplace_back(
            k, std::make_pair(v, std::optional<int64_t>()));
      }
    }
  }
  ASSERT_TRUE(any_miss);
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, CoGroupMatchesFirstOccurrenceLoops) {
  auto left = Parallelize(&c_, LeftPairs(), 4);
  auto right = Parallelize(&c_, RightPairs(), 3);
  auto got = CoGroup(left, right, kParts);
  const auto ls = ScatterByKey(left.partitions(), kParts);
  const auto rs = ScatterByKey(right.partitions(), kParts);
  using Groups = std::pair<std::vector<int64_t>, std::vector<int64_t>>;
  Parts<std::pair<int64_t, Groups>> expected(kParts);
  for (std::size_t i = 0; i < kParts; ++i) {
    // One stream, left elements then right elements.
    std::vector<std::pair<int64_t, std::pair<bool, int64_t>>> stream;
    for (const auto& [k, v] : ls[i]) stream.push_back({k, {true, v}});
    for (const auto& [k, w] : rs[i]) stream.push_back({k, {false, w}});
    auto push = [](Groups& g, const std::pair<bool, int64_t>& s) {
      (s.first ? g.first : g.second).push_back(s.second);
    };
    expected[i] = NaiveFold(
        stream,
        [&push](const std::pair<bool, int64_t>& s) {
          Groups g;
          push(g, s);
          return g;
        },
        push);
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, ReduceByKeyMatchesCombineScatterMerge) {
  auto bag = Parallelize(&c_, LeftPairs(), 4);
  auto sub = [](int64_t a, int64_t b) { return a - b; };  // order-sensitive
  auto got = ReduceByKey(bag, sub, kParts);
  auto init = [](int64_t v) { return v; };
  auto absorb = [&sub](int64_t& acc, int64_t v) { acc = sub(acc, v); };
  Parts<std::pair<int64_t, int64_t>> combined;
  for (const auto& p : bag.partitions()) {
    combined.push_back(NaiveFold(p, init, absorb));
  }
  Parts<std::pair<int64_t, int64_t>> expected;
  for (const auto& p : ScatterByKey(combined, kParts)) {
    expected.push_back(NaiveFold(p, init, absorb));
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, GroupByKeyMatchesFirstOccurrenceLoops) {
  auto bag = Parallelize(&c_, LeftPairs(), 4);
  auto got = GroupByKey(bag, kParts);
  Parts<std::pair<int64_t, std::vector<int64_t>>> expected;
  for (const auto& p : ScatterByKey(bag.partitions(), kParts)) {
    expected.push_back(NaiveFold(
        p, [](int64_t v) { return std::vector<int64_t>{v}; },
        [](std::vector<int64_t>& g, int64_t v) { g.push_back(v); }));
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, AggregateByKeyMatchesFoldScatterMerge) {
  std::vector<std::pair<int64_t, double>> kv;
  for (int64_t i = 0; i < 400; ++i) {
    kv.emplace_back((i * 11) % 29, 1.0 / static_cast<double>(i + 3));
  }
  auto bag = Parallelize(&c_, kv, 4);
  // Non-associative: the result depends on the exact fold order.
  auto seq = [](double acc, double v) { return acc * 0.5 + v; };
  auto comb = [](double a, double b) { return a * 0.25 + b; };
  const double zero = 1.0;
  auto got = AggregateByKey(bag, zero, seq, comb, kParts);
  Parts<std::pair<int64_t, double>> partials;
  for (const auto& p : bag.partitions()) {
    partials.push_back(NaiveFold(
        p, [&](double v) { return seq(zero, v); },
        [&](double& acc, double v) { acc = seq(acc, v); }));
  }
  auto merge_init = [](double v) { return v; };
  auto merge = [&](double& acc, double v) { acc = comb(acc, v); };
  Parts<std::pair<int64_t, double>> combined;
  for (const auto& p : partials) {
    combined.push_back(NaiveFold(p, merge_init, merge));
  }
  Parts<std::pair<int64_t, double>> expected;
  for (const auto& p : ScatterByKey(combined, kParts)) {
    expected.push_back(NaiveFold(p, merge_init, merge));
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, DistinctMatchesPreDedupScatterDedup) {
  auto bag = Parallelize(&c_, Ints(500, 61, 13), 4);
  auto got = Distinct(bag, kParts);
  Parts<int64_t> pre;
  for (const auto& p : bag.partitions()) pre.push_back(NaiveDedup(p));
  Parts<int64_t> expected;
  for (const auto& p : ScatterByValue(pre, kParts)) {
    expected.push_back(NaiveDedup(p));
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, SubtractMatchesScanLoops) {
  auto a = Parallelize(&c_, Ints(400, 50, 7), 4);
  auto b = Parallelize(&c_, Ints(60, 50, 3), 3);
  auto got = Subtract(a, b, kParts);
  const auto as = ScatterByValue(a.partitions(), kParts);
  const auto bs = ScatterByValue(b.partitions(), kParts);
  Parts<int64_t> expected(kParts);
  for (std::size_t i = 0; i < kParts; ++i) {
    for (int64_t x : as[i]) {
      if (!Contains(bs[i], x)) expected[i].push_back(x);
    }
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

TEST_P(KeyedOrderTest, IntersectionMatchesScanLoops) {
  auto a = Parallelize(&c_, Ints(400, 50, 7), 4);
  auto b = Parallelize(&c_, Ints(60, 50, 3), 3);
  auto got = Intersection(a, b, kParts);
  const auto as = ScatterByValue(a.partitions(), kParts);
  const auto bs = ScatterByValue(b.partitions(), kParts);
  Parts<int64_t> expected(kParts);
  for (std::size_t i = 0; i < kParts; ++i) {
    for (int64_t x : as[i]) {
      if (Contains(bs[i], x) && !Contains(expected[i], x)) {
        expected[i].push_back(x);
      }
    }
  }
  ASSERT_TRUE(c_.ok());
  ExpectPartitionsEqual(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Pools, KeyedOrderTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "pool" : "serial";
                         });

}  // namespace
}  // namespace matryoshka::engine
