// ShardedEngine correctness: the match set must be invariant under the
// shard count (N = 1, 2, 8), merge order must be deterministic (sorted
// subscriber ids), batched and single-event dispatch must agree, and the
// engine must behave on the edge cases (empty engine, empty batch, every
// subscription hashed into one shard). Also covers the ThreadPool itself
// and the remove(id) contract.

#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "filter/naive_matcher.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/exact.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::clone_corpus;
using test::Corpus;
using test::make_corpus;
using test::MiniDomain;

std::vector<SubscriptionId> naive_reference(const Corpus& corpus, const Event& e) {
  NaiveMatcher naive;
  for (const auto& s : corpus.subs) naive.add(*s);
  std::vector<SubscriptionId> out;
  naive.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

ShardedEngineOptions counting_options(std::size_t shards) {
  ShardedEngineOptions options;
  options.shards = shards;
  return options;
}

TEST(ShardedEngineTest, ShardCountInvariance) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(101);
  Corpus corpus = make_corpus(dom, rng, 150, 0.25);
  const auto events = dom.random_events(rng, 200);

  const Corpus c1 = clone_corpus(corpus);
  const Corpus c2 = clone_corpus(corpus);
  const Corpus c8 = clone_corpus(corpus);
  ShardedEngine e1(dom.schema(), counting_options(1));
  ShardedEngine e2(dom.schema(), counting_options(2));
  ShardedEngine e8(dom.schema(), counting_options(8));
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    e1.add(*c1.subs[i]);
    e2.add(*c2.subs[i]);
    e8.add(*c8.subs[i]);
  }
  EXPECT_EQ(e1.shard_count(), 1u);
  EXPECT_EQ(e2.shard_count(), 2u);
  EXPECT_EQ(e8.shard_count(), 8u);

  for (const Event& e : events) {
    std::vector<SubscriptionId> m1, m2, m8;
    e1.match(e, m1);
    e2.match(e, m2);
    e8.match(e, m8);
    ASSERT_EQ(m1, m2);
    ASSERT_EQ(m1, m8);
    ASSERT_EQ(m1, naive_reference(corpus, e));
  }
}

TEST(ShardedEngineTest, BatchAgreesWithSingleEventDispatchAndIsSorted) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(202);
  Corpus corpus = make_corpus(dom, rng, 120, 0.2);
  const auto events = dom.random_events(rng, 150);

  ShardedEngine engine(dom.schema(), counting_options(8));
  for (auto& s : corpus.subs) engine.add(*s);

  const auto batch = engine.match_batch(events);
  ASSERT_EQ(batch.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<SubscriptionId> single;
    engine.match(events[i], single);
    EXPECT_EQ(batch[i], single) << "event " << i;
    EXPECT_TRUE(std::is_sorted(batch[i].begin(), batch[i].end()));
    EXPECT_EQ(std::adjacent_find(batch[i].begin(), batch[i].end()), batch[i].end())
        << "duplicate subscriber id";
  }

  // Determinism: a second batched run produces byte-identical results, and
  // the reusable-buffer overload agrees with the allocating one.
  std::vector<std::vector<SubscriptionId>> again;
  engine.match_batch(events, again);
  EXPECT_EQ(batch, again);
}

TEST(ShardedEngineTest, ConcurrentBatchesOnIndependentEnginesAgree) {
  // Two engines over the same subscriptions driven from two threads: safe
  // by the documented guarantee (distinct instances are independent), and
  // a data-race probe under ASan/TSan instrumentation.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(303);
  Corpus corpus = make_corpus(dom, rng, 100, 0.2);
  const auto events = dom.random_events(rng, 300);

  const Corpus corpus_b = clone_corpus(corpus);
  ShardedEngine a(dom.schema(), counting_options(4));
  ShardedEngine b(dom.schema(), counting_options(4));
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    a.add(*corpus.subs[i]);
    b.add(*corpus_b.subs[i]);
  }

  std::vector<std::vector<SubscriptionId>> ra, rb;
  std::thread ta([&] { a.match_batch(events, ra); });
  std::thread tb([&] { b.match_batch(events, rb); });
  ta.join();
  tb.join();
  EXPECT_EQ(ra, rb);
}

TEST(ShardedEngineTest, EmptyEngineAndEmptyBatch) {
  MiniDomain dom(4, 10);
  ShardedEngine engine(dom.schema(), counting_options(8));
  EXPECT_EQ(engine.subscription_count(), 0u);

  std::mt19937_64 rng(404);
  const auto events = dom.random_events(rng, 10);
  const auto batch = engine.match_batch(events);
  for (const auto& row : batch) EXPECT_TRUE(row.empty());

  const auto empty = engine.match_batch(std::span<const Event>{});
  EXPECT_TRUE(empty.empty());
}

TEST(ShardedEngineTest, AllSubscriptionsInOneShard) {
  // Pick ids that all hash into shard 0 of an 8-shard engine: 7 shards sit
  // idle and the merge degenerates to a copy — results must be unaffected.
  MiniDomain dom(5, 16);
  ShardedEngine engine(dom.schema(), counting_options(8));

  std::vector<SubscriptionId::value_type> ids;
  for (SubscriptionId::value_type v = 0; ids.size() < 40 && v < 100000; ++v) {
    if (engine.shard_of(SubscriptionId(v)) == 0) ids.push_back(v);
  }
  ASSERT_EQ(ids.size(), 40u) << "splitmix64 should reach shard 0 often enough";

  std::mt19937_64 rng(505);
  Corpus corpus;
  for (const auto v : ids) {
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(v), dom.random_tree(rng, 4, 0.2)));
    engine.add(*corpus.subs.back());
  }
  EXPECT_EQ(engine.counting_shard(0).subscription_count(), 40u);

  for (const Event& e : dom.random_events(rng, 100)) {
    std::vector<SubscriptionId> got;
    engine.match(e, got);
    EXPECT_EQ(got, naive_reference(corpus, e));
  }
}

TEST(ShardedEngineTest, RemoveAndContainsAcrossShards) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(606);
  Corpus corpus = make_corpus(dom, rng, 60, 0.1);
  ShardedEngine engine(dom.schema(), counting_options(4));
  for (auto& s : corpus.subs) engine.add(*s);
  EXPECT_EQ(engine.subscription_count(), 60u);

  for (std::size_t i = 0; i < corpus.subs.size(); i += 2) {
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_EQ(engine.subscription_count(), 30u);
  EXPECT_FALSE(engine.contains(SubscriptionId(0)));
  EXPECT_TRUE(engine.contains(SubscriptionId(1)));
  EXPECT_THROW(engine.remove(SubscriptionId(0)), std::out_of_range);

  for (const Event& e : dom.random_events(rng, 50)) {
    std::vector<SubscriptionId> got;
    engine.match(e, got);
    for (const auto id : got) EXPECT_EQ(id.value() % 2, 1u);
  }
}

TEST(ShardedEngineTest, FourShardsAgreeWithDirectNaiveMatcher) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(707);
  Corpus corpus = make_corpus(dom, rng, 80, /*not_prob=*/0.0);
  const auto events = dom.random_events(rng, 120);

  // The oracle evaluates the very same trees directly, unsharded.
  NaiveMatcher naive;
  ShardedEngine engine(dom.schema(), counting_options(4));
  for (auto& s : corpus.subs) {
    engine.add(*s);
    naive.add(*s);
  }

  const auto batched = engine.match_batch(events);
  ASSERT_EQ(batched.size(), events.size());
  std::vector<SubscriptionId> expected;
  for (std::size_t i = 0; i < events.size(); ++i) {
    expected.clear();
    naive.match(events[i], expected);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(batched[i], expected) << "event " << i;
  }

  EXPECT_THROW(static_cast<void>(engine.counting_shard(4)), std::out_of_range);
}

TEST(ShardedEngineTest, PerShardPruningKeepsMatchesASuperset) {
  // Prune every shard to full capacity: the pruned engine must match a
  // superset of the unpruned one (pruning only generalizes filters).
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(808);
  Corpus corpus = make_corpus(dom, rng, 80, 0.0);
  const auto events = dom.random_events(rng, 150);

  ShardedEngine engine(dom.schema(), counting_options(4));
  for (auto& s : corpus.subs) engine.add(*s);
  const auto before = engine.match_batch(events);

  const SelectivityEstimator estimator(
      [&events](const Predicate& p) { return measured_selectivity(p, events); });
  PruneEngineConfig config;
  config.dimension = PruneDimension::MemoryUsage;
  auto pruners =
      make_sharded_pruning_engines(engine, estimator, config, corpus.pointers());
  ASSERT_EQ(pruners.size(), 4u);
  std::size_t performed = 0;
  for (auto& p : pruners) performed += p->prune(p->total_possible());
  EXPECT_GT(performed, 0u);

  const auto after = engine.match_batch(events);
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_TRUE(std::includes(after[e].begin(), after[e].end(), before[e].begin(),
                              before[e].end()))
        << "pruning lost a match for event " << e;
  }
}

TEST(ShardedEngineTest, ResolveShardCountPrecedence) {
  // Explicit request wins over the environment.
  ASSERT_EQ(setenv("DBSP_SHARDS", "5", 1), 0);
  EXPECT_EQ(resolve_shard_count(3), 3u);
  EXPECT_EQ(resolve_shard_count(0), 5u);
  ASSERT_EQ(unsetenv("DBSP_SHARDS"), 0);
  // Without the knob, auto resolves to hardware concurrency (>= 1).
  EXPECT_GE(resolve_shard_count(0), 1u);
  EXPECT_EQ(resolve_shard_count(0), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker: tasks queue up behind each other
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must run everything before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] {});
  EXPECT_NO_THROW(f.get());
}

}  // namespace
}  // namespace dbsp
