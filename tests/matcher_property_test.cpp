// Property tests: the CountingMatcher must agree with the NaiveMatcher
// (direct tree evaluation) on arbitrary subscription corpora and event
// streams — including NOT-bearing subscriptions (pmin = 0 paths), slot
// reuse, predicates repeated across leaves, the trigger-off ablation mode
// and arbitrary pruning/reindex churn. The matcher keeps no copy of a tree:
// it releases references from the compiled program, so the registry's
// leaf counts are checked against the live trees after every change.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "core/candidates.hpp"
#include "filter/counting_matcher.hpp"
#include "filter/dnf_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "test_util.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace dbsp {
namespace {

using test::Corpus;
using test::make_corpus;
using test::MiniDomain;

// Sum of associations_of() over MatcherAssociations' seeded auction corpus,
// as registered and after pruning every other tree once.
constexpr std::size_t kAuctionAssociations = 2459;
constexpr std::size_t kAuctionAssociationsPruned = 2178;

std::vector<SubscriptionId> sorted_match(CountingMatcher& m, const Event& e) {
  std::vector<SubscriptionId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SubscriptionId> sorted_match(const NaiveMatcher& m, const Event& e) {
  std::vector<SubscriptionId> out;
  m.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts the matcher's references equal the live trees' leaf multisets:
/// per subscription, associations_of() is its distinct predicate count;
/// per predicate, the registry's reference count is the number of live
/// leaves carrying it, and no other predicate is live.
void expect_refs_match_trees(const CountingMatcher& m,
                             const std::vector<const Subscription*>& live) {
  std::size_t total = 0;
  std::map<PredicateId::value_type, std::uint64_t> refs;
  for (const Subscription* s : live) {
    std::map<PredicateId::value_type, std::uint32_t> leaves;
    s->root().for_each_leaf([&](const Node& leaf) { ++leaves[leaf.predicate_id().value()]; });
    EXPECT_EQ(m.associations_of(s->id()), leaves.size()) << "sub " << s->id().value();
    for (const auto& [pid, count] : leaves) refs[pid] += count;
    total += leaves.size();
  }
  for (const auto& [pid, count] : refs) {
    EXPECT_EQ(m.registry().references(PredicateId(pid)), count) << "pred " << pid;
  }
  EXPECT_EQ(m.live_predicates(), refs.size());
  EXPECT_EQ(m.association_count(), total);
}

std::vector<const Subscription*> live_subs(const Corpus& corpus, const std::vector<bool>& alive) {
  std::vector<const Subscription*> out;
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    if (alive[i]) out.push_back(corpus.subs[i].get());
  }
  return out;
}

class MatcherEquivalence : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MatcherEquivalence, CountingEqualsNaive) {
  const auto [seed, not_prob] = GetParam();
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  Corpus corpus = make_corpus(dom, rng, 120, not_prob);

  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  for (const auto& e : dom.random_events(rng, 250)) {
    EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MatcherEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.25)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_not" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(MatcherEquivalenceChurn, EquivalenceHoldsUnderPruningAndRemoval) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(4242);
  Corpus corpus = make_corpus(dom, rng, 80, 0.15);

  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }

  std::vector<bool> alive(corpus.subs.size(), true);
  for (int round = 0; round < 30; ++round) {
    // Random churn: prune a random subscription or remove one.
    for (int k = 0; k < 5; ++k) {
      const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
      if (!alive[i]) continue;
      Subscription& s = *corpus.subs[i];
      if (rng() % 4 == 0) {
        counting.remove(s);
        naive.remove(s.id());
        alive[i] = false;
        continue;
      }
      const auto candidates = enumerate_prunings(s.root());
      if (candidates.empty()) continue;
      const auto& path = candidates[rng() % candidates.size()];
      apply_pruning(s, path);
      counting.reindex(s);
    }
    for (const auto& e : dom.random_events(rng, 40)) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
  }
}

TEST(MatcherRemoveParity, UniformRemoveByIdAcrossAllThreeMatchers) {
  // All three matchers expose remove(SubscriptionId) with identical
  // semantics: removing an id unregisters exactly that subscription, and
  // removing an unknown id throws std::out_of_range.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(909);
  Corpus corpus = make_corpus(dom, rng, 100, /*not_prob=*/0.0);  // DNF-convertible

  CountingMatcher counting(dom.schema());
  DnfMatcher dnf(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    ASSERT_TRUE(dnf.add(*s));
    naive.add(*s);
  }

  // Remove every third subscription through the uniform id-based API.
  std::vector<bool> alive(corpus.subs.size(), true);
  for (std::size_t i = 0; i < corpus.subs.size(); i += 3) {
    const SubscriptionId id = corpus.subs[i]->id();
    counting.remove(id);
    dnf.remove(id);
    naive.remove(id);
    alive[i] = false;
  }
  EXPECT_EQ(counting.subscription_count(), naive.subscription_count());
  EXPECT_EQ(dnf.subscription_count(), naive.subscription_count());

  // A second remove of the same id is out-of-range on every matcher.
  const SubscriptionId gone = corpus.subs[0]->id();
  EXPECT_THROW(counting.remove(gone), std::out_of_range);
  EXPECT_THROW(dnf.remove(gone), std::out_of_range);
  EXPECT_THROW(naive.remove(gone), std::out_of_range);
  EXPECT_FALSE(counting.contains(gone));
  EXPECT_FALSE(dnf.contains(gone));
  EXPECT_FALSE(naive.contains(gone));

  // Post-removal match sets agree and never contain a removed id.
  for (const auto& e : dom.random_events(rng, 100)) {
    std::vector<SubscriptionId> from_dnf;
    dnf.match(e, from_dnf);
    std::sort(from_dnf.begin(), from_dnf.end());
    const auto expected = sorted_match(naive, e);
    EXPECT_EQ(sorted_match(counting, e), expected);
    EXPECT_EQ(from_dnf, expected);
    for (const auto id : expected) EXPECT_TRUE(alive[id.value()]);
  }
}

TEST(MatcherEquivalenceAuction, RealWorkloadAgreesWithNaive) {
  // The full auction workload (all operators incl. strings, In, Between).
  WorkloadConfig cfg;
  cfg.seed = 7;
  cfg.titles = 200;
  cfg.authors = 80;
  cfg.not_probability = 0.1;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator sub_gen(domain);
  AuctionEventGenerator event_gen(domain);

  CountingMatcher counting(domain.schema());
  NaiveMatcher naive;
  std::vector<std::unique_ptr<Subscription>> subs;
  for (std::uint32_t i = 0; i < 400; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    counting.add(*subs.back());
    naive.add(*subs.back());
  }
  for (const auto& e : event_gen.generate(300)) {
    EXPECT_EQ(sorted_match(counting, e), sorted_match(naive, e));
  }
}

TEST(MatcherSlotReuse, DifferentTreeInFreedSlotNeverRunsStaleProgram) {
  // Freed slots are reused last-in first-out, so every add below lands in
  // the slot just vacated. Each replacement tree is drawn independently of
  // the removed one (other predicates, other pmin, NOT or not), so a stale
  // program or a stale always-evaluate entry would show as a mismatch.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(5150);
  Corpus corpus = make_corpus(dom, rng, 60, 0.3);
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  std::vector<bool> alive(corpus.subs.size(), true);
  std::uniform_int_distribution<std::size_t> leaves(1, 9);
  for (int round = 0; round < 40; ++round) {
    const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
    if (!alive[i]) continue;
    counting.remove(*corpus.subs[i]);
    naive.remove(corpus.subs[i]->id());
    alive[i] = false;
    const auto id = static_cast<SubscriptionId::value_type>(corpus.subs.size());
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(id), dom.random_tree(rng, leaves(rng), round % 2 == 0 ? 0.6 : 0.0)));
    alive.push_back(true);
    counting.add(*corpus.subs.back());
    naive.add(*corpus.subs.back());
    for (const auto& e : dom.random_events(rng, 20)) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
    expect_refs_match_trees(counting, live_subs(corpus, alive));
  }
  EXPECT_EQ(counting.subscription_count(), naive.subscription_count());
}

TEST(MatcherAlwaysEvaluated, PminZeroTreesJoinAndLeaveTheAlwaysList) {
  // NOT-heavy trees: many have pmin 0 and can match with no fulfilled
  // predicate at all. They must be evaluated on every event, and removal
  // or a pruning that changes pmin must move them on or off that list.
  MiniDomain dom(4, 12);
  std::mt19937_64 rng(77);
  Corpus corpus = make_corpus(dom, rng, 80, 0.7, 6);
  for (std::uint32_t i = 0; i < 10; ++i) {  // NOT-only trees
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(corpus.subs.size())),
        Node::not_(Node::leaf(dom.random_predicate(rng)))));
  }
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  std::vector<bool> alive(corpus.subs.size(), true);
  const auto pmin_zero = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
      if (alive[i] && corpus.subs[i]->root().pmin() == 0) ++n;
    }
    return n;
  };
  ASSERT_GE(pmin_zero(), 10u);

  for (int round = 0; round < 20; ++round) {
    counting.reset_counters();
    const auto events = dom.random_events(rng, 30);
    for (const auto& e : events) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
    // Every pmin-0 tree was evaluated on every event, besides the
    // triggered ones.
    EXPECT_GE(counting.counters().tree_evaluations, pmin_zero() * events.size());
    for (int k = 0; k < 4; ++k) {
      const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
      if (!alive[i]) continue;
      Subscription& s = *corpus.subs[i];
      if (k == 0) {
        counting.remove(s);
        naive.remove(s.id());
        alive[i] = false;
        continue;
      }
      const auto candidates = enumerate_prunings(s.root());
      if (candidates.empty()) continue;
      apply_pruning(s, candidates[rng() % candidates.size()]);
      counting.reindex(s);
    }
    expect_refs_match_trees(counting, live_subs(corpus, alive));
  }
}

TEST(MatcherRepeatedPredicates, LeafCountsRebuiltFromTheProgram) {
  // Two attributes over three values give few distinct predicates, so most
  // trees carry one predicate in several leaves. Reindex and remove rebuild
  // the (predicate, leaf count) multiset from the compiled program; every
  // reference must come back, down to an empty registry.
  MiniDomain dom(2, 3);
  std::mt19937_64 rng(31337);
  Corpus corpus = make_corpus(dom, rng, 70, 0.2, 12);
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  std::vector<bool> alive(corpus.subs.size(), true);
  std::size_t repeated = 0;
  for (const auto& s : corpus.subs) {
    if (counting.associations_of(s->id()) < s->root().leaf_count()) ++repeated;
  }
  ASSERT_GE(repeated, 20u);
  expect_refs_match_trees(counting, live_subs(corpus, alive));

  for (int round = 0; round < 25; ++round) {
    for (int k = 0; k < 4; ++k) {
      const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
      if (!alive[i]) continue;
      Subscription& s = *corpus.subs[i];
      const auto candidates = enumerate_prunings(s.root());
      if (candidates.empty()) continue;
      apply_pruning(s, candidates[rng() % candidates.size()]);
      counting.reindex(s);
    }
    if (round % 5 == 4) {
      const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
      if (alive[i]) {
        counting.remove(*corpus.subs[i]);
        naive.remove(corpus.subs[i]->id());
        alive[i] = false;
      }
    }
    expect_refs_match_trees(counting, live_subs(corpus, alive));
    for (const auto& e : dom.random_events(rng, 15)) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
  }
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    if (alive[i]) counting.remove(*corpus.subs[i]);
  }
  EXPECT_EQ(counting.association_count(), 0u);
  EXPECT_EQ(counting.live_predicates(), 0u);
}

TEST(MatcherAblation, TriggerOffEvaluatesEveryLiveTreeAndStaysExact) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(2024);
  Corpus corpus = make_corpus(dom, rng, 90, 0.2);
  CountingMatcher counting(dom.schema());
  counting.set_pmin_trigger(false);
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  std::vector<bool> alive(corpus.subs.size(), true);
  std::uniform_int_distribution<std::size_t> leaves(1, 9);
  for (int round = 0; round < 15; ++round) {
    // Churn that leaves free slots behind, some of them refilled.
    const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
    if (alive[i]) {
      counting.remove(*corpus.subs[i]);
      naive.remove(corpus.subs[i]->id());
      alive[i] = false;
    }
    if (round % 3 == 0) {
      corpus.subs.push_back(std::make_unique<Subscription>(
          SubscriptionId(static_cast<SubscriptionId::value_type>(corpus.subs.size())),
          dom.random_tree(rng, leaves(rng), 0.2)));
      alive.push_back(true);
      counting.add(*corpus.subs.back());
      naive.add(*corpus.subs.back());
    }
    const auto j = static_cast<std::size_t>(rng() % corpus.subs.size());
    if (alive[j]) {
      const auto candidates = enumerate_prunings(corpus.subs[j]->root());
      if (!candidates.empty()) {
        apply_pruning(*corpus.subs[j], candidates[rng() % candidates.size()]);
        counting.reindex(*corpus.subs[j]);
      }
    }
    counting.reset_counters();
    const auto events = dom.random_events(rng, 20);
    for (const auto& e : events) {
      ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "round " << round;
    }
    EXPECT_EQ(counting.counters().tree_evaluations,
              counting.subscription_count() * events.size());
    EXPECT_EQ(counting.counters().counter_increments, 0u);
  }
}

TEST(MatcherPruneToLeaf, RepeatedPruneReindexShrinksEachTreeExactly) {
  // Prune every tree one step at a time until nothing is prunable; each
  // reindex must shrink the compiled program with the tree and keep the
  // matcher exact and its references equal to the tree's leaves.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(6060);
  Corpus corpus = make_corpus(dom, rng, 30, 0.15, 12);
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  const std::vector<bool> alive(corpus.subs.size(), true);
  const auto events = dom.random_events(rng, 40);
  std::size_t steps = 0;
  for (auto& sp : corpus.subs) {
    Subscription& s = *sp;
    for (;;) {
      const auto candidates = enumerate_prunings(s.root());
      if (candidates.empty()) break;
      const std::size_t before = s.root().node_count();
      apply_pruning(s, candidates[rng() % candidates.size()]);
      counting.reindex(s);
      ++steps;
      ASSERT_LT(s.root().node_count(), before);
      for (const auto& e : events) {
        ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e))
            << "sub " << s.id().value() << " step " << steps;
      }
    }
    expect_refs_match_trees(counting, live_subs(corpus, alive));
  }
  EXPECT_GE(steps, 60u);
}

TEST(MatcherAssociations, AuctionCorpusAssociationsArePinned) {
  // associations_of() is rebuilt from the compiled program's leaf ops; it
  // must equal the distinct-predicate count the tree implies, and the sums
  // are pinned to the values the earlier snapshot-based bookkeeping gave
  // on this seeded corpus, before and after pruning half of it.
  WorkloadConfig cfg;
  cfg.seed = 7;
  cfg.titles = 200;
  cfg.authors = 80;
  cfg.not_probability = 0.1;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator sub_gen(domain);
  CountingMatcher counting(domain.schema());
  Corpus corpus;
  for (std::uint32_t i = 0; i < 400; ++i) {
    corpus.subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    counting.add(*corpus.subs.back());
  }
  const auto sum = [&] {
    std::size_t n = 0;
    for (const auto& s : corpus.subs) n += counting.associations_of(s->id());
    return n;
  };
  const std::vector<bool> alive(corpus.subs.size(), true);
  expect_refs_match_trees(counting, live_subs(corpus, alive));
  EXPECT_EQ(sum(), kAuctionAssociations);
  EXPECT_EQ(counting.association_count(), kAuctionAssociations);

  for (std::size_t i = 0; i < corpus.subs.size(); i += 2) {
    const auto candidates = enumerate_prunings(corpus.subs[i]->root());
    if (candidates.empty()) continue;
    apply_pruning(*corpus.subs[i], candidates.front());
    counting.reindex(*corpus.subs[i]);
  }
  expect_refs_match_trees(counting, live_subs(corpus, alive));
  EXPECT_EQ(sum(), kAuctionAssociationsPruned);
}

TEST(MatcherPlanBoundaries, ExactAcrossReplansUnderChurn) {
  // The matcher re-plans its access leaves at 8, 16, 32, ... events. Churn
  // lands right before and after each plan and between plans: adds, removes
  // (whose slots later adds reuse) and prune-then-reindex, so trees enter
  // under one plan and are matched, pruned or removed under the next.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(8128);
  Corpus corpus = make_corpus(dom, rng, 150, 0.15);
  CountingMatcher counting(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    counting.add(*s);
    naive.add(*s);
  }
  std::vector<bool> alive(corpus.subs.size(), true);
  std::uniform_int_distribution<std::size_t> leaves(1, 9);
  const auto churn = [&] {
    const auto i = static_cast<std::size_t>(rng() % corpus.subs.size());
    if (alive[i]) {
      counting.remove(*corpus.subs[i]);
      naive.remove(corpus.subs[i]->id());
      alive[i] = false;
    }
    corpus.subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(corpus.subs.size())),
        dom.random_tree(rng, leaves(rng), 0.15)));
    alive.push_back(true);
    counting.add(*corpus.subs.back());  // reuses the slot freed above, if any
    naive.add(*corpus.subs.back());
    const auto j = static_cast<std::size_t>(rng() % corpus.subs.size());
    if (!alive[j]) return;
    const auto candidates = enumerate_prunings(corpus.subs[j]->root());
    if (candidates.empty()) return;
    apply_pruning(*corpus.subs[j], candidates[rng() % candidates.size()]);
    counting.reindex(*corpus.subs[j]);
  };
  for (std::uint64_t event = 1; event <= 600; ++event) {
    const bool near_plan = ((event - 1) & event) == 0 || (event & (event + 1)) == 0;
    if (near_plan || event % 7 == 0) churn();
    const Event e = dom.random_event(rng);
    ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "event " << event;
    if (near_plan) expect_refs_match_trees(counting, live_subs(corpus, alive));
  }
  expect_refs_match_trees(counting, live_subs(corpus, alive));
}

TEST(MatcherSelectiveTrigger, AuctionBumpsAndPrecisionAfterPlanning) {
  // A seeded 10k auction corpus. After 512 events the access plan counts at
  // most 1/20 of the fulfilled leaves the all-leaves trigger would count
  // (what the paper's trigger bumps), and at least 8% of the triggered
  // trees match. Every event is checked against the naive matcher.
  WorkloadConfig cfg;
  cfg.seed = 1;
  const AuctionDomain domain(cfg);
  AuctionSubscriptionGenerator sub_gen(domain, 1);
  AuctionEventGenerator event_gen(domain, 2);
  CountingMatcher counting(domain.schema());
  NaiveMatcher naive;
  Corpus corpus;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    corpus.subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    counting.add(*corpus.subs.back());
    naive.add(*corpus.subs.back());
  }
  for (int i = 0; i < 512; ++i) {
    const Event e = event_gen.next();
    ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "event " << i;
  }

  std::map<PredicateId::value_type, const Predicate*> preds;
  for (const auto& s : corpus.subs) {
    s->root().for_each_leaf(
        [&](const Node& leaf) { preds.emplace(leaf.predicate_id().value(), &leaf.predicate()); });
  }
  counting.reset_counters();
  std::uint64_t all_leaves = 0;
  constexpr int kEvents = 256;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = event_gen.next();
    for (const auto& [pid, pred] : preds) {
      if (pred->matches(e)) all_leaves += counting.registry().references(PredicateId(pid));
    }
    ASSERT_EQ(sorted_match(counting, e), sorted_match(naive, e)) << "event " << 512 + i;
  }
  const auto& c = counting.counters();
  ASSERT_GT(c.matches, 0u);
  EXPECT_LE(c.counter_increments * 20, all_leaves)
      << c.counter_increments << " bumps vs " << all_leaves << " fulfilled leaves";
  EXPECT_GE(static_cast<double>(c.matches) / static_cast<double>(c.tree_evaluations), 0.08)
      << c.matches << " matches of " << c.tree_evaluations << " evaluations";
}

}  // namespace
}  // namespace dbsp
