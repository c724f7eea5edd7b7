#include "filter/counting_matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/candidates.hpp"
#include "filter/naive_matcher.hpp"
#include "subscription/parser.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

class CountingMatcherTest : public ::testing::Test {
 protected:
  CountingMatcherTest() {
    schema_.add_attribute("price", ValueType::Double);
    schema_.add_attribute("category", ValueType::String);
    schema_.add_attribute("year", ValueType::Int);
  }

  [[nodiscard]] std::unique_ptr<Subscription> sub(std::uint32_t id,
                                                  std::string_view text) const {
    return std::make_unique<Subscription>(SubscriptionId(id),
                                          parse_subscription(text, schema_));
  }

  [[nodiscard]] std::vector<SubscriptionId> match(CountingMatcher& m,
                                                  const Event& e) const {
    std::vector<SubscriptionId> out;
    m.match(e, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Matches `e` on both matchers and expects the same ids.
  void expect_agree(CountingMatcher& m, const NaiveMatcher& naive, const Event& e) const {
    std::vector<SubscriptionId> expected;
    naive.match(e, expected);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(match(m, e), expected);
  }

  Schema schema_;
};

TEST_F(CountingMatcherTest, MatchesConjunction) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10");
  m.add(*s);
  const Event hit = EventBuilder(schema_).with("category", "art").with("price", 5.0).build();
  const Event miss = EventBuilder(schema_).with("category", "art").with("price", 15.0).build();
  EXPECT_EQ(match(m, hit), std::vector<SubscriptionId>{SubscriptionId(1)});
  EXPECT_TRUE(match(m, miss).empty());
}

TEST_F(CountingMatcherTest, SharedPredicateEvaluatedOnceAndCountedPerSub) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10 and category = 'art'");
  auto s2 = sub(2, "price < 10 and year > 1990");
  m.add(*s1);
  m.add(*s2);
  EXPECT_EQ(m.live_predicates(), 3u);    // price<10 deduplicated
  EXPECT_EQ(m.association_count(), 4u);  // 2 per subscription

  const Event e = EventBuilder(schema_)
                      .with("price", 5.0)
                      .with("category", "art")
                      .with("year", 2000)
                      .build();
  const auto hits = match(m, e);
  EXPECT_EQ(hits, (std::vector<SubscriptionId>{SubscriptionId(1), SubscriptionId(2)}));
}

TEST_F(CountingMatcherTest, PminTriggerSkipsHopelessSubscriptions) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10 and year > 1990");  // pmin = 3
  m.add(*s);
  m.reset_counters();
  // Only one predicate can be fulfilled -> no tree evaluation at all.
  const Event e = EventBuilder(schema_).with("category", "art").build();
  EXPECT_TRUE(match(m, e).empty());
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  EXPECT_EQ(m.counters().counter_increments, 1u);
}

TEST_F(CountingMatcherTest, OrLowersPmin) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' or (price < 10 and year > 1990)");  // pmin = 1
  m.add(*s);
  const Event e = EventBuilder(schema_).with("category", "art").build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, NotSubscriptionsAreAlwaysEvaluated) {
  CountingMatcher m(schema_);
  auto s = sub(1, "not category = 'art'");  // pmin = 0
  m.add(*s);
  m.reset_counters();
  const Event other = EventBuilder(schema_).with("category", "music").build();
  EXPECT_EQ(match(m, other), std::vector<SubscriptionId>{SubscriptionId(1)});
  const Event art = EventBuilder(schema_).with("category", "art").build();
  EXPECT_TRUE(match(m, art).empty());
  EXPECT_EQ(m.counters().tree_evaluations, 2u);  // evaluated on every event
}

TEST_F(CountingMatcherTest, RemoveReleasesEverything) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10 and category = 'art'");
  auto s2 = sub(2, "price < 10");
  m.add(*s1);
  m.add(*s2);
  m.remove(*s1);
  EXPECT_EQ(m.subscription_count(), 1u);
  EXPECT_EQ(m.live_predicates(), 1u);
  EXPECT_EQ(m.association_count(), 1u);
  const Event e = EventBuilder(schema_).with("price", 5.0).with("category", "art").build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(2)});
  EXPECT_FALSE(m.contains(SubscriptionId(1)));
}

TEST_F(CountingMatcherTest, ReindexAfterPruningKeepsMatcherConsistent) {
  CountingMatcher m(schema_);
  auto s = sub(1, "category = 'art' and price < 10");
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 2u);

  // Prune the category conjunct (path {0}).
  apply_pruning(*s, {0});
  m.reindex(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 1u);
  EXPECT_EQ(m.live_predicates(), 1u);

  // Now generalized: matches regardless of category.
  const Event e = EventBuilder(schema_).with("category", "music").with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, DuplicateAddAndUnknownQueriesThrow) {
  CountingMatcher m(schema_);
  auto s = sub(1, "price < 10");
  m.add(*s);
  EXPECT_THROW(m.add(*s), std::invalid_argument);
  EXPECT_THROW((void)m.associations_of(SubscriptionId(9)), std::out_of_range);
}

TEST_F(CountingMatcherTest, DuplicateLeafPredicateSharesOneAssociation) {
  CountingMatcher m(schema_);
  // price < 10 appears in two leaves of one subscription; it is interned
  // once (a single pred/sub association) but both leaves resolve to it.
  auto s = sub(1, "price < 10 or (price < 10 and year > 1990)");
  m.add(*s);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 2u);  // price<10, year>1990
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
}

TEST_F(CountingMatcherTest, DuplicatedPredicateAdvancesCounterPerLeaf) {
  CountingMatcher m(schema_);
  // Regression: pmin counts fulfilled *leaf occurrences*. year > 1990 sits
  // in two leaves (inside the or-group and as a conjunct); pmin = 3, but
  // only two distinct predicates can fire. The counter must advance by the
  // leaf refcount or this match is missed.
  auto s = sub(1, "(category = 'art' or year > 1990) and year > 1990 and price < 10");
  m.add(*s);
  EXPECT_EQ(s->root().pmin(), 3u);
  const Event e = EventBuilder(schema_).with("year", 2000).with("price", 5.0).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});

  // And after pruning the or-group, the leaf refcount drops back to 1.
  apply_pruning(*s, {0});
  m.reindex(*s);
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(1)});
  const Event miss = EventBuilder(schema_).with("year", 1980).with("price", 5.0).build();
  EXPECT_TRUE(match(m, miss).empty());
}

TEST_F(CountingMatcherTest, CountersAccumulateAndReset) {
  CountingMatcher m(schema_);
  auto s = sub(1, "price < 10");
  m.add(*s);
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  std::vector<SubscriptionId> out;
  m.match(e, out);
  m.match(e, out);
  EXPECT_EQ(m.counters().events, 2u);
  EXPECT_EQ(m.counters().matches, 2u);
  m.reset_counters();
  EXPECT_EQ(m.counters().events, 0u);
}

TEST_F(CountingMatcherTest, SlotRecyclingAfterRemoveAdd) {
  CountingMatcher m(schema_);
  auto s1 = sub(1, "price < 10");
  m.add(*s1);
  m.remove(*s1);
  auto s2 = sub(2, "year > 1990");
  m.add(*s2);
  const Event e = EventBuilder(schema_).with("price", 5.0).with("year", 2000).build();
  EXPECT_EQ(match(m, e), std::vector<SubscriptionId>{SubscriptionId(2)});
}

TEST_F(CountingMatcherTest, FreedSlotRunsOnlyTheNewTree) {
  CountingMatcher m(schema_);
  NaiveMatcher naive;
  auto s1 = sub(1, "not category = 'art'");  // pmin 0: on the always list
  m.add(*s1);
  naive.add(*s1);
  m.remove(*s1);
  naive.remove(s1->id());
  auto s2 = sub(2, "price < 10 and year > 1990");  // takes the freed slot
  m.add(*s2);
  naive.add(*s2);
  m.reset_counters();
  // s1's program would match this event; s2's tree is never triggered.
  const Event music = EventBuilder(schema_).with("category", "music").build();
  expect_agree(m, naive, music);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);
  const Event both = EventBuilder(schema_).with("price", 5.0).with("year", 2000).build();
  expect_agree(m, naive, both);
  EXPECT_EQ(match(m, both), std::vector<SubscriptionId>{SubscriptionId(2)});
}

TEST_F(CountingMatcherTest, ReindexMovesTreeOntoAndOffTheAlwaysList) {
  CountingMatcher m(schema_);
  NaiveMatcher naive;
  auto s = sub(1, "price < 10 and not category = 'art'");  // pmin 1
  m.add(*s);
  naive.add(*s);
  const Event music = EventBuilder(schema_).with("category", "music").build();
  expect_agree(m, naive, music);
  EXPECT_TRUE(match(m, music).empty());

  apply_pruning(*s, {0});  // leaves "not category = 'art'": pmin 0
  m.reindex(*s);
  ASSERT_EQ(s->root().pmin(), 0u);
  expect_agree(m, naive, music);
  EXPECT_EQ(match(m, music), std::vector<SubscriptionId>{SubscriptionId(1)});
  m.remove(*s);
  naive.remove(s->id());
  m.reset_counters();
  expect_agree(m, naive, music);
  EXPECT_EQ(m.counters().tree_evaluations, 0u);  // gone from the always list
}

TEST_F(CountingMatcherTest, TriggerOffEvaluatesEveryLiveTree) {
  CountingMatcher m(schema_);
  NaiveMatcher naive;
  auto s1 = sub(1, "category = 'art' and price < 10");
  auto s2 = sub(2, "year > 1990 or not price < 10");
  auto s3 = sub(3, "price < 10 or (price < 10 and category = 'art')");
  for (auto* s : {s1.get(), s2.get(), s3.get()}) {
    m.add(*s);
    naive.add(*s);
  }
  m.remove(*s2);  // leaves a free slot the ablation loop must skip
  naive.remove(s2->id());
  m.set_pmin_trigger(false);
  m.reset_counters();
  const Event e1 = EventBuilder(schema_).with("category", "art").with("price", 5.0).build();
  const Event e2 = EventBuilder(schema_).with("year", 1980).build();
  expect_agree(m, naive, e1);
  expect_agree(m, naive, e2);
  EXPECT_EQ(m.counters().tree_evaluations, 4u);  // 2 live trees x 2 events
  EXPECT_EQ(m.counters().counter_increments, 0u);
}

TEST_F(CountingMatcherTest, RepeatedPredicateReleasedLeafByLeaf) {
  CountingMatcher m(schema_);
  NaiveMatcher naive;
  // price < 10 sits in three leaves: one association with leaf_refs 3.
  auto s = sub(1, "(price < 10 or category = 'art') and (price < 10 or year > 1990) and "
                  "(price < 10 or year < 1950)");
  m.add(*s);
  naive.add(*s);
  const auto pid = m.registry().find(parse_subscription("price < 10", schema_)->predicate());
  ASSERT_TRUE(pid.has_value());
  ASSERT_EQ(m.registry().associations(*pid).size(), 1u);
  EXPECT_EQ(m.registry().associations(*pid)[0].leaf_refs, 3u);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 4u);

  apply_pruning(*s, {0});  // drops one of the three price < 10 leaves
  m.reindex(*s);
  EXPECT_EQ(m.registry().associations(*pid)[0].leaf_refs, 2u);
  EXPECT_EQ(m.associations_of(SubscriptionId(1)), 3u);
  const Event e = EventBuilder(schema_).with("price", 5.0).build();
  expect_agree(m, naive, e);
  const Event old = EventBuilder(schema_).with("year", 2000).with("category", "art").build();
  expect_agree(m, naive, old);

  m.remove(*s);
  EXPECT_EQ(m.association_count(), 0u);
  EXPECT_EQ(m.live_predicates(), 0u);
}

}  // namespace
}  // namespace dbsp
