// Tests for the subscription-aggregation layer (src/agg/): per-operator
// summary soundness and tightness, widening-cap behavior, Boolean
// composition, and the subgroup soundness property aggregated overlay
// forwarding relies on (every matching subscription's subgroup summary
// admits the event) under small caps, churn, and train() rebuilds.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "agg/aggregator.hpp"
#include "agg/summary.hpp"
#include "selectivity/stats.hpp"
#include "test_util.hpp"

namespace dbsp::agg {
namespace {

using test::MiniDomain;

std::unique_ptr<Node> leaf(AttributeId attr, Op op, Value value) {
  return Node::leaf(Predicate(attr, op, std::move(value)));
}

Event event_with(AttributeId attr, Value value) {
  Event e;
  e.set(attr, std::move(value));
  return e;
}

// ---------------------------------------------------------------------------
// DimensionSummary: per-operator build soundness (+ tightness where the
// operator admits an exact summary).

class SummaryOperatorTest : public ::testing::Test {
 protected:
  MiniDomain dom_;
  AttributeId a0_ = dom_.attr(0);
  SummaryLimits limits_;

  // Soundness: every value the tree admits, the summary must admit; and if
  // the tree matches an event lacking the attribute, may_match_without()
  // must hold. Returns the summary for additional tightness assertions.
  DimensionSummary check_sound(const Node& tree) {
    const DimensionSummary s =
        DimensionSummary::summarize(tree, a0_, /*numeric=*/true, limits_, nullptr);
    for (std::int64_t v = -5; v < dom_.domain() + 5; ++v) {
      if (tree.evaluate_event(event_with(a0_, Value(v)))) {
        EXPECT_TRUE(s.admits_value(Value(v))) << "false negative at " << v;
      }
    }
    if (tree.evaluate_event(Event{})) {
      EXPECT_TRUE(s.may_match_without());
    }
    return s;
  }
};

TEST_F(SummaryOperatorTest, EqIsExactPoint) {
  const auto s = check_sound(*leaf(a0_, Op::Eq, Value(5)));
  EXPECT_TRUE(s.admits_value(Value(5)));
  EXPECT_FALSE(s.admits_value(Value(4)));
  EXPECT_FALSE(s.admits_value(Value(6)));
  EXPECT_FALSE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, LtLeGtGeAreSoundHalfLines) {
  // Summaries are closed-interval: a strict bound keeps its endpoint (one
  // admissible false positive at the boundary), everything beyond rejects.
  const auto lt = check_sound(*leaf(a0_, Op::Lt, Value(5)));
  EXPECT_TRUE(lt.admits_value(Value(4)));
  EXPECT_FALSE(lt.admits_value(Value(6)));

  const auto le = check_sound(*leaf(a0_, Op::Le, Value(5)));
  EXPECT_TRUE(le.admits_value(Value(5)));
  EXPECT_FALSE(le.admits_value(Value(6)));

  const auto gt = check_sound(*leaf(a0_, Op::Gt, Value(5)));
  EXPECT_TRUE(gt.admits_value(Value(6)));
  EXPECT_FALSE(gt.admits_value(Value(4)));

  const auto ge = check_sound(*leaf(a0_, Op::Ge, Value(5)));
  EXPECT_TRUE(ge.admits_value(Value(5)));
  EXPECT_FALSE(ge.admits_value(Value(4)));
}

TEST_F(SummaryOperatorTest, BetweenIsExactSegment) {
  const auto s =
      check_sound(*Node::leaf(Predicate(a0_, Value(3), Value(7))));
  EXPECT_TRUE(s.admits_value(Value(3)));
  EXPECT_TRUE(s.admits_value(Value(7)));
  EXPECT_FALSE(s.admits_value(Value(2)));
  EXPECT_FALSE(s.admits_value(Value(8)));
}

TEST_F(SummaryOperatorTest, NeIsSound) { check_sound(*leaf(a0_, Op::Ne, Value(5))); }

TEST_F(SummaryOperatorTest, NotWidensToUniverse) {
  const auto s = check_sound(*Node::not_(leaf(a0_, Op::Eq, Value(5))));
  // An event without a0 matches NOT(a0 == 5), so absence must be admitted.
  EXPECT_TRUE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, UnconstrainedDimensionIsUniverse) {
  // Tree constrains a1 only; projected onto a0 it admits everything.
  const auto s = DimensionSummary::summarize(*leaf(dom_.attr(1), Op::Eq, Value(5)),
                                             a0_, true, limits_, nullptr);
  EXPECT_TRUE(s.unconstrained());
  EXPECT_TRUE(s.admits_value(Value(17)));
  EXPECT_TRUE(s.may_match_without());
}

TEST_F(SummaryOperatorTest, AndMeetsOrJoins) {
  // (a0 >= 3) AND (a0 <= 7): the meet is exactly [3, 7].
  std::vector<std::unique_ptr<Node>> and_children;
  and_children.push_back(leaf(a0_, Op::Ge, Value(3)));
  and_children.push_back(leaf(a0_, Op::Le, Value(7)));
  const auto meet = check_sound(*Node::and_(std::move(and_children)));
  EXPECT_FALSE(meet.admits_value(Value(2)));
  EXPECT_TRUE(meet.admits_value(Value(5)));
  EXPECT_FALSE(meet.admits_value(Value(8)));

  // (a0 == 1) OR (a0 == 9): the join admits both points, rejects between.
  std::vector<std::unique_ptr<Node>> or_children;
  or_children.push_back(leaf(a0_, Op::Eq, Value(1)));
  or_children.push_back(leaf(a0_, Op::Eq, Value(9)));
  const auto join = check_sound(*Node::or_(std::move(or_children)));
  EXPECT_TRUE(join.admits_value(Value(1)));
  EXPECT_TRUE(join.admits_value(Value(9)));
  EXPECT_FALSE(join.admits_value(Value(5)));
}

TEST_F(SummaryOperatorTest, IntervalCapMergesButStaysSound) {
  // 6 isolated points under a 4-interval cap: segments merge, every
  // original point stays admitted, and the widening is counted.
  std::vector<std::unique_ptr<Node>> children;
  for (const std::int64_t v : {0, 3, 6, 9, 12, 15}) {
    children.push_back(leaf(a0_, Op::Eq, Value(v)));
  }
  const auto tree = Node::or_(std::move(children));
  std::size_t widenings = 0;
  const auto s = DimensionSummary::summarize(*tree, a0_, true, limits_, &widenings);
  EXPECT_LE(s.intervals().size(), limits_.max_intervals);
  EXPECT_GE(widenings, 1u);
  for (const std::int64_t v : {0, 3, 6, 9, 12, 15}) {
    EXPECT_TRUE(s.admits_value(Value(v))) << v;
  }
}

TEST(SummaryCategoricalTest, ValueCapWidensToAny) {
  Schema schema;
  const AttributeId attr = schema.add_attribute("title", ValueType::String);
  std::vector<std::unique_ptr<Node>> children;
  for (const char* v : {"a", "b", "c", "d"}) {
    children.push_back(Node::leaf(Predicate(attr, Op::Eq, Value(v))));
  }
  const auto tree = Node::or_(std::move(children));

  SummaryLimits tight;
  tight.max_values = 2;
  std::size_t widenings = 0;
  const auto s =
      DimensionSummary::summarize(*tree, attr, /*numeric=*/false, tight, &widenings);
  EXPECT_TRUE(s.all_values());
  EXPECT_GE(widenings, 1u);
  EXPECT_TRUE(s.admits_value(Value("zzz")));  // widened: anything admitted

  SummaryLimits roomy;
  roomy.max_values = 16;
  const auto exact =
      DimensionSummary::summarize(*tree, attr, false, roomy, nullptr);
  EXPECT_FALSE(exact.all_values());
  EXPECT_EQ(exact.values().size(), 4u);
  EXPECT_TRUE(exact.admits_value(Value("c")));
  EXPECT_FALSE(exact.admits_value(Value("zzz")));
}

TEST(SummarySetTest, AdmitsMirrorsTreeOnMissingAttributes) {
  MiniDomain dom;
  // a0 == 5 AND a1 <= 3: an event lacking a0 can never match.
  std::vector<std::unique_ptr<Node>> children;
  children.push_back(leaf(dom.attr(0), Op::Eq, Value(5)));
  children.push_back(leaf(dom.attr(1), Op::Le, Value(3)));
  const auto tree = Node::and_(std::move(children));

  const std::vector<AttributeId> dims{dom.attr(0), dom.attr(1)};
  const auto set =
      SummarySet::summarize(*tree, dims, dom.schema(), SummaryLimits{}, nullptr);

  Event match;
  match.set(dom.attr(0), Value(5));
  match.set(dom.attr(1), Value(2));
  EXPECT_TRUE(set.admits(match));

  EXPECT_FALSE(set.admits(event_with(dom.attr(1), Value(2))));  // a0 absent
  EXPECT_FALSE(set.admits(event_with(dom.attr(0), Value(4))));  // wrong value
}

TEST(SummarySetTest, JoinReportsChangeAndWidens) {
  MiniDomain dom;
  const std::vector<AttributeId> dims{dom.attr(0)};
  const SummaryLimits limits;
  auto a = SummarySet::summarize(*leaf(dom.attr(0), Op::Eq, Value(1)), dims,
                                 dom.schema(), limits, nullptr);
  const auto b = SummarySet::summarize(*leaf(dom.attr(0), Op::Eq, Value(9)), dims,
                                       dom.schema(), limits, nullptr);
  EXPECT_TRUE(a.join(b, limits, nullptr));
  EXPECT_TRUE(a.admits(event_with(dom.attr(0), Value(1))));
  EXPECT_TRUE(a.admits(event_with(dom.attr(0), Value(9))));
  // Joining the same set again is a no-op.
  EXPECT_FALSE(a.join(b, limits, nullptr));
}

// ---------------------------------------------------------------------------
// Summary soundness — the property overlay forwarding relies on: for every
// event, every live subscription whose tree matches it sits in a subgroup
// whose summary admits the event. Checked on NOT-heavy trees, events with
// missing attributes, small subgroup caps (folding + widening), churn, and
// train() rebuilds.

Event sparse_event(const MiniDomain& dom, std::mt19937_64& rng) {
  Event e;
  std::uniform_int_distribution<std::int64_t> dist(0, dom.domain() - 1);
  std::bernoulli_distribution keep(0.8);
  for (std::size_t i = 0; i < dom.attr_count(); ++i) {
    if (keep(rng)) e.set(dom.attr(i), Value(dist(rng)));
  }
  return e;
}

// Asserts soundness for one event and returns how many non-empty subgroup
// summaries reject it (the forwarding the summaries save).
std::size_t expect_sound(const SubscriptionAggregator& aggregator,
                         const std::vector<const Subscription*>& live,
                         const Event& event) {
  for (const Subscription* sub : live) {
    if (!sub->matches(event)) continue;
    const SummarySet* summary = aggregator.subgroup_summary(aggregator.subgroup_of(sub->id()));
    EXPECT_NE(summary, nullptr) << "sub " << sub->id().value();
    if (summary != nullptr) {
      EXPECT_TRUE(summary->admits(event)) << "false negative for sub " << sub->id().value();
    }
  }
  std::size_t rejected = 0;
  for (std::size_t g = 0; g < aggregator.subgroup_slots(); ++g) {
    const SummarySet* summary = aggregator.subgroup_summary(g);
    if (summary != nullptr && !summary->admits(event)) ++rejected;
  }
  return rejected;
}

std::vector<const Subscription*> all_of(const test::Corpus& corpus) {
  std::vector<const Subscription*> out;
  for (const auto& sub : corpus.subs) out.push_back(sub.get());
  return out;
}

EventStats trained_stats(const MiniDomain& dom, std::uint64_t seed) {
  EventStats stats(dom.schema());
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < 500; ++i) stats.observe(dom.random_event(rng));
  stats.finalize();
  return stats;
}

TEST(SummarySoundnessTest, NoFalseNegativesAcrossSubgroupCaps) {
  MiniDomain dom;
  std::mt19937_64 rng(7);
  const auto corpus = test::make_corpus(dom, rng, 300, /*not_prob=*/0.2);

  // A small cap forces signature folding and summary widening; a roomy one
  // keeps subgroups tight.
  for (const std::size_t cap : {std::size_t{32}, std::size_t{512}}) {
    AggregatorOptions options;
    options.max_subgroups = cap;
    SubscriptionAggregator aggregator(dom.schema(), options);
    for (const auto& sub : corpus.subs) aggregator.add(*sub);
    EXPECT_LE(aggregator.subgroup_count(), cap);

    std::size_t rejected = 0;
    std::mt19937_64 event_rng(99);
    for (std::size_t i = 0; i < 400; ++i) {
      rejected += expect_sound(aggregator, all_of(corpus), sparse_event(dom, event_rng));
    }
    EXPECT_GT(rejected, 0u) << "cap=" << cap;  // the summaries actually prune
  }
}

// ---------------------------------------------------------------------------
// Churn: removal bursts re-tighten subgroups, and the churned state stays
// as sound as a from-scratch build of the same survivors.

TEST(AggregatorChurnTest, ChurnedStateStaysSoundLikeFreshBuild) {
  MiniDomain dom;
  std::mt19937_64 rng(21);
  auto corpus = test::make_corpus(dom, rng, 240, 0.1);

  AggregatorOptions options;
  options.max_subgroups = 48;
  SubscriptionAggregator churned(dom.schema(), options);
  for (const auto& sub : corpus.subs) churned.add(*sub);
  for (std::size_t i = 0; i < corpus.subs.size(); i += 2) {
    churned.remove(corpus.subs[i]->id());  // every even id departs
  }
  EXPECT_GT(churned.counters().subgroup_rebuilds, 0u);  // removal bursts tighten
  EXPECT_THROW(static_cast<void>(churned.subgroup_of(corpus.subs[0]->id())),
               std::out_of_range);

  SubscriptionAggregator fresh(dom.schema(), options);
  std::vector<const Subscription*> survivors;
  for (std::size_t i = 1; i < corpus.subs.size(); i += 2) {
    fresh.add(*corpus.subs[i]);
    survivors.push_back(corpus.subs[i].get());
  }

  std::mt19937_64 event_rng(5);
  for (std::size_t i = 0; i < 200; ++i) {
    const Event event = sparse_event(dom, event_rng);
    expect_sound(churned, survivors, event);
    expect_sound(fresh, survivors, event);
  }

  // Identical stats over the identical live member set align the dimension
  // choice, and both sides stay sound after whatever rebuild it triggers.
  const EventStats stats = trained_stats(dom, 77);
  churned.train(stats);
  fresh.train(stats);
  ASSERT_EQ(churned.dimensions(), fresh.dimensions());
  for (std::size_t i = 0; i < 200; ++i) {
    const Event event = sparse_event(dom, event_rng);
    expect_sound(churned, survivors, event);
    expect_sound(fresh, survivors, event);
  }
}

TEST(AggregatorChurnTest, RemovalBurstRetightensSoundly) {
  MiniDomain dom;
  const AttributeId a0 = dom.attr(0);
  // Four survivors at 0, 10, 12, 14 (exactly representable under the
  // 4-interval cap) and eight departures far away at 100..107.
  std::vector<std::unique_ptr<Subscription>> subs;
  const std::int64_t values[] = {0, 100, 101, 102, 103, 104, 105, 106, 107, 10, 12, 14};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    subs.push_back(std::make_unique<Subscription>(
        SubscriptionId(static_cast<SubscriptionId::value_type>(i)),
        leaf(a0, Op::Eq, Value(values[i]))));
  }
  AggregatorOptions options;
  options.max_subgroups = 1;  // one subgroup holds everyone
  SubscriptionAggregator aggregator(dom.schema(), options);
  for (const auto& sub : subs) aggregator.add(*sub);
  const SummarySet* before = aggregator.subgroup_summary(aggregator.subgroup_of(subs[0]->id()));
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->admits(event_with(a0, Value(100))));

  const std::uint64_t rebuilds = aggregator.counters().subgroup_rebuilds;
  for (std::size_t i = 1; i <= 8; ++i) aggregator.remove(subs[i]->id());
  EXPECT_EQ(aggregator.counters().subgroup_rebuilds, rebuilds + 1);

  // Re-tightened from exactly the survivors: every survivor's point is
  // admitted, every departed point is rejected.
  const SummarySet* after = aggregator.subgroup_summary(aggregator.subgroup_of(subs[0]->id()));
  ASSERT_NE(after, nullptr);
  for (const std::int64_t v : {0, 10, 12, 14}) {
    EXPECT_TRUE(after->admits(event_with(a0, Value(v)))) << v;
  }
  for (std::int64_t v = 100; v <= 107; ++v) {
    EXPECT_FALSE(after->admits(event_with(a0, Value(v)))) << v;
  }
}

TEST(AggregatorChurnTest, InterleavedChurnAndRetrainsStaySound) {
  MiniDomain dom;
  std::mt19937_64 rng(31);
  auto corpus = test::make_corpus(dom, rng, 400, 0.15);
  const EventStats stats = trained_stats(dom, 41);

  AggregatorOptions options;
  options.max_subgroups = 16;  // overflow: signature-shift climbs + re-clusters
  SubscriptionAggregator aggregator(dom.schema(), options);
  std::vector<const Subscription*> live;
  std::size_t next = 0;
  std::mt19937_64 op_rng(3);
  std::mt19937_64 event_rng(4);
  for (std::size_t op = 0; op < 600; ++op) {
    const bool arrive =
        next < corpus.subs.size() && (live.empty() || op_rng() % 3 != 0);
    if (arrive) {
      aggregator.add(*corpus.subs[next]);
      live.push_back(corpus.subs[next].get());
      ++next;
    } else if (!live.empty()) {
      const std::size_t victim = op_rng() % live.size();
      aggregator.remove(live[victim]->id());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (op % 150 == 149) aggregator.train(stats);
    if (op % 10 == 0) {
      for (std::size_t i = 0; i < 8; ++i) {
        expect_sound(aggregator, live, sparse_event(dom, event_rng));
      }
    }
  }
  EXPECT_GT(aggregator.signature_shift(), 0u);
  EXPECT_LE(aggregator.subgroup_count(), options.max_subgroups);
}

// ---------------------------------------------------------------------------
// Trained re-aggregation.

TEST(AggregatorTrainTest, RetrainsKeepSummariesSound) {
  MiniDomain dom;
  std::mt19937_64 rng(3);
  auto corpus = test::make_corpus(dom, rng, 40, 0.0);

  AggregatorOptions options;
  SubscriptionAggregator aggregator(dom.schema(), options);
  for (std::size_t i = 0; i < 10; ++i) aggregator.add(*corpus.subs[i]);
  const EventStats stats = trained_stats(dom, 8);
  aggregator.train(stats);
  EXPECT_EQ(aggregator.dimensions().size(),
            std::min<std::size_t>(options.dimensions, dom.attr_count()));

  // A second wave of arrivals, a retrain, then removals and a retrain.
  for (std::size_t i = 10; i < 20; ++i) aggregator.add(*corpus.subs[i]);
  aggregator.train(stats);
  for (std::size_t i = 0; i < 10; ++i) aggregator.remove(corpus.subs[i]->id());
  aggregator.train(stats);

  // Exactly the surviving members (ids 10..19) remain, all soundly placed.
  std::vector<const Subscription*> survivors;
  for (std::size_t s = 10; s < 20; ++s) survivors.push_back(corpus.subs[s].get());
  std::mt19937_64 event_rng(8);
  for (std::size_t i = 0; i < 100; ++i) {
    expect_sound(aggregator, survivors, sparse_event(dom, event_rng));
  }
}

TEST(AggregatorTrainTest, TrainedDimensionsRebuildSubgroups) {
  MiniDomain dom;
  std::mt19937_64 rng(13);
  auto corpus = test::make_corpus(dom, rng, 120, 0.0);
  SubscriptionAggregator aggregator(dom.schema());
  for (const auto& sub : corpus.subs) aggregator.add(*sub);
  const std::vector<AttributeId> dims_before = aggregator.dimensions();
  const std::uint64_t rebuilds_before = aggregator.counters().full_rebuilds;

  // Heavily skewed stats: a0 is almost always present with one hot value,
  // making its predicates unselective — training must be able to change
  // the dimension ranking, and any change is a full rebuild.
  EventStats stats(dom.schema());
  std::mt19937_64 event_rng(4);
  for (std::size_t i = 0; i < 500; ++i) {
    Event e = dom.random_event(event_rng);
    e.set(dom.attr(0), Value(1));
    stats.observe(e);
  }
  stats.finalize();
  aggregator.train(stats);
  if (aggregator.dimensions() != dims_before) {
    EXPECT_GT(aggregator.counters().full_rebuilds, rebuilds_before);
  }

  // Soundness is preserved either way.
  for (std::size_t i = 0; i < 100; ++i) {
    expect_sound(aggregator, all_of(corpus), sparse_event(dom, event_rng));
  }
}

}  // namespace
}  // namespace dbsp::agg
