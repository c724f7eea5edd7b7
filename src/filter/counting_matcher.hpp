#pragma once

/// \file
/// The non-canonical counting matcher: per-attribute predicate indexes,
/// association counters, and the pmin evaluation trigger.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/attribute_index.hpp"
#include "filter/predicate_registry.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// The counting-based filtering engine for Boolean subscriptions
/// (non-canonical algorithm of the paper's ref [2]).
///
/// Three-stage matching: (1) per-attribute indexes produce the set of
/// predicates fulfilled by the event — each distinct predicate is tested at
/// most once regardless of how many subscriptions use it; (2) counters over
/// predicate/subscription associations find the candidate subscriptions —
/// each bump touches one 16-byte {epoch, count, pmin} record; (3) only
/// those candidates are evaluated, by running the subscription's compiled
/// program (a flat pre-order op array built at add/reindex time) against a
/// bitset of the fulfilled predicates.
///
/// Stage (2) is a selective pmin trigger. Only the *access leaves* of a
/// tree feed its counter, and the tree becomes a candidate once that count
/// reaches pmin_A: Node::pmin's recursion with every other leaf counted as
/// 0. A tree can only be true when that many of its access leaves are, so
/// no match is lost. The access set comes from the matcher's own
/// statistics — how often each predicate was fulfilled since it was
/// interned: a leaf accesses itself, an And keeps the cheapest child's set
/// (fewest expected fulfilments, then fewest referencing leaves), an Or the
/// union of its children's, Not and True none (their subtree can be true
/// with nothing fulfilled). Trees whose pmin_A is 0 — exactly those with
/// pmin 0, satisfiable through a NOT by absence of matches — are evaluated
/// on every event. Until the matcher has seen kWarmupEvents events every
/// leaf is an access leaf: that is the paper's all-leaves trigger. It then
/// re-plans every tree whenever its event count reaches 8, 16, 32, ...;
/// add() and reindex() plan a new tree with the statistics at hand.
///
/// The program is also the matcher's only record of which predicates a
/// subscription references, and of which of its leaves are access leaves:
/// remove() and reindex() release references by walking its leaf ops, so
/// the tree may change in between.
///
/// The matcher does not own subscriptions; registered Subscription objects
/// must outlive it and their addresses must be stable. Trees may only be
/// mutated through the pruning engine, which calls reindex() afterwards.
///
/// Not thread-safe: every member (including match(), which advances the
/// epoch) mutates state and requires external synchronization. Distinct
/// instances are independent — the property the sharded engine exploits by
/// running one matcher per shard.
class CountingMatcher {
 public:
  /// Events a matcher sees before its first selective plan; a predicate
  /// interned fewer events ago is priced as fulfilled by every event.
  static constexpr std::uint64_t kWarmupEvents = 8;

  explicit CountingMatcher(const Schema& schema);

  /// Registers a subscription: interns its predicates, assigns leaf
  /// predicate ids, indexes it for matching.
  void add(Subscription& sub);
  /// Unregisters; releases all predicate references.
  void remove(Subscription& sub);
  /// Id-based overload (uniform across matchers); throws std::out_of_range
  /// when the id is unknown.
  void remove(SubscriptionId id);
  /// Re-synchronizes indexes and pmin after the subscription's tree changed
  /// (e.g. a pruning). Cost is proportional to the tree size.
  void reindex(Subscription& sub);

  /// Appends ids of all subscriptions matching `event`. Non-const: advances
  /// the matcher epoch and touches counters.
  void match(const Event& event, std::vector<SubscriptionId>& out);

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const { return live_subs_; }

  /// Predicate/subscription association count (memory metric, Fig 1c/1f).
  [[nodiscard]] std::size_t association_count() const { return association_count_; }
  /// Associations contributed by one subscription (= its distinct
  /// predicates); lets experiments restrict the metric to non-local subs.
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const;

  [[nodiscard]] std::size_t live_predicates() const { return registry_.live_predicates(); }
  [[nodiscard]] const PredicateRegistry& registry() const { return registry_; }

  /// Disables the pmin evaluation trigger: every registered subscription's
  /// tree is evaluated on every event (predicate indexes still run). Only
  /// meant for the ablation study quantifying the trigger's value.
  void set_pmin_trigger(bool enabled) { pmin_trigger_ = enabled; }
  [[nodiscard]] bool pmin_trigger() const { return pmin_trigger_; }

  /// Introspection counters accumulated across match() calls.
  struct Counters {
    std::uint64_t events = 0;
    std::uint64_t predicate_hits = 0;      ///< fulfilled predicates found by indexes
    std::uint64_t counter_increments = 0;  ///< access-leaf counter bumps
    std::uint64_t tree_evaluations = 0;    ///< Boolean trees evaluated
    std::uint64_t matches = 0;             ///< subscriptions matched
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 private:
  struct Slot {
    Subscription* sub = nullptr;  ///< null while the slot is free
    /// The tree compiled at last (re)index; the op format is described in
    /// counting_matcher.cpp.
    std::vector<std::uint32_t> program;
  };
  /// Per-slot state a counter bump touches, kept dense and apart from Slot
  /// so one bump reads and writes a single cache line. `count` is valid
  /// only while `epoch` equals the matcher's epoch.
  struct Hot {
    std::uint64_t epoch = 0;
    std::uint32_t count = 0;
    std::uint32_t pmin = 0;
  };

  /// A tree's plan cost: expected access-leaf fulfilments per event, then
  /// the leaves referencing those predicates as a tie-break. `bounded` is
  /// false for a subtree that can be true with nothing fulfilled (its
  /// pmin_A is 0 whatever it indexes), so an And never picks it.
  struct Plan {
    double hits = 0;
    std::uint64_t references = 0;
    bool bounded = false;
  };
  /// When a predicate id was interned (as an epoch) and how many events
  /// since then fulfilled it.
  struct PredStats {
    std::uint64_t born = 0;
    std::uint64_t hits = 0;
  };

  [[nodiscard]] std::uint32_t slot_of(SubscriptionId id) const;
  /// Interns every leaf under `node`, stores the ids on the tree and
  /// appends the subtree's compiled ops (all plain leaves) to `program`.
  void compile(Node& node, std::vector<std::uint32_t>& program);
  /// Releases one registry reference per leaf op of `program`.
  void release(const std::vector<std::uint32_t>& program);
  /// Chooses the slot's access leaves, marks them in its program and sets
  /// its pmin_A.
  void plan(std::uint32_t slot);
  /// Marks the access leaves of the program node at `pc` and leaves `pc`
  /// just past that node's code.
  Plan plan_node(std::uint32_t*& pc);
  /// Re-plans every live slot and rebuilds the access lists from scratch.
  void replan();
  /// Adds (removes) the slot's entries in the access lists of its access
  /// leaves' predicates.
  void link(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  /// Expected share of events that fulfill the predicate.
  [[nodiscard]] double hit_rate(std::uint32_t pred) const;
  /// Evaluates the program node at `pc` against `fulfilled_` and leaves
  /// `pc` just past that node's code.
  [[nodiscard]] bool run(const std::uint32_t*& pc) const;
  void set_pmin(std::uint32_t slot, std::uint32_t pmin);
  void grow_predicate_arrays();

  /// One slot in a predicate's access list, with how many of the slot's
  /// access leaves carry this predicate. Counters advance by `leaf_refs`
  /// so they count fulfilled *leaf occurrences* — pmin_A is a bound on
  /// fulfilled access leaves, not on distinct predicates.
  struct PredSub {
    std::uint32_t slot = 0;
    std::uint32_t leaf_refs = 0;
  };

  const Schema* schema_;
  PredicateRegistry registry_;
  std::vector<AttributeIndex> attr_index_;            // by attribute id
  std::vector<std::vector<PredSub>> pred_slots_;      // access lists, by predicate id
  std::vector<PredStats> pred_stats_;                 // by predicate id
  /// Bit per predicate id, set for the predicates the current event
  /// fulfills; all zero outside match().
  std::vector<std::uint64_t> fulfilled_;

  std::unordered_map<SubscriptionId::value_type, std::uint32_t> slot_by_id_;
  std::vector<Slot> slots_;
  std::vector<Hot> hot_;  // by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> always_eval_;  // slots with pmin_A == 0

  /// Events matched so far; never reset.
  std::uint64_t epoch_ = 0;
  /// The epoch at whose end every tree is re-planned next.
  std::uint64_t next_plan_ = kWarmupEvents;
  std::size_t association_count_ = 0;
  std::size_t live_subs_ = 0;
  bool pmin_trigger_ = true;
  std::vector<PredicateId> scratch_preds_;
  std::vector<std::uint32_t> scratch_candidates_;
  std::vector<std::uint32_t> scratch_program_;
  std::vector<std::uint32_t> scratch_ids_;
  Counters counters_;
};

}  // namespace dbsp
