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
/// predicate/subscription associations find subscriptions whose number of
/// fulfilled leaves reaches pmin (the pmin evaluation trigger central to
/// the throughput heuristic of §3.3) — each bump touches one 16-byte
/// {epoch, count, pmin} record; (3) only those candidates are evaluated,
/// by running the subscription's compiled program (a flat pre-order op
/// array built at add/reindex time) against a bitset of the fulfilled
/// predicates. Subscriptions with pmin == 0 (satisfiable through a NOT by
/// absence of matches) are evaluated on every event.
///
/// The program is also the matcher's only record of which predicates a
/// subscription references: remove() and reindex() release references by
/// walking its leaf ops, so the tree may change in between.
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
  [[nodiscard]] std::size_t association_count() const {
    return registry_.association_count();
  }
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
    std::uint64_t counter_increments = 0;  ///< association counter bumps
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

  [[nodiscard]] std::uint32_t slot_of(SubscriptionId id) const;
  /// Interns and indexes every leaf under `node` for subscription `id` in
  /// `slot`, and appends the subtree's compiled ops to `program`, in one
  /// walk.
  void index_tree(Node& node, SubscriptionId id, std::uint32_t slot,
                  std::vector<std::uint32_t>& program);
  /// Releases one reference per leaf op of `program`.
  void release_program(SubscriptionId id, std::uint32_t slot,
                       const std::vector<std::uint32_t>& program);
  /// Evaluates the program node at `pc` against `fulfilled_` and leaves
  /// `pc` just past that node's code.
  [[nodiscard]] bool run(const std::uint32_t*& pc) const;
  void set_pmin(std::uint32_t slot, std::uint32_t pmin);
  void grow_predicate_arrays();

  /// One association as seen from a predicate: the subscription's slot and
  /// how many of its leaves carry this predicate. Counters advance by
  /// `leaf_refs` so they count fulfilled *leaf occurrences* — pmin is a
  /// bound on fulfilled leaves, not on distinct predicates (a predicate
  /// duplicated across leaves must count once per leaf).
  struct PredSub {
    std::uint32_t slot = 0;
    std::uint32_t leaf_refs = 0;
  };

  const Schema* schema_;
  PredicateRegistry registry_;
  std::vector<AttributeIndex> attr_index_;            // by attribute id
  std::vector<std::vector<PredSub>> pred_slots_;      // by predicate id
  /// Bit per predicate id, set for the predicates the current event
  /// fulfills; all zero outside match().
  std::vector<std::uint64_t> fulfilled_;

  std::unordered_map<SubscriptionId::value_type, std::uint32_t> slot_by_id_;
  std::vector<Slot> slots_;
  std::vector<Hot> hot_;  // by slot
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> always_eval_;  // slots with pmin == 0

  std::uint64_t epoch_ = 0;
  std::size_t live_subs_ = 0;
  bool pmin_trigger_ = true;
  std::vector<PredicateId> scratch_preds_;
  std::vector<std::uint32_t> scratch_candidates_;
  std::vector<std::uint32_t> scratch_program_;
  Counters counters_;
};

}  // namespace dbsp
