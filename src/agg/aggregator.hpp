#pragma once

/// \file
/// Hierarchical subscription aggregation for routing: clusters similar
/// subscriptions into subgroups keyed by their top-scored pruning
/// dimensions and maintains one bounded SummarySet per subgroup under
/// churn. A broker advertises these subgroup summaries instead of the
/// per-subscription trees; summary rejects are sound (no false negatives),
/// so forwarding on them keeps delivery oracle-exact while advertisement
/// bytes scale with the number of subgroups, not subscriptions. Dimension
/// choice reuses the paper's selectivity scores (EventStats). Matching
/// itself stays with the counting matcher.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agg/summary.hpp"
#include "common/ids.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "selectivity/stats.hpp"
#include "subscription/subscription.hpp"

namespace dbsp::agg {

/// Construction-time knobs of a SubscriptionAggregator; every field has a
/// DBSP_AGG_* environment override read by from_env().
struct AggregatorOptions {
  /// Number of aggregation dimensions per subgroup key (DBSP_AGG_DIMENSIONS).
  std::size_t dimensions = 3;
  /// Subgroup cap; overflow coarsens the signature quantization and
  /// re-clusters so similar subscriptions merge first (DBSP_AGG_SUBGROUPS).
  std::size_t max_subgroups = 512;
  /// Widening caps of every summary (DBSP_AGG_INTERVALS / DBSP_AGG_VALUES).
  SummaryLimits limits;
  /// Removals inside one subgroup after which its summary is re-tightened
  /// from the surviving members.
  std::size_t subgroup_rebuild_removals = 8;

  /// Reads the DBSP_AGG_* environment knobs over the defaults.
  [[nodiscard]] static AggregatorOptions from_env();
};

/// Maintenance counters; they advance under the owner's churn
/// serialization.
struct AggregationCounters {
  std::uint64_t summary_widenings = 0;
  std::uint64_t subgroup_rebuilds = 0;
  std::uint64_t full_rebuilds = 0;
};

/// The subgroup index behind aggregated routing. Subscriptions are
/// clustered by the coarse signature of their per-dimension summaries;
/// each subgroup carries the join of its members' summaries, widened
/// incrementally on add and re-tightened on removal bursts and full
/// rebuilds.
///
/// Soundness: for every event, every registered subscription whose tree
/// matches it sits in a subgroup whose summary admits it
/// (subgroup_summary(subgroup_of(id))->admits(event)), under any churn
/// history and across train() rebuilds. Summaries are taken at add time,
/// so a registered tree must not change in place (pruning one means
/// remove + add).
///
/// Thread safety: add/remove/train mutate aggregator state and must be
/// externally serialized with each other and with the const observers.
/// Registered subscriptions must outlive the aggregator (it stores raw
/// pointers, like the matcher layer).
class SubscriptionAggregator {
 public:
  explicit SubscriptionAggregator(const Schema& schema, AggregatorOptions options = {});

  SubscriptionAggregator(const SubscriptionAggregator&) = delete;
  SubscriptionAggregator& operator=(const SubscriptionAggregator&) = delete;

  // --- Churn (externally serialized) --------------------------------------

  /// Registers a subscription: summarizes it over the current dimensions
  /// and joins it into its signature's subgroup. Throws
  /// std::invalid_argument on duplicate ids.
  void add(Subscription& sub);

  /// Unregisters by id; throws std::out_of_range when unknown. A removal
  /// leaves the subgroup summary wide (sound); removal bursts trigger a
  /// subgroup re-tighten.
  void remove(SubscriptionId id);

  // --- Dimension maintenance ----------------------------------------------

  /// Re-scores aggregation dimensions against trained event statistics
  /// (leaf weight 1 - selectivity; untrained fallback: constraint
  /// frequency) and fully rebuilds the subgroups when the choice changed.
  /// `stats` must outlive the aggregator.
  void train(const EventStats& stats);

  [[nodiscard]] const std::vector<AttributeId>& dimensions() const { return dims_; }

  /// Current signature-coarsening shift (0 = finest). Grows when the
  /// subgroup cap overflows; a train() that changes the dimensions
  /// re-derives the smallest shift that fits the live population.
  [[nodiscard]] unsigned signature_shift() const { return shift_; }

  // --- Introspection -------------------------------------------------------

  /// Non-empty subgroups.
  [[nodiscard]] std::size_t subgroup_count() const;
  /// Allocated subgroup slots (stable indices; some may be empty).
  [[nodiscard]] std::size_t subgroup_slots() const { return subgroups_.size(); }
  /// Summary of subgroup `g`, or nullptr when empty/out of range.
  [[nodiscard]] const SummarySet* subgroup_summary(std::size_t g) const;
  /// Subgroup index of a registered subscription; throws std::out_of_range.
  [[nodiscard]] std::size_t subgroup_of(SubscriptionId id) const;

  /// Total advertisement bytes of the non-empty subgroup summaries — the
  /// aggregated routing-table size a broker would flood instead of the
  /// per-subscription trees.
  [[nodiscard]] std::size_t advertised_bytes() const;

  [[nodiscard]] AggregationCounters counters() const;
  void reset_counters();

 private:
  struct Subgroup {
    SummarySet summary;
    std::vector<Subscription*> members;
    std::size_t removals = 0;
  };

  /// Builds the summary of one subscription over the current dimensions,
  /// charging cap widenings to the maintenance counter.
  [[nodiscard]] SummarySet summarize(const Subscription& sub);
  /// Routes a summarized subscription into its subgroup at the current
  /// coarsening shift, bounded by `cap` slots. Returns false when a fresh
  /// signature needs a slot beyond the cap and the shift can still climb
  /// (the caller coarsens and re-clusters); at the terminal shift it folds
  /// by modulo instead, so placement always succeeds there.
  [[nodiscard]] bool try_place(Subscription& sub, const SummarySet& set,
                               std::size_t cap);
  /// Re-clusters `members` from scratch at the current shift, climbing the
  /// shift until at most `cap` subgroups suffice. Counts as a full rebuild.
  void replace_all(const std::vector<Subscription*>& members, std::size_t cap);
  /// Re-tightens one subgroup's summary from its members in id order.
  void rebuild_subgroup(std::size_t g);
  /// Scores every constrained attribute and returns the top dimensions in
  /// score order (desc, id asc tie-break).
  [[nodiscard]] std::vector<AttributeId> choose_dimensions(
      const std::vector<Subscription*>& candidates) const;
  /// Installs a score-ranked dimension choice: dims_ ascending (the
  /// SummarySet layout) plus key_order_ (score-ranked indices into dims_).
  void set_dimensions(const std::vector<AttributeId>& ranked);
  /// Clustering key of one summary set: the signature of the
  /// highest-scored dimension the subscription actually constrains, at the
  /// current coarsening shift. Keying on a single dimension keeps the
  /// distinct-key count near the largest dimension's cardinality instead
  /// of the cross product of all dimensions, so the cap is met without
  /// coarsening the quantization into uselessness.
  [[nodiscard]] std::uint64_t signature_of(const SummarySet& set) const;
  /// Rescores dimensions over the live members; full rebuild when changed.
  void rescore();
  /// Population-milestone rescore (64, 256, 1024, ... members), keeping
  /// the bootstrap dimension choice self-correcting without training.
  void maybe_auto_rescore();
  [[nodiscard]] std::vector<Subscription*> members_by_id() const;

  const Schema* schema_;
  AggregatorOptions options_;
  const EventStats* stats_ = nullptr;
  std::vector<AttributeId> dims_;
  /// Indices into dims_ in score order (best first) — the clustering-key
  /// preference order of signature_of().
  std::vector<std::size_t> key_order_;
  /// Signature-coarsening shift; grows on subgroup-cap overflow so similar
  /// subscriptions merge instead of folding arbitrary signatures together.
  unsigned shift_ = 0;
  std::vector<Subgroup> subgroups_;
  /// First-seen signature (at shift_) -> subgroup slot.
  std::unordered_map<std::uint64_t, std::size_t> by_signature_;
  std::unordered_map<SubscriptionId::value_type, std::size_t> member_subgroup_;
  std::size_t next_auto_rescore_ = 64;

  std::uint64_t summary_widenings_ = 0;
  std::uint64_t subgroup_rebuilds_ = 0;
  std::uint64_t full_rebuilds_ = 0;
};

}  // namespace dbsp::agg
