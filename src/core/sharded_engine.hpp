#pragma once

/// \file
/// The sharded concurrent matching engine and its per-shard pruning hook —
/// the scaling layer between the matchers (filter/) and the broker.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/counting_matcher.hpp"
#include "obs/metrics.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

namespace obs {
class TraceBuilder;
}  // namespace obs

/// Construction-time knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of shards. 0 = auto: the DBSP_SHARDS environment knob when set,
  /// otherwise the machine's hardware concurrency.
  std::size_t shards = 0;
};

/// Resolves a requested shard count: a positive request is taken verbatim;
/// 0 reads env_int("DBSP_SHARDS") and falls back to hardware concurrency.
/// The result is always at least 1.
[[nodiscard]] std::size_t resolve_shard_count(std::size_t requested);

/// A horizontally partitioned matching engine: subscriptions are spread
/// across N shards by a stable hash of their id, with one independent
/// CountingMatcher (and thus one independent filter table) per shard.
/// Sharding composes with dimension-based pruning — pruning shrinks every
/// shard's filter table, sharding splits the tables across cores — and is
/// the first scaling layer toward the ROADMAP's high-traffic target.
///
/// Matching semantics are exactly those of the counting matcher: every
/// event is checked against all shards, and because each subscription lives
/// in exactly one shard the union of the shard results equals the unsharded
/// match set. Both match() and match_batch() return each event's matches
/// sorted by subscription id, so results are deterministic and independent
/// of the shard count (proved by sharded_engine_test).
///
/// Thread safety: add/remove/reindex and the match entry points mutate
/// engine state and must be externally serialized — one writer OR one
/// matching call at a time (the match-vs-churn exclusion contract).
/// Inside match_batch() the engine fans the batch out to its shards on an
/// internal thread pool (created lazily on first use when shard_count() >
/// 1); each worker touches only its own shard's matcher and scratch row,
/// so no two threads ever share mutable state. Distinct ShardedEngine
/// instances are fully independent and may be used from different threads
/// concurrently.
///
/// Enforcement: the engine itself carries no lock — its serializer is its
/// owner. In the public API the owning PubSubCore declares its engine
/// member DBSP_GUARDED_BY the facade mutex, so under clang's thread-safety
/// analysis any facade path that touches the engine without holding that
/// lock is a compile error, and tests/concurrent_stress_test.cpp races
/// the contract under ThreadSanitizer (see docs/ARCHITECTURE.md
/// "Concurrency contracts & static analysis").
class ShardedEngine {
 public:
  explicit ShardedEngine(const Schema& schema, ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers `sub` with the matcher of its shard. The subscription must
  /// outlive the engine and its address must be stable. A subscription may
  /// be registered with at most one engine at a time (the counting matcher
  /// stamps its predicate ids into the tree's leaves).
  void add(Subscription& sub);

  /// Unregisters by id; throws std::out_of_range when unknown.
  void remove(SubscriptionId id);

  /// Re-synchronizes the owning shard after the subscription's tree changed
  /// (pruning).
  void reindex(Subscription& sub);

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const;

  /// Predicate/subscription associations summed over shards (the memory
  /// metric).
  [[nodiscard]] std::size_t association_count() const;
  /// Associations contributed by one subscription.
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const;

  /// Matches one event against every shard on the calling thread and
  /// appends the union of the shard results to `out`, sorted by id.
  /// A non-null `trace` collects one shard_match span per shard for
  /// head-sampled traces.
  void match(const Event& event, std::vector<SubscriptionId>& out,
             obs::TraceBuilder* trace = nullptr);

  /// Batched dispatch: fans `events` out to the shards (shard 0 runs on the
  /// calling thread, the rest on the internal pool), then merges the
  /// per-shard results into one sorted subscriber-id list per event.
  /// `out` is resized to events.size(); row buffers are reused.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out);

  /// Convenience overload allocating the result rows.
  [[nodiscard]] std::vector<std::vector<SubscriptionId>> match_batch(
      std::span<const Event> events);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Stable shard assignment of a subscription id (splitmix64 finalizer,
  /// identical on every platform and run).
  [[nodiscard]] std::size_t shard_of(SubscriptionId id) const;

  /// Direct access to one shard's CountingMatcher — the hook for running a
  /// PruningEngine per shard. Throws std::out_of_range for a bad index.
  [[nodiscard]] CountingMatcher& counting_shard(std::size_t shard);
  [[nodiscard]] const CountingMatcher& counting_shard(std::size_t shard) const;

  /// Introspection counters summed over shards.
  [[nodiscard]] CountingMatcher::Counters counters() const;
  void reset_counters();

  /// Registers per-shard observability series with `registry`:
  /// `dbsp_shard_match_us{shard="i"}` (per-shard match latency in
  /// microseconds — per event in match(), per batch in match_batch()) and
  /// `dbsp_shard_batch_events{shard="i"}` (match_batch batch sizes). The
  /// registry must outlive the engine; recording is lock-free, so the
  /// match_batch shard workers stay contention-free (each worker touches
  /// only its own shard's series). Call at most once, before matching
  /// starts; without it matching records nothing.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  /// Lazily created fan-out pool (shard_count() - 1 workers).
  ThreadPool& pool();

  /// The shard's histogram when attach_metrics ran, else nullptr.
  [[nodiscard]] obs::Histogram* shard_hist(
      const std::vector<obs::Histogram*>& hists, std::size_t shard) const {
    return shard < hists.size() ? hists[shard] : nullptr;
  }

  std::vector<std::unique_ptr<CountingMatcher>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Per-shard result rows reused across match_batch calls.
  std::vector<std::vector<std::vector<SubscriptionId>>> batch_scratch_;
  /// Per-shard series (empty until attach_metrics; then one per shard).
  std::vector<obs::Histogram*> shard_match_us_;
  std::vector<obs::Histogram*> shard_batch_events_;
};

/// Builds one PruningEngine per shard of `engine`, wired to that shard's
/// matcher, and registers each of `subs`
/// with the engine owning its shard. Pruning each engine to a fraction of
/// its own capacity approximates the global priority-queue schedule while
/// keeping all index maintenance shard-local.
///
/// Most callers want the ShardedPruningSet wrapper (core/pruning_set.hpp),
/// which owns these engines and routes unregister_subscription to the
/// owning shard — raw use leaves unsubscribe routing to the caller.
[[nodiscard]] std::vector<std::unique_ptr<PruningEngine>> make_sharded_pruning_engines(
    ShardedEngine& engine, const SelectivityEstimator& estimator,
    const PruneEngineConfig& config, const std::vector<Subscription*>& subs);

}  // namespace dbsp
