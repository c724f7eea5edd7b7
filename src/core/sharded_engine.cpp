#include "core/sharded_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/env.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace dbsp {

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested > 0) return requested;
  const std::int64_t from_env = env_int(
      "DBSP_SHARDS", static_cast<std::int64_t>(ThreadPool::hardware_threads()));
  return from_env > 0 ? static_cast<std::size_t>(from_env) : 1;
}

ShardedEngine::ShardedEngine(const Schema& schema, ShardedEngineOptions options) {
  const std::size_t shards = resolve_shard_count(options.shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<CountingMatcher>(schema));
  }
  batch_scratch_.resize(shards_.size());
}

std::size_t ShardedEngine::shard_of(SubscriptionId id) const {
  // splitmix64 finalizer: avalanches dense ids so shards stay balanced.
  std::uint64_t x = id.value() + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

void ShardedEngine::add(Subscription& sub) { shards_[shard_of(sub.id())]->add(sub); }

void ShardedEngine::remove(SubscriptionId id) { shards_[shard_of(id)]->remove(id); }

void ShardedEngine::reindex(Subscription& sub) {
  shards_[shard_of(sub.id())]->reindex(sub);
}

bool ShardedEngine::contains(SubscriptionId id) const {
  return shards_[shard_of(id)]->contains(id);
}

std::size_t ShardedEngine::subscription_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->subscription_count();
  return total;
}

std::size_t ShardedEngine::association_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->association_count();
  return total;
}

std::size_t ShardedEngine::associations_of(SubscriptionId id) const {
  return shards_[shard_of(id)]->associations_of(id);
}

void ShardedEngine::match(const Event& event, std::vector<SubscriptionId>& out,
                          obs::TraceBuilder* trace) {
  const auto base = static_cast<std::ptrdiff_t>(out.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    obs::PhaseTimer timer(shard_hist(shard_match_us_, s));
    obs::ScopedSpan span(trace, obs::TraceStage::kShardMatch,
                         /*detailed_only=*/true);
    span.set_detail(s);
    shards_[s]->match(event, out);
  }
  std::sort(out.begin() + base, out.end());
}

ThreadPool& ShardedEngine::pool() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(shards_.size() - 1);
  return *pool_;
}

void ShardedEngine::match_batch(std::span<const Event> events,
                                std::vector<std::vector<SubscriptionId>>& out) {
  out.resize(events.size());
  if (shards_.size() == 1) {
    obs::PhaseTimer timer(shard_hist(shard_match_us_, 0));
    if (auto* hist = shard_hist(shard_batch_events_, 0)) {
      hist->record(static_cast<double>(events.size()));
    }
    for (std::size_t e = 0; e < events.size(); ++e) {
      out[e].clear();
      shards_[0]->match(events[e], out[e]);
      std::sort(out[e].begin(), out[e].end());
    }
    return;
  }

  // Each worker records only into its own shard's series, so the fan-out
  // stays free of cross-thread cache-line contention.
  auto run_shard = [&](std::size_t s) {
    obs::PhaseTimer timer(shard_hist(shard_match_us_, s));
    if (auto* hist = shard_hist(shard_batch_events_, s)) {
      hist->record(static_cast<double>(events.size()));
    }
    auto& rows = batch_scratch_[s];
    rows.resize(events.size());
    for (std::size_t e = 0; e < events.size(); ++e) {
      rows[e].clear();
      shards_[s]->match(events[e], rows[e]);
    }
  };

  // Shards 1..N-1 on the pool, shard 0 on the calling thread.
  std::vector<std::future<void>> futures;
  futures.reserve(shards_.size() - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    futures.push_back(pool().submit([&run_shard, s] { run_shard(s); }));
  }
  // The pool tasks reference this call's stack, so every path — including
  // shard 0 throwing — must wait for all of them before unwinding. Only
  // then surface the first failure.
  std::exception_ptr error;
  try {
    run_shard(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : futures) f.wait();
  if (error) std::rethrow_exception(error);
  for (auto& f : futures) f.get();

  for (std::size_t e = 0; e < events.size(); ++e) {
    out[e].clear();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& row = batch_scratch_[s][e];
      out[e].insert(out[e].end(), row.begin(), row.end());
    }
    std::sort(out[e].begin(), out[e].end());
  }
}

std::vector<std::vector<SubscriptionId>> ShardedEngine::match_batch(
    std::span<const Event> events) {
  std::vector<std::vector<SubscriptionId>> out;
  match_batch(events, out);
  return out;
}

CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) {
  return *shards_.at(shard);
}

const CountingMatcher& ShardedEngine::counting_shard(std::size_t shard) const {
  return *shards_.at(shard);
}

CountingMatcher::Counters ShardedEngine::counters() const {
  CountingMatcher::Counters total;
  for (const auto& shard : shards_) {
    const auto& c = shard->counters();
    total.events = std::max(total.events, c.events);  // every shard sees each event
    total.predicate_hits += c.predicate_hits;
    total.counter_increments += c.counter_increments;
    total.tree_evaluations += c.tree_evaluations;
    total.matches += c.matches;
  }
  return total;
}

void ShardedEngine::attach_metrics(obs::MetricsRegistry& registry) {
  shard_match_us_.clear();
  shard_batch_events_.clear();
  shard_match_us_.reserve(shards_.size());
  shard_batch_events_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard = std::to_string(s);
    shard_match_us_.push_back(
        &registry.histogram("dbsp_shard_match_us", {{"shard", shard}}));
    shard_batch_events_.push_back(
        &registry.histogram("dbsp_shard_batch_events", {{"shard", shard}}));
  }
}

void ShardedEngine::reset_counters() {
  for (auto& shard : shards_) shard->reset_counters();
}

std::vector<std::unique_ptr<PruningEngine>> make_sharded_pruning_engines(
    ShardedEngine& engine, const SelectivityEstimator& estimator,
    const PruneEngineConfig& config, const std::vector<Subscription*>& subs) {
  std::vector<std::unique_ptr<PruningEngine>> out;
  out.reserve(engine.shard_count());
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    out.push_back(std::make_unique<PruningEngine>(estimator, config,
                                                  &engine.counting_shard(s)));
  }
  for (Subscription* sub : subs) {
    out[engine.shard_of(sub->id())]->register_subscription(*sub);
  }
  return out;
}

}  // namespace dbsp
