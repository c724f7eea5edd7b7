// The traced run's layer replicas: the workload's table and events replayed
// in process through each layer's public entry points, one layer at a time,
// so each layer's self time is its call time minus the inner layer's.
// Timings are summarised like the end-to-end figures (window medians).

#include <filesystem>
#include <unordered_map>

#include "api/pubsub.hpp"
#include "core/sharded_engine.hpp"
#include "filter/attribute_index.hpp"
#include "filter/counting_matcher.hpp"
#include "selectivity/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dbsp::Event;
using dbsp::Node;
using dbsp::SubscriptionId;

/// Windows of a replica's timings (see windowed()).
constexpr std::size_t kLayerWindows = 8;

/// One call site's timings.
struct Timings {
  std::vector<Sample> us;
  void add(std::int64_t start, std::int64_t end, double per = 1.0) {
    us.push_back({start, ns_to_us(end - start) / per});
  }
  [[nodiscard]] double p50() const { return windowed(us, 0.5, kLayerWindows); }
  [[nodiscard]] double p99() const { return windowed(us, 0.99, kLayerWindows); }
};

std::vector<dbsp::Subscription> clone_table(const std::vector<const Node*>& trees) {
  std::vector<dbsp::Subscription> subs;
  subs.reserve(trees.size());  // matchers keep pointers: no reallocation
  for (std::size_t i = 0; i < trees.size(); ++i) {
    subs.emplace_back(SubscriptionId(static_cast<std::uint32_t>(i + 1)), trees[i]->clone());
  }
  return subs;
}

/// Times `fn(i)` for every event after eight warm-up calls.
template <class Fn>
Timings per_event(const std::vector<Event>& events, SpanLog& spans, const char* name,
                  Fn&& fn) {
  for (std::size_t i = 0; i < std::min<std::size_t>(events.size(), 8); ++i) fn(i);
  Timings t;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::int64_t a = now_ns();
    fn(i);
    const std::int64_t b = now_ns();
    spans.add(name, i, a, b);
    t.add(a, b);
  }
  return t;
}

/// Registers `trees` (clones) with `ps`, optionally timing each call.
void subscribe_all(dbsp::PubSub& ps, const std::vector<const Node*>& trees, std::size_t n,
                   std::vector<dbsp::SubscriptionHandle>& handles, Report& report,
                   Timings* timings = nullptr, SpanLog* spans = nullptr,
                   const char* name = "") {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = now_ns();
    auto h = ps.subscribe(trees[i]->clone(), [](const dbsp::Notification&) {});
    const std::int64_t b = now_ns();
    if (timings != nullptr) timings->add(a, b);
    if (spans != nullptr) spans->add(name, i, a, b);
    ++report.attempted;
    if (h.ok()) {
      handles.push_back(std::move(h).value());
    } else {
      ++report.failed;
    }
  }
}

}  // namespace

LayerNumbers measure_layers(const Config& cfg, const LayerInput& in, Report& report,
                            SpanLog& spans) {
  LayerNumbers out;
  const dbsp::Schema& schema = *in.schema;
  const auto& events = in.events;
  std::vector<dbsp::SubscriptionId> matched;

  // --- filter: one CountingMatcher over the whole table, and a replica
  // AttributeIndex per attribute over the same distinct predicates.
  {
    auto subs = clone_table(in.live);
    dbsp::CountingMatcher m(schema);
    Timings add;
    for (auto& s : subs) {
      const std::int64_t a = now_ns();
      m.add(s);
      add.add(a, now_ns());
    }
    const Timings match = per_event(events, spans, "filter.match", [&](std::size_t i) {
      m.match(events[i], matched);
      matched.clear();
    });
    const auto c = m.counters();
    const double ev = static_cast<double>(c.events);
    report.metric("filter.match_us", match.p50(), "us");
    report.metric("filter.predicate_hits_per_event",
                  static_cast<double>(c.predicate_hits) / ev, "count");
    report.metric("filter.counter_increments_per_event",
                  static_cast<double>(c.counter_increments) / ev, "count");
    report.metric("filter.tree_evaluations_per_event",
                  static_cast<double>(c.tree_evaluations) / ev, "count");
    report.metric("filter.matches_per_event", static_cast<double>(c.matches) / ev, "count");
    report.metric("filter.trigger_precision",
                  c.tree_evaluations == 0 ? 1.0
                                          : static_cast<double>(c.matches) /
                                                static_cast<double>(c.tree_evaluations),
                  "share");
    report.metric("filter.associations", static_cast<double>(m.association_count()), "count");
    report.metric("filter.live_predicates", static_cast<double>(m.live_predicates()), "count");
    report.metric("filter.add_us", add.p50(), "us");

    std::unordered_map<std::uint32_t, const dbsp::Predicate*> preds;
    for (const auto& s : subs) {
      s.root().for_each_leaf([&](const Node& leaf) {
        preds.emplace(leaf.predicate_id().value(), &leaf.predicate());
      });
    }
    std::vector<dbsp::AttributeIndex> index(schema.attribute_count());
    for (const auto& [id, p] : preds) {
      index[p->attribute().value()].insert(dbsp::PredicateId(id), *p);
    }
    std::vector<dbsp::PredicateId> hits;
    const Timings collect = per_event(events, spans, "filter.collect", [&](std::size_t i) {
      for (const auto& [attr, value] : events[i].pairs()) {
        if (attr.value() < index.size()) index[attr.value()].collect(value, hits);
      }
      hits.clear();
    });
    report.metric("filter.collect_us", collect.p50(), "us");
    report.metric("filter.count_us", match.p50() - collect.p50(), "us");

    Timings remove;
    for (const std::size_t i : sample_seqs(subs.size(), 1000)) {
      const std::int64_t a = now_ns();
      m.remove(subs[i]);
      remove.add(a, now_ns());
    }
    report.metric("filter.remove_us", remove.p50(), "us");
  }

  // --- subscription: direct tree evaluation, 16 events by every tree.
  {
    Timings eval;
    std::size_t hits = 0;
    for (std::size_t e = 0; e < std::min<std::size_t>(events.size(), 16); ++e) {
      const std::int64_t a = now_ns();
      for (const Node* t : in.live) hits += t->evaluate_event(events[e]) ? 1 : 0;
      const std::int64_t b = now_ns();
      spans.add("subscription.evaluate", e, a, b);
      eval.add(a, b, static_cast<double>(std::max<std::size_t>(1, in.live.size())) / 1e3);
    }
    report.note("subscription.evaluate_hits", static_cast<double>(hits), "count");
    report.metric("subscription.eval_ns_per_tree", eval.p50(), "ns");
  }

  // --- core: ShardedEngine at 1 shard and at the default count, and the
  // default count's shards as standalone matchers.
  {
    auto subs = clone_table(in.live);
    dbsp::ShardedEngineOptions one;
    one.shards = 1;
    dbsp::ShardedEngine engine(schema, one);
    for (auto& s : subs) engine.add(s);
    const Timings t = per_event(events, spans, "core.match_1shard", [&](std::size_t i) {
      engine.match(events[i], matched);
      matched.clear();
    });
    report.metric("core.match_1shard_us", t.p50(), "us");
  }
  std::vector<std::size_t> shard_of;
  std::size_t shards = 0;
  double core_match_us = 0.0;
  {
    auto subs = clone_table(in.live);
    dbsp::ShardedEngine engine(schema);
    shards = engine.shard_count();
    for (auto& s : subs) {
      engine.add(s);
      shard_of.push_back(engine.shard_of(s.id()));
    }
    const Timings t = per_event(events, spans, "core.match", [&](std::size_t i) {
      engine.match(events[i], matched);
      matched.clear();
    });
    core_match_us = t.p50();
    report.metric("core.match_us", core_match_us, "us");
    constexpr std::size_t kBatch = 64;
    std::vector<std::vector<SubscriptionId>> rows;
    Timings batch;
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < events.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, events.size() - i);
        const std::int64_t a = now_ns();
        engine.match_batch(std::span<const Event>(events.data() + i, n), rows);
        const std::int64_t b = now_ns();
        spans.add("core.match_batch", i, a, b);
        batch.add(a, b, static_cast<double>(n));
      }
    }
    report.metric("core.match_batch_us_per_event", batch.p50(), "us");
  }
  {
    auto subs = clone_table(in.live);
    std::vector<std::unique_ptr<dbsp::CountingMatcher>> part;
    for (std::size_t k = 0; k < shards; ++k) {
      part.push_back(std::make_unique<dbsp::CountingMatcher>(schema));
    }
    for (std::size_t i = 0; i < subs.size(); ++i) part[shard_of[i]]->add(subs[i]);
    std::vector<Sample> slowest;
    std::vector<double> skew;
    for (std::size_t i = 0; i < events.size(); ++i) {
      double max_us = 0.0;
      double sum_us = 0.0;
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < shards; ++k) {
        const std::int64_t a = now_ns();
        part[k]->match(events[i], matched);
        const std::int64_t b = now_ns();
        matched.clear();
        spans.add("filter.shard_match", i, a, b);
        max_us = std::max(max_us, ns_to_us(b - a));
        sum_us += ns_to_us(b - a);
      }
      slowest.push_back({t0, max_us});
      skew.push_back(sum_us > 0.0 ? max_us / (sum_us / static_cast<double>(shards)) : 1.0);
    }
    report.metric("core.fanout_self_us", core_match_us - windowed(slowest, 0.5, kLayerWindows),
                  "us");
    report.metric("core.shard_skew", median(skew), "ratio");
  }

  // --- api and obs: PubSub with the shipped defaults, and the same with
  // metrics and tracing off, publishing alternately. Handles are declared
  // before the facades so the facades die first and skip the unsubscribes.
  {
    std::vector<dbsp::SubscriptionHandle> handles;
    dbsp::PubSub def(schema);
    dbsp::PubSubOptions plain_options;
    plain_options.metrics = false;
    plain_options.tracing = false;
    dbsp::PubSub plain(schema, plain_options);
    Timings subscribe;
    subscribe_all(def, in.live, in.live.size(), handles, report, &subscribe, &spans,
                  "api.subscribe");
    subscribe_all(plain, in.live, in.live.size(), handles, report);
    report.metric("api.subscribe_us", subscribe.p50(), "us");
    report.metric("subscription.bytes", static_cast<double>(def.subscription_bytes()), "bytes");
    Timings def_us;
    Timings plain_us;
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < events.size(); ++i) {
        std::int64_t a = now_ns();
        (void)def.publish(events[i]);
        std::int64_t b = now_ns();
        spans.add("api.publish", i, a, b);
        def_us.add(a, b);
        a = now_ns();
        (void)plain.publish(events[i]);
        plain_us.add(a, now_ns());
      }
    }
    // Whole batches, as churn_pruned sends them; the first pass warms up.
    Timings batch_us;
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i + in.batch <= events.size(); i += in.batch) {
        const std::int64_t a = now_ns();
        (void)def.publish_batch(std::span<const Event>(events.data() + i, in.batch));
        const std::int64_t b = now_ns();
        if (rep == 0) continue;
        spans.add("api.publish_batch", i, a, b);
        batch_us.add(a, b);
      }
    }
    out.api_publish_batch_us = batch_us.p50();
    out.api_publish_p50_us = def_us.p50();
    report.metric("api.publish_p50_us", out.api_publish_p50_us, "us");
    report.metric("api.publish_p99_us", def_us.p99(), "us");
    report.metric("api.self_us", out.api_publish_p50_us - core_match_us, "us");
    report.metric("obs.publish_overhead_us", out.api_publish_p50_us - plain_us.p50(), "us");
  }
  {
    dbsp::EventStats stats(schema);
    for (const Event& e : in.training) stats.observe(e);
    stats.finalize();
    std::vector<const dbsp::Predicate*> preds;
    for (std::size_t i = 0; i < std::min<std::size_t>(in.live.size(), 2000); ++i) {
      in.live[i]->for_each_leaf([&](const Node& l) { preds.push_back(&l.predicate()); });
    }
    Timings estimate;
    double sum = 0.0;
    for (int rep = 0; rep < 16; ++rep) {
      const std::int64_t a = now_ns();
      for (const auto* p : preds) sum += stats.predicate_selectivity(*p);
      estimate.add(a, now_ns(), static_cast<double>(std::max<std::size_t>(1, preds.size())) / 1e3);
    }
    report.note("selectivity.estimate_sum", sum, "count");
    report.metric("selectivity.estimate_ns", estimate.p50(), "ns");
  }

  // --- selectivity and core pruning: train (three times, as a retrain
  // would), register the originals, prune to the workloads' fraction.
  const std::size_t cap = std::min(in.store_cap, in.originals.size());
  {
    std::vector<dbsp::SubscriptionHandle> handles;
    dbsp::PubSubOptions options;
    options.pruning = true;
    dbsp::PubSub ps(schema, options);
    Timings train;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t a = now_ns();
      ++report.attempted;
      if (!ps.train(in.training).ok()) ++report.failed;
      const std::int64_t b = now_ns();
      spans.add("selectivity.train", static_cast<std::uint64_t>(rep), a, b);
      train.add(a, b, 1e3);
    }
    report.metric("selectivity.train_ms", train.p50(), "ms");
    subscribe_all(ps, in.originals, cap, handles, report);
    const std::int64_t a = now_ns();
    const auto pruned = ps.prune_to_fraction(kPruneFraction);
    const std::int64_t b = now_ns();
    spans.add("core.prune", 0, a, b);
    ++report.attempted;
    if (!pruned.ok()) ++report.failed;
    report.metric("core.prune_ms", static_cast<double>(b - a) / 1e6, "ms");
    report.metric("core.prunings_performed",
                  pruned.ok() ? static_cast<double>(pruned.value()) : 0.0, "count");
  }

  // --- store: durable minus in-memory subscribe over the same trees, and
  // explicit checkpoints.
  {
    Timings mem;
    {
      std::vector<dbsp::SubscriptionHandle> handles;
      dbsp::PubSub ps(schema);
      subscribe_all(ps, in.originals, cap, handles, report, &mem);
    }
    const std::string dir = cfg.work_dir + "/layer-store";
    std::filesystem::remove_all(dir);
    {
      std::vector<dbsp::SubscriptionHandle> handles;
      dbsp::StoreOptions store;
      store.directory = dir;
      store.schema = schema;
      auto opened = dbsp::PubSub::open(std::move(store));
      ++report.attempted;
      if (!opened.ok()) {
        ++report.failed;
        report.mismatch("layer store: " + opened.status().to_string());
      } else {
        dbsp::PubSub& ps = opened.value();
        Timings durable;
        subscribe_all(ps, in.originals, cap, handles, report, &durable, &spans,
                      "store.subscribe");
        const auto st = ps.store_stats();
        Timings checkpoint;
        for (int rep = 0; rep < 3; ++rep) {
          const std::int64_t a = now_ns();
          ++report.attempted;
          if (!ps.checkpoint().ok()) ++report.failed;
          const std::int64_t b = now_ns();
          spans.add("store.checkpoint", static_cast<std::uint64_t>(rep), a, b);
          checkpoint.add(a, b, 1e3);
        }
        report.metric("store.append_us", durable.p50() - mem.p50(), "us");
        report.metric("store.checkpoint_ms", checkpoint.p50(), "ms");
        report.metric("store.checkpoints", static_cast<double>(st.snapshots_written), "count");
        report.metric("store.wal_bytes_per_op",
                      st.wal_records == 0 ? 0.0
                                          : static_cast<double>(st.wal_bytes) /
                                                static_cast<double>(st.wal_records),
                      "bytes");
      }
    }
    std::filesystem::remove_all(dir);
  }
  report.note("layer_shards", static_cast<double>(shards), "count");
  return out;
}

}  // namespace perfbench
