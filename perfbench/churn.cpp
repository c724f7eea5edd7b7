// churn_pruned: an in-process durable dbsp::PubSub with pruning, because
// the wire has no train/prune verb. One thread publishes batches, one
// thread runs subscribe/unsubscribe churn beside it, both at fixed rates.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "api/pubsub.hpp"
#include "common/rng.hpp"
#include "scenario/workload_domain.hpp"
#include "subscription/parser.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dbsp::Event;
using dbsp::Node;

struct ChurnSpec {
  std::size_t base_subs;       ///< stable population, never churned
  std::size_t churn_pool;      ///< trees the churn thread draws from
  std::size_t churn_live;      ///< churned subscriptions kept live on average
  std::size_t training;        ///< events train() sees during set-up
  std::size_t event_pool;
  std::size_t batch;           ///< events per publish_batch
  double batch_rate;           ///< fixed open-loop rate (batches/s)
  double churn_rate;           ///< fixed churn rate (operations/s)
  std::size_t oracle_samples;  ///< events checked against every base tree
  int setups;
};

/// The churn thread re-prunes every this many operations, as a broker's
/// maintenance tick would.
constexpr std::size_t kPruneEvery = 64;
/// Fixed-rate events whose notifications are timed: every this many.
constexpr std::size_t kNotifyEvery = 16;
/// Checkpoints per window of the fixed-rate figures.
constexpr std::size_t kCheckpointsPerWindow = 3;
/// Events whose notified set is kept for the oracle: every this many.
constexpr std::size_t kOracleEvery = 509;
/// Cycles of a fixed-rate segment and a closed-loop segment.
constexpr std::size_t kCycles = 10;
/// Closed-loop events per second the generator's records are sized for.
constexpr double kClosedEventsPerS = 150000.0;

ChurnSpec spec_for(const Config& cfg) {
  if (cfg.tiny) return {300, 200, 50, 200, 256, 16, 100.0, 200.0, 16, 2};
  // 1000 churn operations/s and their re-prunes fill the store's
  // 1024-record WAL about every 0.4 s: the fixed-rate phase of a 40 s run
  // holds about 60 checkpoints, and a few percent of the batches and of
  // the churn subscribes wait for one, so the p99s read the checkpoint
  // stall. Batches keep the shards busy: single publishes on this table
  // mostly time the host waking the engine's pool threads.
  return {10000, 4096, 256, 1000, 4096, 64, 100.0, 1000.0, 48, 5};
}

struct Rec {
  std::uint32_t seq = 0;
  std::uint32_t sub = 0;
  std::int64_t t = 0;
};

/// Notification sink. Callbacks run on the publishing thread under the
/// facade lock, and only the publisher thread publishes, so the counters
/// describe the request in progress. Its memory is fixed before set-up:
/// only sampled events keep their notifications.
struct Sink {
  std::uint32_t base_subs = 0;
  std::uint64_t seq = 0;          ///< seq of the request's first event
  std::size_t events = 0;         ///< events of the request in progress
  bool fixed = false;             ///< the request is in the fixed-rate phase
  std::uint64_t notified = 0;     ///< callbacks of the request in progress
  std::vector<std::uint64_t> base_notified;  ///< per event of the request
  std::uint64_t total = 0;        ///< callbacks of all requests
  std::uint64_t wrong_seq = 0;    ///< callbacks carrying another request's seq
  std::uint64_t dropped = 0;      ///< sampled callbacks beyond the buffer
  std::vector<Rec> recs;          ///< sampled notifications (prefaulted)

  void begin(std::uint64_t first_seq, std::size_t n, bool fixed_rate) {
    seq = first_seq;
    events = n;
    fixed = fixed_rate;
    notified = 0;
    std::fill_n(base_notified.begin(), n, 0);
  }
};

struct Facade {
  std::optional<dbsp::PubSub> pubsub;
  std::vector<dbsp::SubscriptionHandle> base;
  std::unordered_map<std::uint32_t, std::uint32_t> index_of;  ///< id -> tree index
  double setup_s = 0.0;
};

dbsp::PubSub::Callback record_into(Sink& sink, std::uint32_t idx) {
  return [&sink, idx](const dbsp::Notification& n) {
    ++sink.notified;
    const std::uint64_t offset = n.seq - sink.seq;  // wraps when below
    if (offset >= sink.events) {
      ++sink.wrong_seq;
      return;
    }
    if (idx < sink.base_subs) ++sink.base_notified[offset];
    if (n.seq % kOracleEvery != 0 && !(sink.fixed && n.seq % kNotifyEvery == 0)) return;
    if (sink.recs.size() < sink.recs.capacity()) {
      sink.recs.push_back({static_cast<std::uint32_t>(n.seq), idx, now_ns()});
    } else {
      ++sink.dropped;
    }
  };
}

/// Opens a fresh store, trains, registers the base population, prunes.
Facade set_up(const std::string& dir, const dbsp::Schema& schema,
              const std::vector<const Node*>& trees, std::size_t base,
              const std::vector<Event>& training, Sink& sink, Report& report) {
  std::filesystem::remove_all(dir);
  Facade f;
  const std::int64_t t0 = now_ns();
  dbsp::StoreOptions store;
  store.directory = dir;
  store.schema = schema;
  dbsp::PubSubOptions options;
  options.pruning = true;
  auto opened = dbsp::PubSub::open(std::move(store), options);
  ++report.attempted;
  if (!opened.ok()) {
    ++report.failed;
    report.mismatch("open store: " + opened.status().to_string());
    return f;
  }
  f.pubsub.emplace(std::move(opened).value());
  ++report.attempted;
  if (!f.pubsub->train(training).ok()) ++report.failed;
  for (std::size_t i = 0; i < base; ++i) {
    ++report.attempted;
    auto h = f.pubsub->subscribe(trees[i]->clone(),
                                 record_into(sink, static_cast<std::uint32_t>(i)));
    if (!h.ok()) {
      ++report.failed;
      continue;
    }
    f.index_of.emplace(h.value().id().value(), static_cast<std::uint32_t>(i));
    f.base.push_back(std::move(h).value());
  }
  ++report.attempted;
  if (!f.pubsub->prune_to_fraction(kPruneFraction).ok()) ++report.failed;
  f.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return f;
}

/// For each event with a nonzero `published` entry: how many base trees
/// match it, evaluated over the originals on up to four threads.
std::vector<std::uint64_t> true_base_matches(const std::vector<const Node*>& base,
                                             const std::vector<Event>& events,
                                             const std::vector<std::uint64_t>& published) {
  std::vector<std::uint64_t> out(events.size(), 0);
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t e = w; e < events.size(); e += workers) {
        if (published[e] != 0) out[e] = expected_matches(base, events[e]).size();
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

}  // namespace

Report run_churn(const Config& cfg) {
  Report report;
  const ChurnSpec spec = spec_for(cfg);
  const double S = cfg.seconds;
  dbsp::WorkloadConfig wc;
  wc.seed = cfg.seed;
  const auto domain = dbsp::make_auction_workload(wc);
  const dbsp::Schema& schema = domain->schema();

  // Tree index i < base_subs: the stable population; above: churn pool.
  std::vector<std::unique_ptr<Node>> originals;
  {
    auto base = domain->subscriptions(1);
    for (std::size_t i = 0; i < spec.base_subs; ++i) originals.push_back(base->next());
    auto pool = domain->subscriptions(4);
    for (std::size_t i = 0; i < spec.churn_pool; ++i) originals.push_back(pool->next());
  }
  std::vector<const Node*> trees;
  for (const auto& t : originals) trees.push_back(t.get());
  const std::vector<const Node*> base_trees(
      trees.begin(), trees.begin() + static_cast<std::ptrdiff_t>(spec.base_subs));
  const std::vector<Event> events = domain->events(2)->generate(spec.event_pool);
  const std::vector<Event> training = domain->events(3)->generate(spec.training);

  // Phases, as shares of the run: a short closed-loop warm-up, then
  // kCycles cycles of a fixed-rate segment beside the churn and a
  // closed-loop segment on the table the churn left (60% and 30% of the
  // run over all cycles). Churn runs only beside the fixed-rate segments: a
  // closed loop would starve it of the facade lock, and its catching up
  // would set the closed loop's rate. Interleaving spreads every figure's
  // windows over the whole run, so a slow stretch of the host moves a
  // minority of them.
  const double warmup_s = 0.03 * S;
  const double fixed_s = 0.6 * S;
  const double closed_s = 0.3 * S;
  const std::size_t cycles = cfg.tiny ? 2 : kCycles;

  // Everything the generator records is sized here, before set-up, so it
  // neither grows with the program's speed nor counts in peak_rss_mb.
  Sink sink;
  sink.base_subs = static_cast<std::uint32_t>(spec.base_subs);
  sink.base_notified.assign(spec.batch, 0);
  prefault(sink.recs, 1u << 21);
  std::vector<std::uint64_t> published_by_event(events.size(), 0);
  std::vector<std::uint64_t> base_notified_by_event(events.size(), 0);
  std::optional<Facade> facade;
  Phase phase = kWarmup;  // the publisher's current phase
  SpanLog pub_spans(cfg.trace);
  PublishDriver driver(
      [&](std::size_t first, std::size_t n) -> dbsp::Result<std::uint64_t> {
        const std::size_t seq = driver.recs().size();  // the seq of its first event
        sink.begin(seq, n, phase == kFixedRate);
        dbsp::PubSub& ps = *facade->pubsub;
        const std::uint64_t count =
            n == 1 ? ps.publish(events[first])
                   : ps.publish_batch(std::span<const Event>(events.data() + first, n));
        // The per-request check: the reply's count is the callbacks it made.
        if (sink.notified != count) {
          report.mismatch("seq " + std::to_string(seq) + ": publish counted " +
                          std::to_string(count) + ", callbacks saw " +
                          std::to_string(sink.notified));
        }
        sink.total += sink.notified;
        for (std::size_t i = 0; i < n; ++i) {
          ++published_by_event[first + i];
          base_notified_by_event[first + i] += sink.base_notified[i];
        }
        return count;
      },
      events.size(), pub_spans, "api.publish");
  auto& recs = driver.recs();
  if (!cfg.trace) {
    driver.limit_records(
        static_cast<std::size_t>(spec.batch_rate * static_cast<double>(spec.batch) * fixed_s +
                                 kClosedEventsPerS * closed_s) +
        (1u << 16));
  }
  const auto churn_cap = static_cast<std::size_t>(spec.churn_rate * fixed_s * 1.5) + 1024;
  std::vector<Sample> subscribe_us;  // during the fixed-rate phase
  std::vector<double> churn_lag_us;
  std::vector<std::int64_t> checkpoint_at;  // start of each checkpointing op
  prefault(subscribe_us, churn_cap);
  prefault(churn_lag_us, churn_cap);
  prefault(checkpoint_at, 4096);
  const double baseline_rss = rss_mb(static_cast<int>(::getpid()), "VmRSS");

  // Set-ups: the first ones here, the rest after the measured phases (each
  // in a fresh store directory), so that setup_s samples the host across
  // the run.
  std::vector<double> setups;
  const std::string dir = cfg.work_dir + "/store";
  const auto close = [](std::optional<Facade>& f) {
    if (!f) return;
    f->pubsub.reset();  // first, so the handles do not log unsubscribes
    f.reset();
  };
  for (int k = 0; k < spec.setups / 2; ++k) {
    close(facade);
    facade.emplace(set_up(dir, schema, trees, spec.base_subs, training, sink, report));
    setups.push_back(facade->setup_s);
    if (!facade->pubsub) return report;
  }
  dbsp::PubSub& ps = *facade->pubsub;
  report.resolved_shards = ps.shard_count();
  const auto prunings_setup = ps.pruning_stats().performed;

  // --- Churn thread, one per fixed-rate segment ------------------------------
  std::atomic<bool> stop{false};
  std::uint64_t churn_attempted = 0;
  std::uint64_t churn_failed = 0;
  SpanLog churn_spans(cfg.trace);
  dbsp::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<dbsp::SubscriptionHandle> live;
  std::size_t next_tree = 0;
  std::size_t op = 0;  // churn operations over all segments
  const auto churn_segment = [&] {
    const double period = 1e9 / spec.churn_rate;
    const std::int64_t t0 = now_ns();
    std::int64_t last_done = t0;
    std::uint64_t checkpoints = ps.store_stats().snapshots_written;
    for (std::size_t k = 0; !stop.load(std::memory_order_acquire); ++k, ++op) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(period * static_cast<double>(k));
      const std::int64_t free_at = std::max(due, last_done);
      if (now_ns() < due) sleep_until_ns(due);
      const std::int64_t start = now_ns();
      if (churn_lag_us.size() < churn_lag_us.capacity()) {
        churn_lag_us.push_back(ns_to_us(start - free_at));
      }
      const bool add = live.size() < spec.churn_live / 2 ||
                       (live.size() < 2 * spec.churn_live && rng.chance(0.5));
      ++churn_attempted;
      const char* name = add ? "churn.subscribe" : "churn.unsubscribe";
      if (add) {
        const auto idx = static_cast<std::uint32_t>(
            spec.base_subs + (next_tree++ % spec.churn_pool));
        auto h = ps.subscribe(trees[idx]->clone(), record_into(sink, idx));
        last_done = now_ns();
        if (subscribe_us.size() < subscribe_us.capacity()) {
          // From its due time, less the generator's own lateness: the
          // wait behind a slow earlier operation counts, the host waking
          // this thread late does not.
          subscribe_us.push_back({due, ns_to_us(last_done - due - (start - free_at))});
        }
        if (h.ok()) {
          if (cfg.trace) facade->index_of[h.value().id().value()] = idx;
          live.push_back(std::move(h).value());
        } else {
          ++churn_failed;
        }
      } else {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        std::swap(live[victim], live.back());
        if (!live.back().release().ok()) ++churn_failed;
        live.pop_back();
        last_done = now_ns();
      }
      churn_spans.add(name, op, start, last_done);
      if (op % kPruneEvery == kPruneEvery - 1) {
        const std::int64_t a = now_ns();
        ++churn_attempted;
        if (!ps.prune_to_fraction(kPruneFraction).ok()) ++churn_failed;
        last_done = now_ns();
        churn_spans.add("churn.prune", op, a, last_done);
      }
      const std::uint64_t c = ps.store_stats().snapshots_written;
      if (c != checkpoints) {
        if (checkpoint_at.size() < checkpoint_at.capacity()) checkpoint_at.push_back(start);
        churn_spans.add("store.checkpoint", op, start, last_done);
      }
      checkpoints = c;
    }
  };

  // --- Publisher ----------------------------------------------------------------
  const std::int64_t measure_t0 = now_ns();
  driver.closed_loop(warmup_s, kWarmup, spec.batch);
  std::vector<std::pair<std::size_t, std::size_t>> closed_segments;  // seq ranges
  for (std::size_t c = 0; c < cycles; ++c) {
    phase = kFixedRate;
    stop.store(false, std::memory_order_release);
    std::thread churn(churn_segment);
    driver.open_loop(spec.batch_rate, fixed_s / static_cast<double>(cycles), kFixedRate,
                     spec.batch);
    stop.store(true, std::memory_order_release);
    churn.join();
    phase = kClosed;
    const std::size_t first = recs.size();
    driver.closed_loop(closed_s / static_cast<double>(cycles), kClosed, spec.batch);
    closed_segments.emplace_back(first, recs.size());
  }
  // Churned registrations stay live until the reopen check.
  for (auto& h : live) facade->base.push_back(std::move(h));
  const double trace_overhead =
      cfg.trace ? trace_overhead_pct(driver, pub_spans, 0.02 * S) : 0.0;
  const double measure_s = static_cast<double>(now_ns() - measure_t0) / 1e9;
  report.attempted += driver.attempted() + churn_attempted;
  report.failed += driver.failed() + churn_failed;
  // Read before the oracle's and the reopen's own allocations.
  const double peak_rss = rss_mb(static_cast<int>(::getpid()), "VmHWM") - baseline_rss;

  // --- Oracle -----------------------------------------------------------------
  if (sink.wrong_seq != 0) {
    report.mismatch(std::to_string(sink.wrong_seq) + " callbacks carried another publish's seq");
  }
  if (sink.dropped != 0) {
    report.valid = false;
    report.errors.push_back("the sampled-notification buffer overflowed");
  }
  {
    // Pruning may only add deliveries: every base subscriber whose original
    // tree matches a sampled event must have been notified of it.
    std::vector<std::size_t> kept;
    for (std::size_t q = 0; q < recs.size(); q += kOracleEvery) kept.push_back(q);
    std::map<std::size_t, std::vector<std::uint32_t>> notified;
    for (const std::size_t i : sample_seqs(kept.size(), spec.oracle_samples)) {
      notified[kept[i]];
    }
    for (const Rec& r : sink.recs) {
      const auto it = notified.find(r.seq);
      if (it != notified.end() && r.sub < spec.base_subs) it->second.push_back(r.sub);
    }
    bool first = true;
    for (auto& [q, got] : notified) {
      std::sort(got.begin(), got.end());
      auto want = expected_matches(base_trees, events[recs[q].event]);
      if (cfg.corrupt_oracle && first) {
        // A base subscriber that was not notified.
        for (std::uint32_t i = 0; i < spec.base_subs; ++i) {
          if (!std::binary_search(got.begin(), got.end(), i)) {
            want.push_back(i);
            break;
          }
        }
        std::sort(want.begin(), want.end());
      }
      first = false;
      if (!std::includes(got.begin(), got.end(), want.begin(), want.end())) {
        report.mismatch("seq " + std::to_string(q) +
                        ": a base subscriber whose original tree matches was not notified");
      }
    }
  }
  // Notifications to the stable population per match of its original trees:
  // 1 for exact matching, above 1 by the false positives pruning adds.
  const auto truth = true_base_matches(base_trees, events, published_by_event);
  double base_notified = 0.0;
  double true_matches = 0.0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    base_notified += static_cast<double>(base_notified_by_event[e]);
    true_matches += static_cast<double>(published_by_event[e] * truth[e]);
  }
  if (base_notified < true_matches) {
    report.mismatch("the stable population received fewer notifications than its originals match");
  }

  const auto store_stats = ps.store_stats();
  const auto pruning = ps.pruning_stats();
  report.note("events_published", static_cast<double>(recs.size()), "count");
  report.note("notifications", static_cast<double>(sink.total), "count");
  report.note("base_notifications", base_notified, "count");
  report.note("base_true_matches", true_matches, "count");
  report.note("false_positive_share", 1.0 - true_matches / base_notified, "share");
  report.note("false_positive_share_unpruned", 0.0, "share");
  report.note("subscriptions", static_cast<double>(ps.subscription_count()), "count");
  report.note("prunings_setup", static_cast<double>(prunings_setup), "count");
  report.note("prunings_total", static_cast<double>(pruning.performed), "count");
  report.note("checkpoints", static_cast<double>(store_stats.snapshots_written), "count");
  report.note("churn_ops", static_cast<double>(churn_attempted), "count");
  report.note("measure_s", measure_s, "s");
  std::vector<double> lag = driver.lag_us();
  lag.insert(lag.end(), churn_lag_us.begin(), churn_lag_us.end());
  const double lag_p99 = percentile(lag, 0.99);
  report.note("generator_lag_p50_us", percentile(lag, 0.5), "us");
  report.note("generator_lag_p99_us", lag_p99, "us");
  if (lag_p99 > 5000.0) report.valid = false;

  // Pruned live trees, for the traced run's replicas.
  std::vector<std::unique_ptr<Node>> live_trees;
  if (cfg.trace) {
    for (const auto id : ps.subscription_ids()) {
      const auto text = ps.subscription_text(id);
      const std::uint32_t idx = facade->index_of.at(id.value());
      try {
        live_trees.push_back(text.ok() ? dbsp::parse_subscription(text.value(), schema)
                                       : trees[idx]->clone());
      } catch (const std::exception&) {
        live_trees.push_back(trees[idx]->clone());
      }
    }
  }

  // Reopen: the store must reproduce the live id set.
  const auto live_ids = ps.subscription_ids();
  facade->pubsub.reset();
  {
    dbsp::StoreOptions store;
    store.directory = dir;
    store.create_if_missing = false;
    auto reopened = dbsp::PubSub::open(std::move(store));
    ++report.attempted;
    if (!reopened.ok()) {
      ++report.failed;
      report.mismatch("reopen failed: " + reopened.status().to_string());
    } else if (reopened.value().subscription_ids() != live_ids) {
      report.mismatch("reopened store holds " +
                      std::to_string(reopened.value().subscription_ids().size()) +
                      " subscriptions, live set had " + std::to_string(live_ids.size()));
    }
  }
  facade.reset();
  for (int k = spec.setups / 2; k < spec.setups; ++k) {
    facade.emplace(set_up(dir, schema, trees, spec.base_subs, training, sink, report));
    setups.push_back(facade->setup_s);
    close(facade);
  }
  std::filesystem::remove_all(dir);

  // --- Metrics ----------------------------------------------------------------
  // The fixed-rate figures are medians over windows that run from one
  // checkpoint to the third after it, so every window holds the same number
  // of checkpoint stalls and they count in every window's percentiles.
  // Publish latency from the due time, less the generator's own lateness
  // (as for the churn subscribes).
  std::vector<Sample> pub_lat;
  std::int64_t prev_reply = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!request_head(recs, i)) continue;
    const PubRec& r = recs[i];
    if (r.phase == kFixedRate) {
      const std::int64_t free_at = std::max(r.due, prev_reply);
      pub_lat.push_back({r.due, ns_to_us(r.reply - r.due - (r.sent - free_at))});
    }
    prev_reply = r.reply;
  }
  const std::int64_t fixed_t0 = pub_lat.empty() ? 0 : pub_lat.front().t;
  const std::int64_t fixed_t1 = pub_lat.empty() ? 0 : pub_lat.back().t;
  std::vector<std::int64_t> edges;
  std::size_t in_phase = 0;
  for (const std::int64_t t : checkpoint_at) {
    if (t >= fixed_t0 && t <= fixed_t1 && in_phase++ % kCheckpointsPerWindow == 0) {
      edges.push_back(t);
    }
  }
  if (edges.size() < 2) edges = {fixed_t0, fixed_t1 + 1};
  report.note("checkpoint_windows", static_cast<double>(edges.size() - 1), "count");
  report.note("publish_samples", static_cast<double>(pub_lat.size()), "count");
  std::vector<Sample> notify_lat;
  for (const Rec& r : sink.recs) {
    if (r.seq >= recs.size()) continue;
    const PubRec& p = recs[r.seq];
    if (p.phase == kFixedRate && r.seq % kNotifyEvery == 0) {
      notify_lat.push_back({p.due, ns_to_us(r.t - p.due)});
    }
    if (r.seq % 16 == 0) pub_spans.add("callback.notify", r.seq, p.due, r.t, p.span);
  }
  const double publish_p50 = whole(pub_lat, 0.5);
  if (!cfg.trace) {
    // Closed-loop rate: two windows per segment, so no window spans the
    // fixed-rate segment between two closed ones.
    std::vector<double> rates;
    double events_done = 0.0;
    double busy_s = 0.0;
    for (const auto& [first, last] : closed_segments) {
      std::vector<Sample> done;
      for (std::size_t i = first; i < last; ++i) {
        if (request_head(recs, i)) done.push_back({recs[i].reply, 0.0});
        done.back().v += 1.0;
      }
      if (done.empty()) continue;
      const std::int64_t start = recs[first].sent;
      events_done += static_cast<double>(last - first);
      busy_s += static_cast<double>(done.back().t - start) / 1e9;
      for (const double r : window_rates(std::move(done), start, 2)) rates.push_back(r);
    }
    report.metric("setup_s", median(setups), "s");
    report.figure("events_per_s", median(rates), busy_s > 0.0 ? events_done / busy_s : 0.0,
                  "1/s");
    report.metric("publish_p50_us", publish_p50, "us");
    report.figure("publish_p99_us", windowed_at(pub_lat, 0.99, edges), whole(pub_lat, 0.99),
                  "us");
    report.info_figure("notify_p50_us", windowed_at(notify_lat, 0.5, edges),
                       whole(notify_lat, 0.5), "us");
    report.info_figure("notify_p99_us", windowed_at(notify_lat, 0.99, edges),
                       whole(notify_lat, 0.99), "us");
    report.note("subscribe_p50_us", whole(subscribe_us, 0.5), "us");
    report.info_figure("subscribe_p99_us", windowed_at(subscribe_us, 0.99, edges),
                       whole(subscribe_us, 0.99), "us");
    report.metric("notifications_per_match", base_notified / true_matches, "ratio");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    return report;
  }

  // --- Traced run: replicas of the live (pruned) table --------------------------
  LayerInput in;
  in.schema = &schema;
  for (const auto& t : live_trees) in.live.push_back(t.get());
  in.originals = base_trees;
  in.events.assign(events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::size_t>(events.size(), 512)));
  in.training = training;
  in.store_cap = spec.base_subs;
  in.batch = spec.batch;
  SpanLog layer_spans(true);
  const LayerNumbers layers = measure_layers(cfg, in, report, layer_spans);
  const NetNumbers net =
      wire_replica(cfg, "auction", in.live, in.events, 0.1 * S, report);
  report.metric("net.ping_rtt_us", net.ping_rtt_us, "us");
  report.metric("net.publish_self_us", net.publish_rtt_p50_us - layers.api_publish_p50_us,
                "us");
  report.metric("net.notify_lag_us", net.notify_lag_us, "us");
  report.metric("net.bytes_sent_per_event", net.bytes_per_event, "bytes");
  report.metric("net.frames_sent_per_event", net.frames_per_event, "count");
  report.metric("net.write_queue_high_water_bytes", net.write_queue_high_water, "bytes");
  report.metric("net.slow_consumer_disconnects", net.slow_consumer_disconnects, "count");
  report.metric("net.make_notify_frame_ns", make_notify_frame_ns(in.events), "ns");
  report.metric("api.publish_wait_share",
                overlap_share(pub_spans.spans(), "api.publish", churn_spans.spans()),
                "share");
  report.metric("bench.generator_lag_p99_us", lag_p99, "us");
  report.metric("bench.trace_overhead_pct", trace_overhead, "%");
  report.note("publish_p50_us", publish_p50, "us");
  report.note("replica_publish_batch_us", layers.api_publish_batch_us, "us");
  report.metric("bench.residual_us", publish_p50 - layers.api_publish_batch_us, "us");
  write_spans(cfg.work_dir + "/spans.jsonl",
              {{"publisher", &pub_spans}, {"churn", &churn_spans},
               {"layers", &layer_spans}});
  return report;
}

}  // namespace perfbench
