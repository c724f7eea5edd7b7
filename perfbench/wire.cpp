// fanout and match_heavy: the shipped dbspd, started with its defaults and
// no DBSP_* variable in its environment, driven through net::DbspClient
// from this process over one publisher and two subscriber connections.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "scenario/workload_domain.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dbsp::Event;
using dbsp::Node;
using dbsp::net::DbspClient;

// --- Workload shapes ---------------------------------------------------------

struct WireSpec {
  const char* domain;
  std::size_t hot_subs;       ///< flash-crowd subscriptions (hottest symbol)
  std::size_t ordinary_subs;  ///< the domain's ordinary subscription mix
  std::size_t event_pool;     ///< distinct events, published round robin
  std::size_t batch;          ///< events per publish_batch; 0 = single publishes
  std::size_t oracle_samples; ///< events whose full notified set is checked
  int setups;                 ///< set-ups per run (setup_s is their median)
};

WireSpec spec_for(const Config& cfg) {
  if (cfg.workload == "fanout") {
    if (cfg.tiny) return {"stock", 100, 100, 512, 0, 32, 2};
    return {"stock", 1000, 1000, 16384, 0, 256, 30};
  }
  if (cfg.tiny) return {"auction", 0, 2000, 256, 16, 16, 2};
  return {"auction", 0, 100000, 1024, 64, 24, 3};
}

/// Windows of the figures (see windowed()). Latency: 20 on fanout (about
/// 1.4 s and 10k publishes each in a 30 s run) and for the set-up
/// subscribes. Rates, and match_heavy's batch latencies: 10 (30-70
/// batches each in a 40 s run).
constexpr std::size_t kLatencyWindows = 20;
constexpr std::size_t kRateWindows = 10;

// --- The daemon --------------------------------------------------------------

/// One dbspd child process. The destructor kills and reaps it if stop()
/// was not called.
class Daemon {
 public:
  static std::unique_ptr<Daemon> start(const Config& cfg, const std::string& domain,
                                       std::string& error) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      error = "pipe failed";
      return nullptr;
    }
    const std::string log = cfg.work_dir + "/dbspd.log";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    // The daemon runs with its shipped defaults: no DBSP_* knob reaches it.
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "DBSP_", 5) != 0) envp.push_back(*e);
    }
    envp.push_back(nullptr);
    std::string arg0 = cfg.dbspd;
    std::string arg1 = "--domain";
    std::string arg2 = domain;
    char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, cfg.dbspd.c_str(), &fa, nullptr, argv,
                                 envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      error = "cannot start " + cfg.dbspd + ": " + std::strerror(rc);
      return nullptr;
    }
    auto d = std::unique_ptr<Daemon>(new Daemon(pid, out[0]));
    // Wait for the readiness line: "dbspd listening on HOST:PORT (...)".
    std::string line;
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (line.find('\n') == std::string::npos && now_ns() < deadline) {
      pollfd p{out[0], POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out[0], buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<std::size_t>(n));
    }
    const auto at = line.find("listening on ");
    const auto colon = at == std::string::npos ? at : line.find(':', at);
    if (colon == std::string::npos) {
      error = "dbspd did not report a listening port";
      return nullptr;
    }
    d->port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
    return d;
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double peak_rss_mb() const { return rss_mb(pid_, "VmHWM"); }

  /// Graceful stop (SIGTERM drain); true when the daemon exited with 0.
  bool stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = now_ns() + 20'000'000'000LL;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  Daemon(pid_t pid, int fd) : pid_(pid), stdout_fd_(fd) {}
  pid_t pid_;
  int stdout_fd_;
  std::uint16_t port_ = 0;
};

// --- Subscriber connections --------------------------------------------------

struct NotifyRec {
  std::uint32_t seq = 0;
  std::uint32_t sub = 0;  ///< index into the original trees; UINT32_MAX unknown
  std::int64_t t = 0;     ///< receipt (decode) time
};

/// One subscriber connection plus the thread that drains it.
struct Subscriber {
  std::optional<DbspClient> client;
  std::unordered_map<std::uint64_t, std::uint32_t> ids;  ///< server id -> index
  std::mutex mu;
  std::vector<NotifyRec> recs;  // guarded by mu
  std::atomic<std::uint64_t> received{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> broken{false};
  std::thread thread;

  void run() {
    while (!stop.load(std::memory_order_acquire)) {
      auto next = client->next_notification(20);
      if (!next.ok()) {
        broken.store(true);
        return;
      }
      if (!next.value().has_value()) continue;
      const std::int64_t t = now_ns();
      const auto& n = *next.value();
      const auto it = ids.find(n.subscription);
      const std::uint32_t sub = it == ids.end() ? UINT32_MAX : it->second;
      {
        std::lock_guard<std::mutex> lock(mu);
        recs.push_back({static_cast<std::uint32_t>(n.seq), sub, t});
      }
      received.fetch_add(1, std::memory_order_release);
    }
  }
};

/// A daemon holding the table, one publisher and `subscribers` subscriber
/// connections.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::optional<DbspClient> pub;
  std::vector<std::unique_ptr<Subscriber>> subs;
  double setup_s = 0.0;

  [[nodiscard]] std::uint64_t received() const {
    std::uint64_t n = 0;
    for (const auto& s : subs) n += s->received.load(std::memory_order_acquire);
    return n;
  }
  /// Waits until `target` notifications arrived; false on timeout.
  bool drain(std::uint64_t target, double timeout_s) const {
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (received() < target) {
      if (now_ns() > deadline) return false;
      ::usleep(500);
    }
    return true;
  }
  void start_threads() {
    for (auto& s : subs) {
      // Address space only, so that growing the record vector never stalls
      // a subscriber thread mid-run (fanout receives up to ~5M a connection).
      s->recs.reserve(1u << 23);
      s->thread = std::thread([p = s.get()] { p->run(); });
    }
  }
  void stop_threads() {
    for (auto& s : subs) {
      s->stop.store(true, std::memory_order_release);
      if (s->thread.joinable()) s->thread.join();
    }
  }
  ~Session() { stop_threads(); }
};

std::unique_ptr<Session> open_session(const Config& cfg, const std::string& domain,
                                      const std::vector<const Node*>& trees,
                                      std::size_t n_subscribers, Report& report,
                                      std::vector<Sample>& subscribe_us) {
  auto owned = std::make_unique<Session>();
  Session& s = *owned;
  const std::int64_t t0 = now_ns();
  std::string error;
  s.daemon = Daemon::start(cfg, domain, error);
  if (!s.daemon) {
    report.mismatch(error);
    ++report.attempted;
    ++report.failed;
    return owned;
  }
  const auto connect = [&]() -> std::optional<DbspClient> {
    ++report.attempted;
    auto c = DbspClient::connect("127.0.0.1", s.daemon->port());
    if (!c.ok()) {
      ++report.failed;
      return std::nullopt;
    }
    return std::move(c).value();
  };
  s.pub = connect();
  for (std::size_t j = 0; j < n_subscribers; ++j) {
    s.subs.push_back(std::make_unique<Subscriber>());
    s.subs.back()->client = connect();
  }
  if (!s.pub) return owned;
  // Each subscriber connection registers every n-th tree, in parallel.
  std::vector<std::vector<Sample>> lat(n_subscribers);
  std::vector<std::uint64_t> failed(n_subscribers, 0);
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < n_subscribers; ++j) {
    threads.emplace_back([&, j] {
      Subscriber& sub = *s.subs[j];
      if (!sub.client) return;
      for (std::size_t i = j; i < trees.size(); i += n_subscribers) {
        const std::int64_t a = now_ns();
        const auto id = sub.client->subscribe(*trees[i]);
        lat[j].push_back({a, ns_to_us(now_ns() - a)});
        if (!id.ok()) {
          ++failed[j];
          continue;
        }
        sub.ids.emplace(id.value(), static_cast<std::uint32_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  s.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t j = 0; j < n_subscribers; ++j) {
    report.attempted += lat[j].size();
    report.failed += failed[j];
    subscribe_us.insert(subscribe_us.end(), lat[j].begin(), lat[j].end());
  }
  return owned;
}

/// Notifications the program promised: single-publish replies plus each
/// batch total once.
std::uint64_t promised(const std::vector<PubRec>& recs) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (request_head(recs, i)) n += recs[i].count;
  }
  return n;
}

/// Shard count the daemon resolved, from its per-shard match series.
std::size_t daemon_shards(DbspClient& client) {
  const auto m = client.metrics();
  if (!m.ok()) return 0;
  std::set<std::string> shards;
  for (const auto& series : m.value().metrics) {
    if (series.name != "dbsp_shard_match_us") continue;
    for (const auto& [k, v] : series.labels) {
      if (k == "shard") shards.insert(v);
    }
  }
  return shards.size();
}

double ping_rtt_us(DbspClient& client, std::size_t n, Report& report) {
  std::vector<Sample> rtt;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = now_ns();
    const auto r = client.ping(i);
    rtt.push_back({a, ns_to_us(now_ns() - a)});
    ++report.attempted;
    if (!r.ok() || r.value() != i) ++report.failed;
  }
  return windowed(rtt, 0.5, kLatencyWindows);
}

/// p50 (window median) of the single-publish round trips.
double single_rtt_us(const std::vector<PubRec>& recs) {
  std::vector<Sample> rtt;
  for (const PubRec& r : recs) {
    if (r.batch == 0) rtt.push_back({r.sent, ns_to_us(r.reply - r.sent)});
  }
  return windowed(rtt, 0.5, kLatencyWindows);
}

}  // namespace

// --- The wire workloads ------------------------------------------------------

Report run_wire(const Config& cfg) {
  Report report;
  const WireSpec spec = spec_for(cfg);
  const bool fanout = spec.batch == 0;

  // Inputs, all from the seed.
  std::unique_ptr<dbsp::WorkloadDomain> domain;
  if (fanout) {
    dbsp::StockConfig sc;
    sc.seed = cfg.seed;
    domain = dbsp::make_stock_workload(sc);
  } else {
    dbsp::WorkloadConfig wc;
    wc.seed = cfg.seed;
    domain = dbsp::make_auction_workload(wc);
  }
  std::vector<std::unique_ptr<Node>> originals;
  {
    auto hot = domain->flash_subscriptions(5);
    auto ordinary = domain->subscriptions(1);
    for (std::size_t i = 0; i < spec.hot_subs; ++i) originals.push_back(hot->next());
    for (std::size_t i = 0; i < spec.ordinary_subs; ++i) {
      originals.push_back(ordinary->next());
    }
  }
  std::vector<const Node*> trees;
  for (const auto& t : originals) trees.push_back(t.get());
  std::vector<Event> events = domain->events(2)->generate(spec.event_pool);
  if (fanout) {
    // The ticker tape clusters hot-symbol events into bursts of up to 40,
    // each fanning out to hundreds of the hot subscribers. Dispersing them
    // keeps the event mix but stops a run's tail latency from depending on
    // where the pool's few bursts happen to fall.
    std::mt19937_64 rng(cfg.seed);
    std::shuffle(events.begin(), events.end(), rng);
  }

  // Set-up, repeated: the first ones here (the last of them is measured),
  // the rest after the measured phase, so that setup_s samples the host
  // across the run.
  std::vector<double> setups;
  std::vector<Sample> subscribe_us;
  std::unique_ptr<Session> session;
  double peak_rss = 0.0;
  const auto set_up = [&]() -> bool {
    if (session) {
      peak_rss = std::max(peak_rss, session->daemon->peak_rss_mb());
      session->daemon->stop();
      session.reset();
    }
    session = open_session(cfg, spec.domain, trees, 2, report, subscribe_us);
    setups.push_back(session->setup_s);
    if (session->pub) return true;
    report.mismatch("set-up failed");
    return false;
  };
  const int setups_before = std::max(1, spec.setups / 2);
  for (int k = 0; k < setups_before; ++k) {
    if (!set_up()) return report;
  }
  Session& s = *session;
  report.resolved_shards = daemon_shards(*s.pub);
  ++report.attempted;
  const auto stats0 = s.pub->stats();
  ++report.attempted;
  s.start_threads();

  SpanLog pub_spans(cfg.trace);
  PublishDriver driver(
      [&](std::size_t first, std::size_t count) -> dbsp::Result<std::uint64_t> {
        if (count == 1) return s.pub->publish(events[first]);
        return s.pub->publish_batch(std::span<const Event>(events.data() + first, count));
      },
      events.size(), pub_spans, "client.publish");
  auto& recs = driver.recs();

  const double drain_timeout = cfg.tiny ? 5.0 : 20.0;
  // Both wire workloads are closed loop. An open loop at a fixed rate
  // below capacity lets the server's and the subscribers' threads idle
  // between publishes, and its latencies then mostly time the host waking
  // them: on the shared VM these figures were taken on, fanout's open-loop
  // p50 at 500-1500 events/s read 180-260 µs against a 65-70 µs closed-loop
  // round trip, and swung with the neighbours' load.
  const double S = cfg.seconds;
  const std::int64_t measure_t0 = now_ns();
  const std::size_t batch = std::max<std::size_t>(1, spec.batch);
  // match_heavy: one batch warms caches and the pool.
  driver.closed_loop(fanout ? 0.05 * S : 0.0, kWarmup, batch);
  driver.closed_loop(0.95 * S, kClosed, batch);
  const double measure_s = static_cast<double>(now_ns() - measure_t0) / 1e9;
  // Traced: single publishes on and off, which also time the single round
  // trip on match_heavy.
  const double trace_overhead =
      cfg.trace ? trace_overhead_pct(driver, pub_spans, 0.02 * S) : 0.0;
  const double single_rtt_p50 = single_rtt_us(recs);

  // Every promised notification must arrive.
  const std::uint64_t expected = promised(recs);
  if (!s.drain(expected, drain_timeout)) {
    report.mismatch("notifications missing: received " + std::to_string(s.received()) +
                    " of " + std::to_string(expected));
  }
  s.stop_threads();
  for (const auto& sub : s.subs) {
    if (sub->broken.load()) report.mismatch("a subscriber connection failed");
  }
  const auto stats1 = s.pub->stats();
  ++report.attempted;
  if (!stats0.ok() || !stats1.ok()) {
    ++report.failed;
  }
  NetNumbers net;
  if (stats0.ok() && stats1.ok()) {
    const auto& a = stats0.value();
    const auto& b = stats1.value();
    const double published = static_cast<double>(b.events_published - a.events_published);
    net.bytes_per_event = static_cast<double>(b.bytes_sent - a.bytes_sent) / published;
    net.frames_per_event = static_cast<double>(b.frames_sent - a.frames_sent) / published;
    net.write_queue_high_water = static_cast<double>(b.write_queue_high_water);
    net.slow_consumer_disconnects = static_cast<double>(b.slow_consumer_disconnects);
    report.failed += b.slow_consumer_disconnects;
    if (b.events_published - a.events_published != recs.size()) {
      report.mismatch("daemon counted " + std::to_string(b.events_published - a.events_published) +
                      " publishes, generator sent " + std::to_string(recs.size()));
    }
  }
  if (cfg.trace) net.ping_rtt_us = ping_rtt_us(*s.pub, 2000, report);
  peak_rss = std::max(peak_rss, s.daemon->peak_rss_mb());
  s.pub->close();
  for (auto& sub : s.subs) sub->client->close();
  if (!s.daemon->stop()) report.mismatch("dbspd did not exit cleanly");
  report.attempted += driver.attempted();
  report.failed += driver.failed();
  // `s` is gone after the first of these.
  std::vector<NotifyRec> all;
  for (auto& sub : s.subs) all.insert(all.end(), sub->recs.begin(), sub->recs.end());
  for (int k = setups_before; k < spec.setups; ++k) {
    if (!set_up()) break;
  }
  if (session->daemon) {
    peak_rss = std::max(peak_rss, session->daemon->peak_rss_mb());
    session->daemon->stop();
  }
  session.reset();

  // --- Oracle ---------------------------------------------------------------
  std::vector<std::uint64_t> per_seq(recs.size(), 0);
  std::uint64_t true_notified = 0;  // notifications whose subscriber's tree matches
  for (const NotifyRec& r : all) {
    if (r.sub == UINT32_MAX || r.seq >= recs.size()) {
      report.mismatch("notification for an unknown subscription or seq");
      continue;
    }
    ++per_seq[r.seq];
    if (trees[r.sub]->evaluate_event(events[recs[r.seq].event])) {
      ++true_notified;
    } else {
      report.mismatch("seq " + std::to_string(r.seq) + ": subscription " +
                      std::to_string(r.sub) + " notified but its tree does not match");
    }
  }
  for (std::size_t i = 0; i < recs.size();) {
    std::size_t j = i + 1;
    while (recs[i].batch != 0 && j < recs.size() && recs[j].batch == recs[i].batch) ++j;
    std::uint64_t got = 0;
    for (std::size_t k = i; k < j; ++k) got += per_seq[k];
    if (got != recs[i].count) {
      report.mismatch("seq " + std::to_string(i) + ": reply counted " +
                      std::to_string(recs[i].count) + ", subscribers received " +
                      std::to_string(got));
    }
    i = j;
  }
  {
    const auto sample = sample_seqs(recs.size(), spec.oracle_samples);
    std::map<std::size_t, std::vector<std::uint32_t>> notified;
    for (const std::size_t q : sample) notified[q];
    for (const NotifyRec& r : all) {
      const auto it = notified.find(r.seq);
      if (it != notified.end()) it->second.push_back(r.sub);
    }
    bool first = true;
    for (auto& [q, got] : notified) {
      std::sort(got.begin(), got.end());
      auto want = expected_matches(trees, events[recs[q].event]);
      if (cfg.corrupt_oracle && first) {
        if (want.empty()) want.push_back(0); else want.pop_back();
      }
      first = false;
      if (got != want) {
        report.mismatch("seq " + std::to_string(q) + ": notified set (" +
                        std::to_string(got.size()) + ") differs from the original trees' (" +
                        std::to_string(want.size()) + ")");
      }
    }
  }

  // --- Metrics --------------------------------------------------------------
  // Every request of the closed loop, timed from its send (on match_heavy
  // one batch is one request); notifications are timed from their
  // request's send.
  std::vector<Sample> pub_lat;
  std::vector<Sample> notify_lat;
  std::vector<double> notify_lag;
  const auto [done, closed_t0] = completions(recs, kClosed);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PubRec& r = recs[i];
    if (r.phase == kClosed && request_head(recs, i)) {
      pub_lat.push_back({r.sent, ns_to_us(r.reply - r.sent)});
    }
  }
  for (const NotifyRec& r : all) {
    if (r.seq >= recs.size()) continue;
    const PubRec& p = recs[r.seq];
    if (p.phase == kClosed) {
      notify_lat.push_back({p.due, ns_to_us(r.t - p.due)});
      notify_lag.push_back(ns_to_us(r.t - p.reply));
    }
    if (r.seq % 16 == 0) pub_spans.add("client.notify", r.seq, p.due, r.t, p.span);
  }
  report.note("events_published", static_cast<double>(recs.size()), "count");
  report.note("notifications_per_event",
              static_cast<double>(all.size()) / static_cast<double>(recs.size()), "count");
  report.note("subscriptions", static_cast<double>(trees.size()), "count");
  report.note("measure_s", measure_s, "s");
  report.note("publish_samples", static_cast<double>(pub_lat.size()), "count");
  report.note("false_positive_share", 0.0, "share");
  const double lag_p99 = percentile(driver.lag_us(), 0.99);
  report.note("generator_lag_p50_us", percentile(driver.lag_us(), 0.5), "us");
  report.note("generator_lag_p99_us", lag_p99, "us");
  if (lag_p99 > 5000.0) report.valid = false;

  if (!cfg.trace) {
    report.metric("setup_s", median(setups), "s");
    report.figure("events_per_s", windowed_rate(done, closed_t0, kRateWindows),
                  whole_rate(done, closed_t0), "1/s");
    const std::size_t w = fanout ? kLatencyWindows : kRateWindows;
    report.metric("publish_p50_us", whole(pub_lat, 0.5), "us");
    report.figure("publish_p99_us", windowed(pub_lat, 0.99, w), whole(pub_lat, 0.99), "us");
    report.info_figure("notify_p50_us", windowed(notify_lat, 0.5, w), whole(notify_lat, 0.5),
                       "us");
    report.info_figure("notify_p99_us", windowed(notify_lat, 0.99, w), whole(notify_lat, 0.99),
                       "us");
    report.note("subscribe_p50_us", whole(subscribe_us, 0.5), "us");
    report.info_figure("subscribe_p99_us", windowed(subscribe_us, 0.99, kLatencyWindows),
                       whole(subscribe_us, 0.99), "us");
    report.metric("notifications_per_match",
                  static_cast<double>(all.size()) /
                      static_cast<double>(std::max<std::uint64_t>(1, true_notified)),
                  "ratio");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    return report;
  }

  // --- Traced run: the same table and events through the layer replicas.
  LayerInput in;
  in.schema = &domain->schema();
  in.live = trees;
  in.originals = trees;
  in.events.assign(events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::size_t>(events.size(),
                                                              fanout ? 2048 : 128)));
  in.training = domain->events(3)->generate(cfg.tiny ? 200 : 1000);
  in.store_cap = cfg.tiny ? 500 : 10000;
  SpanLog layer_spans(true);
  const LayerNumbers layers = measure_layers(cfg, in, report, layer_spans);
  report.metric("net.ping_rtt_us", net.ping_rtt_us, "us");
  report.metric("net.publish_self_us", single_rtt_p50 - layers.api_publish_p50_us, "us");
  report.metric("net.notify_lag_us", median(notify_lag), "us");
  report.metric("net.bytes_sent_per_event", net.bytes_per_event, "bytes");
  report.metric("net.frames_sent_per_event", net.frames_per_event, "count");
  report.metric("net.write_queue_high_water_bytes", net.write_queue_high_water, "bytes");
  report.metric("net.slow_consumer_disconnects", net.slow_consumer_disconnects, "count");
  report.metric("net.make_notify_frame_ns", make_notify_frame_ns(in.events), "ns");
  report.metric("api.publish_wait_share", 0.0, "share");
  report.metric("bench.generator_lag_p99_us", lag_p99, "us");
  report.metric("bench.trace_overhead_pct", trace_overhead, "%");
  report.metric("bench.residual_us",
                single_rtt_p50 - net.ping_rtt_us - layers.api_publish_p50_us, "us");
  write_spans(cfg.work_dir + "/spans.jsonl",
              {{"publisher", &pub_spans}, {"layers", &layer_spans}});
  return report;
}

NetNumbers wire_replica(const Config& cfg, const std::string& domain,
                        const std::vector<const Node*>& trees,
                        const std::vector<Event>& events, double seconds,
                        Report& report) {
  NetNumbers net;
  std::vector<Sample> subscribe_us;
  const auto owned = open_session(cfg, domain, trees, 1, report, subscribe_us);
  Session& s = *owned;
  if (!s.pub) {
    report.mismatch("wire replica set-up failed");
    return net;
  }
  const auto stats0 = s.pub->stats();
  s.start_threads();
  SpanLog none(false);
  PublishDriver driver(
      [&](std::size_t e, std::size_t) { return s.pub->publish(events[e]); },
      events.size(), none, "client.publish");
  driver.closed_loop(seconds, kClosed);
  auto& recs = driver.recs();
  if (!s.drain(promised(recs), 20.0)) {
    report.mismatch("wire replica: notifications missing");
  }
  s.stop_threads();
  const auto stats1 = s.pub->stats();
  net.publish_rtt_p50_us = single_rtt_us(recs);
  std::vector<double> lag;
  for (const NotifyRec& r : s.subs[0]->recs) {
    if (r.seq < recs.size()) lag.push_back(ns_to_us(r.t - recs[r.seq].reply));
  }
  net.notify_lag_us = median(lag);
  report.attempted += driver.attempted() + 2;
  report.failed += driver.failed();
  if (stats0.ok() && stats1.ok()) {
    const auto& a = stats0.value();
    const auto& b = stats1.value();
    const double published = static_cast<double>(b.events_published - a.events_published);
    net.bytes_per_event = static_cast<double>(b.bytes_sent - a.bytes_sent) / published;
    net.frames_per_event = static_cast<double>(b.frames_sent - a.frames_sent) / published;
    net.write_queue_high_water = static_cast<double>(b.write_queue_high_water);
    net.slow_consumer_disconnects = static_cast<double>(b.slow_consumer_disconnects);
    report.failed += b.slow_consumer_disconnects;
  } else {
    ++report.failed;
  }
  net.ping_rtt_us = ping_rtt_us(*s.pub, 2000, report);
  s.pub->close();
  s.subs[0]->client->close();
  s.daemon->stop();
  return net;
}

double make_notify_frame_ns(const std::vector<Event>& events) {
  std::vector<double> per;
  std::size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t a = now_ns();
    for (std::size_t i = 0; i < events.size(); ++i) {
      bytes += dbsp::net::make_notify_frame(i + 1, i, events[i]).size();
    }
    per.push_back(static_cast<double>(now_ns() - a) / static_cast<double>(events.size()));
  }
  if (bytes == 0) return 0.0;
  return median(per);
}

}  // namespace perfbench
