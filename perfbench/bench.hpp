#pragma once

// Shared pieces of the end-to-end benchmark: the run configuration, the
// report every workload fills in, latency statistics, the bench-side span
// log, and the open/closed-loop publish driver used by every workload.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "event/event.hpp"
#include "subscription/node.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: tiny tables and short phases.
  bool tiny = false;
  /// Self-test of the oracle: one sampled expected set is corrupted, so a
  /// correct program must be reported as incorrect.
  bool corrupt_oracle = false;
  std::string dbspd;     ///< path of the daemon binary
  std::string work_dir;  ///< per-run scratch directory (store, span file)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `metrics` are the reported set
/// (end-to-end without --trace, per-layer with it); `info` lines are
/// printed for the reader but are not part of the result object.
struct Report {
  bool correct = true;
  bool valid = true;  ///< false when the load generator fell behind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  std::vector<std::string> errors;
  std::size_t resolved_shards = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  /// A reported figure (window median) and, as info NAME_whole, the same
  /// statistic over the whole phase.
  void figure(const std::string& name, double value, double whole_phase,
              const std::string& unit) {
    metric(name, value, unit);
    note(name + "_whole", whole_phase, unit);
  }
  /// The same figure printed as info only (not a gated metric).
  void info_figure(const std::string& name, double value, double whole_phase,
                   const std::string& unit) {
    note(name, value, unit);
    note(name + "_whole", whole_phase, unit);
  }
  /// Records an oracle mismatch; the run is then incorrect.
  void mismatch(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// --- Time --------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t_ns);

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// --- Statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty set.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// A timed observation: when it happened (ns) and its value.
struct Sample {
  std::int64_t t = 0;
  double v = 0.0;
};

/// Run figures are medians across time windows: the samples are sorted by
/// time and cut into `windows` windows of equal count, percentile `q` is
/// taken inside each window, and the figure is the median of the window
/// values. A stall that recurs in most windows (a periodic checkpoint, a
/// slow dispatch path) moves the figure; a burst of host noise that covers
/// a minority of the windows does not. The whole-phase percentile is
/// printed beside each figure as `info NAME_whole`.
double windowed(std::vector<Sample> samples, double q, std::size_t windows);

/// The same over explicit window edges: window i holds the samples with
/// edges[i] <= t < edges[i+1]; windows without samples are skipped.
double windowed_at(const std::vector<Sample>& samples, double q,
                   const std::vector<std::int64_t>& edges);

/// Percentile `q` over all of `samples`.
double whole(const std::vector<Sample>& samples, double q);

/// Completion rates: `done` holds (completion time, work units) pairs and
/// `start` is when the phase began. The completions are cut into `windows`
/// windows of equal count; returns each window's rate (units per second).
std::vector<double> window_rates(std::vector<Sample> done, std::int64_t start,
                                 std::size_t windows);
/// The median of window_rates().
inline double windowed_rate(std::vector<Sample> done, std::int64_t start,
                            std::size_t windows) {
  return median(window_rates(std::move(done), start, windows));
}

/// Units per second over the whole phase.
double whole_rate(const std::vector<Sample>& done, std::int64_t start);

/// Resident set figures of a process in MiB (`field` is "VmHWM" for the
/// peak, "VmRSS" for the current size); 0 when unreadable.
double rss_mb(int pid, const char* field);

/// Sizes `v` for `n` elements and touches their pages, so that recording
/// into it later neither allocates nor grows the resident set.
template <class T>
void prefault(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();
}

// --- Bench-side spans --------------------------------------------------------

/// One span recorded by the benchmark around a call into the program.
/// `trace` is the publish seq (or an operation counter for non-publish
/// calls); `parent` indexes the parent span in the same log, -1 for none.
struct Span {
  const char* name = "";
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Per-thread span log, kept in memory and written when the run ends.
/// Disabled logs record nothing; a full log drops further spans.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::size_t cap = 1u << 18)
      : enabled_(enabled), cap_(cap) {}
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::int32_t add(const char* name, std::uint64_t trace, std::int64_t start,
                   std::int64_t end, std::int32_t parent = -1) {
    if (!enabled_) return -1;
    if (spans_.size() >= cap_) return -1;
    spans_.push_back({name, trace, start, end, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::size_t cap_;
  std::vector<Span> spans_;
};

/// Writes every log as JSON lines ({"log","name","trace","start_ns",
/// "end_ns","parent"}) to `path`.
void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanLog*>>& logs);

/// Share of the total duration of `spans` named `name` that overlaps any
/// span of `others` (both sorted or not).
double overlap_share(const std::vector<Span>& spans, const char* name,
                     const std::vector<Span>& others);

// --- Publish driver ----------------------------------------------------------

/// One published event as seen by the load generator. For a batch, every
/// event of the batch shares due/sent/reply/count/span and carries the
/// batch number.
struct PubRec {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t reply = 0;
  std::uint64_t count = 0;  ///< notifications the reply reported
  std::uint32_t event = 0;  ///< index of the published event in the pool
  std::uint32_t batch = 0;  ///< batch number + 1; 0 for single publishes
  std::int32_t span = -1;   ///< its span in the publisher's log, -1 for none
  std::uint8_t phase = 0;
};

enum Phase : std::uint8_t {
  kWarmup = 0,
  kFixedRate = 1,
  kClosed = 2,
};

/// Drives publishes in open or closed loop. A request publishes one event,
/// or a batch of consecutive pool events; every event gets its own record,
/// and the seq of the i-th published event is i: the program numbers
/// events in arrival order and the generator is its only publisher.
class PublishDriver {
 public:
  /// Publishes `count` events of the pool from index `first` (one
  /// request); returns the notification count.
  using PublishFn =
      std::function<dbsp::Result<std::uint64_t>(std::size_t first, std::size_t count)>;

  PublishDriver(PublishFn publish, std::size_t pool, SpanLog& spans,
                const char* span_name)
      : publish_(std::move(publish)), pool_(pool), spans_(spans), span_name_(span_name) {}

  /// Sends `rate` requests/s of `batch` events for `seconds`, each request
  /// timed from its due time. Every open-loop phase replays the pool from
  /// its start. Returns the [first, last) seq range.
  std::pair<std::size_t, std::size_t> open_loop(double rate, double seconds,
                                                Phase phase, std::size_t batch = 1);
  /// Sends requests of `batch` events back to back for `seconds` (at least
  /// one), or until the record limit; returns events per second.
  double closed_loop(double seconds, Phase phase, std::size_t batch = 1);
  /// Prefaults the publish and lag records for `n` events and stops
  /// closed loops there, so the generator's memory does not grow with the
  /// program's speed.
  void limit_records(std::size_t n) {
    prefault(recs_, n);
    prefault(lag_us_, n);
    limit_ = n;
  }

  std::vector<PubRec>& recs() { return recs_; }
  /// How late the generator sent requests it was free to send (µs).
  std::vector<double>& lag_us() { return lag_us_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
 private:
  void one(std::int64_t due, std::size_t first, std::size_t count, Phase phase, bool open);

  PublishFn publish_;
  std::size_t pool_;
  std::size_t next_closed_ = 0;  ///< pool index of the next closed-loop event
  std::uint32_t batches_ = 0;
  SpanLog& spans_;
  const char* span_name_;
  std::vector<PubRec> recs_;
  std::vector<double> lag_us_;
  std::size_t limit_ = SIZE_MAX;
  std::int64_t last_reply_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Completions (reply time, events) of the requests of `phase`, and the
/// time the phase began.
std::pair<std::vector<Sample>, std::int64_t> completions(const std::vector<PubRec>& recs,
                                                         Phase phase);

/// Whether recs[i] is the first event of its request.
inline bool request_head(const std::vector<PubRec>& recs, std::size_t i) {
  return recs[i].batch == 0 || i == 0 || recs[i - 1].batch != recs[i].batch;
}

/// bench.trace_overhead_pct: closed-loop rate with `spans` off over the
/// rate with them on, minus one, in percent; four alternated pairs of
/// `seconds`-long segments.
double trace_overhead_pct(PublishDriver& driver, SpanLog& spans, double seconds);

// --- Oracle helpers ----------------------------------------------------------

/// Ids (indexes into `trees`) whose tree matches `event`.
std::vector<std::uint32_t> expected_matches(
    const std::vector<const dbsp::Node*>& trees, const dbsp::Event& event);

/// Evenly spaced sample of at most `n` seqs from [0, total).
std::vector<std::size_t> sample_seqs(std::size_t total, std::size_t n);

}  // namespace perfbench
