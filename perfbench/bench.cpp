#include "bench.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <string_view>

namespace perfbench {

namespace {

void clock_sleep_until(std::int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
  // steady_clock is CLOCK_MONOTONIC on Linux.
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

void sleep_until_ns(std::int64_t t_ns) {
  if (now_ns() < t_ns) clock_sleep_until(t_ns);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double windowed(std::vector<Sample> samples, double q, std::size_t windows) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  const std::size_t k = std::clamp<std::size_t>(windows, 1, samples.size());
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const std::size_t lo = samples.size() * w / k;
    const std::size_t hi = samples.size() * (w + 1) / k;
    std::vector<double> v;
    v.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) v.push_back(samples[i].v);
    per_window.push_back(percentile(std::move(v), q));
  }
  return median(std::move(per_window));
}

double windowed_at(const std::vector<Sample>& samples, double q,
                   const std::vector<std::int64_t>& edges) {
  std::vector<std::vector<double>> in(edges.size() < 2 ? 0 : edges.size() - 1);
  for (const Sample& s : samples) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), s.t);
    if (it == edges.begin() || it == edges.end()) continue;
    in[static_cast<std::size_t>(it - edges.begin()) - 1].push_back(s.v);
  }
  std::vector<double> per_window;
  for (auto& v : in) {
    if (!v.empty()) per_window.push_back(percentile(std::move(v), q));
  }
  return median(std::move(per_window));
}

double whole(const std::vector<Sample>& samples, double q) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(s.v);
  return percentile(std::move(v), q);
}

std::vector<double> window_rates(std::vector<Sample> done, std::int64_t start,
                                 std::size_t windows) {
  if (done.empty()) return {};
  std::sort(done.begin(), done.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  const std::size_t k = std::clamp<std::size_t>(windows, 1, done.size());
  std::vector<double> rates;
  std::int64_t from = start;
  for (std::size_t w = 0; w < k; ++w) {
    const std::size_t lo = done.size() * w / k;
    const std::size_t hi = done.size() * (w + 1) / k;
    double units = 0.0;
    for (std::size_t i = lo; i < hi; ++i) units += done[i].v;
    const std::int64_t to = done[hi - 1].t;
    if (to > from) rates.push_back(units / (static_cast<double>(to - from) / 1e9));
    from = to;
  }
  return rates;
}

double whole_rate(const std::vector<Sample>& done, std::int64_t start) {
  double units = 0.0;
  std::int64_t end = start;
  for (const Sample& s : done) {
    units += s.v;
    end = std::max(end, s.t);
  }
  return end > start ? units / (static_cast<double>(end - start) / 1e9) : 0.0;
}

double rss_mb(int pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanLog*>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const auto& [log_name, log] : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"log\":\"%s\",\"name\":\"%s\",\"trace\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   log_name.c_str(), s.name,
                   static_cast<unsigned long long>(s.trace),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  std::fclose(f);
}

double overlap_share(const std::vector<Span>& spans, const char* name,
                     const std::vector<Span>& others) {
  std::vector<std::pair<std::int64_t, std::int64_t>> busy;
  busy.reserve(others.size());
  for (const Span& o : others) busy.emplace_back(o.start_ns, o.end_ns);
  std::sort(busy.begin(), busy.end());
  // Merge into disjoint intervals so each nanosecond counts once.
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& iv : busy) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  double total = 0.0;
  double covered = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns);
    auto it = std::upper_bound(
        merged.begin(), merged.end(), std::make_pair(s.start_ns, INT64_MAX));
    if (it != merged.begin()) --it;
    for (; it != merged.end() && it->first < s.end_ns; ++it) {
      const std::int64_t lo = std::max(it->first, s.start_ns);
      const std::int64_t hi = std::min(it->second, s.end_ns);
      if (hi > lo) covered += static_cast<double>(hi - lo);
    }
  }
  return total > 0.0 ? covered / total : 0.0;
}

void PublishDriver::one(std::int64_t due, std::size_t first, std::size_t count,
                        Phase phase, bool open) {
  PubRec rec;
  rec.phase = phase;
  rec.due = due;
  if (count > 1) rec.batch = ++batches_;
  if (open) {
    const std::int64_t free_at = std::max(due, last_reply_);
    if (now_ns() < due) sleep_until_ns(due);
    rec.sent = now_ns();
    lag_us_.push_back(ns_to_us(rec.sent - free_at));
  } else {
    rec.sent = rec.due = now_ns();
  }
  const std::size_t seq = recs_.size();
  const auto result = publish_(first, count);
  rec.reply = last_reply_ = now_ns();
  rec.span = spans_.add(span_name_, seq, rec.sent, rec.reply);
  rec.count = result.ok() ? result.value() : 0;
  ++attempted_;
  if (!result.ok()) ++failed_;
  for (std::size_t i = 0; i < count; ++i) {
    rec.event = static_cast<std::uint32_t>(first + i);
    recs_.push_back(rec);
  }
}

std::pair<std::size_t, std::size_t> PublishDriver::open_loop(double rate, double seconds,
                                                             Phase phase, std::size_t batch) {
  const std::size_t first = recs_.size();
  const double period = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 200'000;
  const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t e = (k * batch) % pool_;
    one(t0 + static_cast<std::int64_t>(period * static_cast<double>(k)), e,
        std::min(batch, pool_ - e), phase, true);
  }
  return {first, recs_.size()};
}

double PublishDriver::closed_loop(double seconds, Phase phase, std::size_t batch) {
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t first = recs_.size();
  do {
    const std::size_t e = next_closed_ % pool_;
    const std::size_t count = std::min(batch, pool_ - e);
    if (recs_.size() + count > limit_) break;
    one(0, e, count, phase, false);
    next_closed_ = e + count;
  } while (now_ns() < end);
  return static_cast<double>(recs_.size() - first) /
         (static_cast<double>(now_ns() - t0) / 1e9);
}

std::pair<std::vector<Sample>, std::int64_t> completions(const std::vector<PubRec>& recs,
                                                         Phase phase) {
  std::vector<Sample> done;
  std::int64_t start = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PubRec& r = recs[i];
    if (r.phase != phase) continue;
    if (start == 0) start = r.sent;
    if (request_head(recs, i)) {
      done.push_back({r.reply, 1.0});
    } else {
      done.back().v += 1.0;
    }
  }
  return {std::move(done), start};
}

double trace_overhead_pct(PublishDriver& driver, SpanLog& spans, double seconds) {
  std::vector<double> on;
  std::vector<double> off;
  for (int i = 0; i < 4; ++i) {
    spans.set_enabled(false);
    off.push_back(driver.closed_loop(seconds, kWarmup));
    spans.set_enabled(true);
    on.push_back(driver.closed_loop(seconds, kWarmup));
  }
  return (median(off) / median(on) - 1.0) * 100.0;
}


std::vector<std::uint32_t> expected_matches(
    const std::vector<const dbsp::Node*>& trees, const dbsp::Event& event) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    if (trees[i] != nullptr && trees[i]->evaluate_event(event)) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<std::size_t> sample_seqs(std::size_t total, std::size_t n) {
  std::vector<std::size_t> out;
  if (total == 0 || n == 0) return out;
  const std::size_t step = std::max<std::size_t>(1, total / n);
  for (std::size_t s = step / 2; s < total && out.size() < n; s += step) out.push_back(s);
  return out;
}

}  // namespace perfbench
