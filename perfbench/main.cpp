// perfbench: one workload run of the end-to-end benchmark.
//
//   perfbench --workload fanout|match_heavy|churn_pruned --seed N
//             --seconds S --trace 0|1 --dbspd PATH --work-dir DIR
//             [--tiny] [--corrupt-oracle]
//
// Prints one "metric NAME VALUE UNIT" line per reported metric, "info"
// lines, a run record, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when the
// oracle passed and the load generator kept its schedule. run.py builds
// this binary and is the documented entry point.

#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Report;

double cpu_mhz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return std::atof(line.c_str() + colon + 1);
    }
  }
  return 0.0;
}

/// Host CPU time from the first line of /proc/stat: {steal, total} in
/// ticks; {0, 0} when unreadable.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) return {0.0, 0.0};
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fanout|match_heavy|churn_pruned --seed N\n"
               "                 --seconds S --trace 0|1 --dbspd PATH --work-dir DIR\n"
               "                 [--tiny] [--corrupt-oracle]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions enabled\n");
  return 3;
#endif
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(usage());
      }
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--dbspd") {
      cfg.dbspd = value();
    } else if (a == "--work-dir") {
      cfg.work_dir = value();
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--corrupt-oracle") {
      cfg.corrupt_oracle = true;
    } else {
      return usage();
    }
  }
  const bool wire = cfg.workload == "fanout" || cfg.workload == "match_heavy";
  if ((!wire && cfg.workload != "churn_pruned") || cfg.seconds <= 0.0 ||
      cfg.work_dir.empty() || cfg.dbspd.empty()) {
    return usage();
  }
  std::filesystem::create_directories(cfg.work_dir);
  // Timed sleeps wake on time (the default slack is 50 µs), so the
  // generator's own lateness stays small without spinning.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const auto ticks0 = cpu_ticks();
  const Report report = wire ? perfbench::run_wire(cfg) : perfbench::run_churn(cfg);
  const auto ticks1 = cpu_ticks();

  for (const auto& e : report.errors) std::printf("oracle_mismatch %s\n", e.c_str());
  for (const auto& m : report.info) {
    std::printf("info %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Time the hypervisor gave this VM's CPUs to others during the run: a
  // run in a contended stretch of the host shows here.
  const double ticks = ticks1.second - ticks0.second;
  std::printf("info host_steal_share %.6g share\n",
              ticks > 0.0 ? (ticks1.first - ticks0.first) / ticks : 0.0);
  std::printf("info failed_ops_share %.6g share\n",
              report.attempted == 0 ? 0.0
                                    : static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted));
  for (const auto& m : report.metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "run_record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu_mhz\": %.1f, \"resolved_shards\": %zu, "
      "\"build_type\": \"%s\", \"assertions\": false, \"dbspd\": \"%s\", "
      "\"generator_on_schedule\": %s}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN), cpu_mhz(), report.resolved_shards,
      PERFBENCH_BUILD_TYPE, json_escape(cfg.dbspd).c_str(), report.valid ? "true" : "false");
  if (!report.valid) {
    std::printf("invalid: the load generator fell behind its schedule\n");
  }

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct && report.valid ? 0 : 1;
}
