// Ablation A2: value of the pmin evaluation trigger (ref [2]) inside the
// counting matcher — the mechanism the throughput heuristic Δ≈eff protects.
// Matches the same workload with the trigger on and off and reports counter
// bumps, tree evaluations, trigger precision (matches per evaluation) and
// wall time, at three pruning depths of the throughput
// heuristic (pruning lowers pmin, so the trigger's value shrinks as
// pruning proceeds — exactly the effect Δ≈eff fights).

#include <cstdio>
#include <memory>
#include <vector>

#include "common/env.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "filter/counting_matcher.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

int main() {
  using namespace dbsp;
  const auto n_subs = static_cast<std::size_t>(env_int("DBSP_SUBS", 8000));
  const auto n_events = static_cast<std::size_t>(env_int("DBSP_EVENTS", 2000));

  const WorkloadConfig wl;
  const AuctionDomain domain(wl);
  EventStats stats(domain.schema());
  AuctionEventGenerator training(domain, 3);
  for (int i = 0; i < 10000; ++i) stats.observe(training.next());
  stats.finalize();
  const SelectivityEstimator estimator(stats);
  AuctionEventGenerator event_gen(domain, 2);
  const auto events = event_gen.generate(n_events);

  std::printf("=== Ablation A2: pmin evaluation trigger ===\n");
  std::printf("%zu subscriptions, %zu events, throughput-dimension pruning\n\n",
              n_subs, n_events);
  std::printf("%-10s %-9s %14s %14s %12s %10s %10s\n", "fraction", "trigger", "bumps",
              "evaluations", "matches", "precision", "ms/event");

  AuctionSubscriptionGenerator sub_gen(domain, 1);
  std::vector<std::unique_ptr<Subscription>> subs;
  CountingMatcher matcher(domain.schema());
  for (std::uint32_t i = 0; i < n_subs; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    matcher.add(*subs.back());
  }
  PruneEngineConfig cfg;
  cfg.dimension = PruneDimension::Throughput;
  PruningEngine engine(estimator, cfg, &matcher);
  for (auto& s : subs) engine.register_subscription(*s);

  std::uint64_t mismatches = 0;
  for (const double fraction : {0.0, 0.4, 0.8}) {
    const auto target =
        static_cast<std::size_t>(fraction * static_cast<double>(engine.total_possible()));
    if (target > engine.performed()) engine.prune(target - engine.performed());

    std::uint64_t matches_on = 0;
    std::uint64_t matches_off = 0;
    for (const bool trigger : {true, false}) {
      matcher.set_pmin_trigger(trigger);
      matcher.reset_counters();
      std::vector<SubscriptionId> out;
      Stopwatch watch;
      watch.start();
      for (const auto& e : events) {
        out.clear();
        matcher.match(e, out);
      }
      watch.stop();
      const auto& c = matcher.counters();
      (trigger ? matches_on : matches_off) = c.matches;
      std::printf("%-10.1f %-9s %14llu %14llu %12llu %10.4f %10.3f\n", fraction,
                  trigger ? "on" : "off", static_cast<unsigned long long>(c.counter_increments),
                  static_cast<unsigned long long>(c.tree_evaluations),
                  static_cast<unsigned long long>(c.matches),
                  c.tree_evaluations == 0 ? 0.0
                                          : static_cast<double>(c.matches) /
                                                static_cast<double>(c.tree_evaluations),
                  1e3 * watch.seconds() / static_cast<double>(n_events));
    }
    if (matches_on != matches_off) ++mismatches;  // must agree semantically
  }
  matcher.set_pmin_trigger(true);
  std::printf("\nsemantic agreement across modes: %s\n",
              mismatches == 0 ? "yes" : "NO (bug!)");
  return mismatches == 0 ? 0 : 1;
}
