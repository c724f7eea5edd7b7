// Micro-benchmarks of the filtering engine: counting matcher vs the naive
// baseline across subscription counts, plus index probe cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "filter/counting_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace {

using namespace dbsp;

struct Fixture {
  WorkloadConfig cfg;
  std::unique_ptr<AuctionDomain> domain;
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<Event> events;

  explicit Fixture(std::size_t n_subs) {
    cfg.seed = 7;
    domain = std::make_unique<AuctionDomain>(cfg);
    AuctionSubscriptionGenerator sub_gen(*domain, 1);
    for (std::uint32_t i = 0; i < n_subs; ++i) {
      subs.push_back(
          std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    }
    AuctionEventGenerator event_gen(*domain, 2);
    events = event_gen.generate(256);
  }
};

void BM_CountingMatcher(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  CountingMatcher matcher(fx.domain->schema());
  for (auto& s : fx.subs) matcher.add(*s);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(fx.events[i++ % fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CountingMatcher)->Arg(1000)->Arg(10000)->Arg(50000)->Arg(100000);

void BM_NaiveMatcher(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  NaiveMatcher matcher;
  for (auto& s : fx.subs) matcher.add(*s);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(fx.events[i++ % fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveMatcher)->Arg(1000)->Arg(10000);

void BM_MatcherRegistration(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    CountingMatcher matcher(fx.domain->schema());
    for (auto& s : fx.subs) matcher.add(*s);
    benchmark::DoNotOptimize(matcher.association_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MatcherRegistration)->Arg(1000)->Arg(10000);

void BM_MatcherWithoutPminTrigger(benchmark::State& state) {
  Fixture fx(static_cast<std::size_t>(state.range(0)));
  CountingMatcher matcher(fx.domain->schema());
  for (auto& s : fx.subs) matcher.add(*s);
  matcher.set_pmin_trigger(false);
  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    matcher.match(fx.events[i++ % fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatcherWithoutPminTrigger)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
