#pragma once

// The three workloads and the in-process layer replicas behind the traced
// run. See README.md for what each workload stresses and why.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "subscription/node.hpp"

namespace perfbench {

/// Share of the possible prunings churn_pruned performs, so that 5% of the
/// subscriptions' prunable structure remains (PubSub::prune_to_fraction).
constexpr double kPruneFraction = 0.95;

/// fanout and match_heavy: the shipped dbspd driven over the wire.
Report run_wire(const Config& cfg);
/// churn_pruned: an in-process durable, pruned dbsp::PubSub.
Report run_churn(const Config& cfg);

/// What the net layer costs on one table, measured against a dbspd that
/// holds it (the churn workload has no wire of its own).
struct NetNumbers {
  double ping_rtt_us = 0.0;
  double publish_rtt_p50_us = 0.0;  ///< closed-loop single publish
  double notify_lag_us = 0.0;       ///< notify receipt minus reply receipt
  double bytes_per_event = 0.0;
  double frames_per_event = 0.0;
  double write_queue_high_water = 0.0;
  double slow_consumer_disconnects = 0.0;
};

/// Starts a dbspd on `domain`, registers `trees` over one subscriber
/// connection, publishes `events` closed loop for `seconds`, and reads the
/// net-layer numbers. Failures are counted into `report`.
NetNumbers wire_replica(const Config& cfg, const std::string& domain,
                        const std::vector<const dbsp::Node*>& trees,
                        const std::vector<dbsp::Event>& events, double seconds,
                        Report& report);

/// The table and events a workload's layer replicas replay.
struct LayerInput {
  const dbsp::Schema* schema = nullptr;
  /// The live table (for churn_pruned: the pruned trees as registered).
  std::vector<const dbsp::Node*> live;
  /// The subscribers' original trees (pruning and store replicas).
  std::vector<const dbsp::Node*> originals;
  std::vector<dbsp::Event> events;
  std::vector<dbsp::Event> training;
  /// Subscriptions the durable-store and pruning replicas register.
  std::size_t store_cap = 10000;
  /// Events per publish_batch the api replica times.
  std::size_t batch = 64;
};

/// Numbers the workload runners combine with their own measurements.
struct LayerNumbers {
  double api_publish_p50_us = 0.0;
  double api_publish_batch_us = 0.0;  ///< p50 of one LayerInput::batch publish_batch
};

/// Replays `in` through CountingMatcher, AttributeIndex, Node evaluation,
/// ShardedEngine (1 shard and the default count), PubSub (shipped
/// defaults and observability off), the selectivity estimator, pruning
/// and a durable store, and emits their per-layer metrics.
LayerNumbers measure_layers(const Config& cfg, const LayerInput& in,
                            Report& report, SpanLog& spans);

/// net.make_notify_frame_ns over `events`.
double make_notify_frame_ns(const std::vector<dbsp::Event>& events);

}  // namespace perfbench
