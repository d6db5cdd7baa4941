// The hierarchical aggregation tree, end to end: leaf aggregates ride
// the coalesced shared subscription (so merged values are comparable
// to direct subscriptions BY CONSTRUCTION, which the first test pins
// exactly), node daemons fan SubscribeAggregate out to downstream
// hetpapids and re-export merged per-core-type streams with exact
// hierarchical min/max/avg/sigma composition, and the whole tree
// degrades rather than stalls when a downstream faults or dies.
//
// The chaos suites (named *Chaos* so the sanitizer CI shard picks them
// up) drive a multi-shard node over two-leaf trees where one leaf sits
// behind a FaultInjectingBackend (transient-read, stale-fd,
// fd-pressure): the healthy sibling must keep flowing, merges go
// complete=0 instead of blocking, and every backend's live-fd ledger
// reads zero after shutdown — the leak oracle.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/fault_injection.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/faulty_transport.hpp"
#include "service/proto.hpp"
#include "service/stats_report.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using papi::FaultInjectingBackend;
using papi::FaultProfile;
using papi::SimBackend;
using simkernel::CpuSet;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;
using namespace hetpapi::service;

/// One leaf hetpapid with its own kernel, (optionally fault-injected)
/// backend, and loopback transport.
struct Leaf {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> sim;
  std::unique_ptr<FaultInjectingBackend> injector;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;
  /// Two measured threads: distinct subscription specs need distinct
  /// targets (one running EventSet per component per thread).
  std::vector<Tid> tids;
  Tid tid{};

  Status init(const std::string& fault_profile = "",
              std::uint64_t fault_seed = 1, DaemonConfig dconfig = {}) {
    kernel = std::make_unique<SimKernel>(cpumodel::raptor_lake_i7_13700());
    sim = std::make_unique<SimBackend>(kernel.get());
    papi::Backend* backend = sim.get();
    if (!fault_profile.empty()) {
      auto profile = FaultProfile::named(fault_profile);
      if (!profile.has_value()) return profile.status();
      injector = std::make_unique<FaultInjectingBackend>(sim.get(), *profile,
                                                         fault_seed);
      backend = injector.get();
    }
    for (int cpu = 0; cpu < 2; ++cpu) {
      tids.push_back(kernel->spawn(
          std::make_shared<FixedWorkProgram>(PhaseSpec{}, 4'000'000'000ull),
          CpuSet::of({cpu})));
    }
    tid = tids[0];
    transport = std::make_unique<LoopbackTransport>();
    daemon = std::make_unique<Daemon>(kernel.get(), backend,
                                      std::move(dconfig));
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }

  void tick(int ms) {
    kernel->run_for(std::chrono::milliseconds(ms));
    daemon->tick();
  }

  std::size_t open_fds() const {
    return injector != nullptr ? injector->open_fd_count()
                               : sim->open_fd_count();
  }
};

/// An aggregator node: its own daemon (and backing kernel for the
/// library) with every leaf adopted as a downstream.
struct Node {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> sim;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;

  Status init(const std::vector<Leaf*>& leaves, DaemonConfig dconfig = {}) {
    kernel = std::make_unique<SimKernel>(cpumodel::raptor_lake_i7_13700());
    sim = std::make_unique<SimBackend>(kernel.get());
    transport = std::make_unique<LoopbackTransport>();
    daemon = std::make_unique<Daemon>(kernel.get(), sim.get(),
                                      std::move(dconfig));
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    for (Leaf* leaf : leaves) {
      daemon->add_downstream(
          std::make_unique<Client>(leaf->transport->connect()));
    }
    return Status::ok();
  }

  Client connect(const std::string& name) {
    Client client(transport->connect());
    EXPECT_TRUE(client.hello(name).is_ok()) << name;
    return client;
  }
};

AggSubscribe agg_spec(std::int64_t target,
                      std::vector<std::string> events = {"PAPI_TOT_INS",
                                                         "PAPI_TOT_CYC"}) {
  AggSubscribe spec;
  spec.target_kind = TargetKind::kThread;
  spec.target = target;
  spec.events = std::move(events);
  return spec;
}

// --- exact-truth: aggregate == direct --------------------------------------

TEST(ServiceAggregator, LeafAggregateMatchesDirectSubscriptionExactly) {
  // On a leaf the aggregate rider shares the direct subscription's
  // coalesced EventSet, so the sums, the per-core-type parts, and the
  // degenerate count=1 statistics must equal the direct stream value
  // for value — the acceptance oracle for the whole tree.
  Leaf leaf;
  ASSERT_TRUE(leaf.init().is_ok());
  Client direct(leaf.transport->connect());
  ASSERT_TRUE(direct.hello("direct").is_ok());
  Client aggregated(leaf.transport->connect());
  ASSERT_TRUE(aggregated.hello("aggregated").is_ok());

  Subscribe qualified;
  qualified.target_kind = TargetKind::kThread;
  qualified.target = leaf.tid;
  qualified.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  qualified.qualified = 1;
  auto direct_sub = direct.subscribe(qualified);
  ASSERT_TRUE(direct_sub.has_value()) << direct_sub.status().message();

  auto agg_sub = aggregated.subscribe_aggregate(agg_spec(leaf.tid));
  ASSERT_TRUE(agg_sub.has_value()) << agg_sub.status().message();
  EXPECT_EQ(agg_sub->fanin, 1u);
  // Coalesced: both riders share one server-side EventSet.
  EXPECT_EQ(agg_sub->shared_key_id, direct_sub->shared_key_id);
  EXPECT_EQ(leaf.daemon->distinct_subscription_count(), 1u);

  constexpr int kTicks = 5;
  for (int t = 0; t < kTicks; ++t) leaf.tick(10);

  const auto direct_samples = direct.take_samples();
  (void)aggregated.pump_once();
  const auto agg_samples = aggregated.take_agg_samples();
  ASSERT_EQ(direct_samples.size(), static_cast<std::size_t>(kTicks));
  ASSERT_EQ(agg_samples.size(), static_cast<std::size_t>(kTicks));

  for (int t = 0; t < kTicks; ++t) {
    const WireSample& d = direct_samples[static_cast<std::size_t>(t)];
    const AggSample& a = agg_samples[static_cast<std::size_t>(t)];
    EXPECT_EQ(a.tick, d.tick);
    EXPECT_EQ(a.complete, 1);
    ASSERT_EQ(a.slots.size(), d.values.size());
    for (std::size_t s = 0; s < a.slots.size(); ++s) {
      const SlotStats& slot = a.slots[s];
      EXPECT_EQ(slot.sum, d.values[s]);
      EXPECT_EQ(slot.min, d.values[s]);
      EXPECT_EQ(slot.max, d.values[s]);
      EXPECT_EQ(slot.count, 1u);
      EXPECT_DOUBLE_EQ(slot.avg, static_cast<double>(d.values[s]));
      EXPECT_EQ(slot.stddev, 0.0);
      // Same parts as the direct qualified stream, label-sorted.
      std::map<std::string, long long> expected(d.parts[s].begin(),
                                                d.parts[s].end());
      std::vector<std::pair<std::string, long long>> sorted(expected.begin(),
                                                            expected.end());
      EXPECT_EQ(slot.per_core_type, sorted);
      long long part_sum = 0;
      for (const auto& [label, value] : slot.per_core_type) part_sum += value;
      EXPECT_EQ(part_sum, slot.sum);
    }
  }
}

TEST(ServiceAggregator, TwoLevelTreeComposesExactHierarchicalStats) {
  // Two leaves advanced at different rates -> distinct leaf values, so
  // the merged min/max/avg/sigma are all non-degenerate and checkable
  // against the direct per-leaf streams in closed form.
  Leaf fast, slow;
  ASSERT_TRUE(fast.init().is_ok());
  ASSERT_TRUE(slow.init().is_ok());
  ASSERT_EQ(fast.tid, slow.tid) << "deterministic spawn order";
  Node node;
  ASSERT_TRUE(node.init({&fast, &slow}).is_ok());
  ASSERT_EQ(node.daemon->downstream_count(), 2u);
  ASSERT_EQ(node.daemon->live_downstream_count(), 2u);

  // Direct qualified riders on each leaf: the exact-truth reference.
  Client ref_fast(fast.transport->connect());
  ASSERT_TRUE(ref_fast.hello("ref-fast").is_ok());
  Client ref_slow(slow.transport->connect());
  ASSERT_TRUE(ref_slow.hello("ref-slow").is_ok());
  Subscribe qualified;
  qualified.target_kind = TargetKind::kThread;
  qualified.target = fast.tid;
  qualified.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  qualified.qualified = 1;
  ASSERT_TRUE(ref_fast.subscribe(qualified).has_value());
  ASSERT_TRUE(ref_slow.subscribe(qualified).has_value());

  Client watcher = node.connect("watcher");
  auto sub = watcher.subscribe_aggregate(agg_spec(fast.tid));
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  EXPECT_EQ(sub->fanin, 2u);
  EXPECT_EQ(node.daemon->aggregate_subscription_count(), 1u);

  constexpr int kTicks = 4;
  for (int t = 0; t < kTicks; ++t) {
    fast.tick(20);  // twice the work per tick
    slow.tick(10);
    node.daemon->tick();
  }

  const auto fast_samples = ref_fast.take_samples();
  const auto slow_samples = ref_slow.take_samples();
  (void)watcher.pump_once();
  const auto merged = watcher.take_agg_samples();
  ASSERT_EQ(fast_samples.size(), static_cast<std::size_t>(kTicks));
  ASSERT_EQ(slow_samples.size(), static_cast<std::size_t>(kTicks));
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kTicks));

  for (int t = 0; t < kTicks; ++t) {
    const WireSample& a = fast_samples[static_cast<std::size_t>(t)];
    const WireSample& b = slow_samples[static_cast<std::size_t>(t)];
    const AggSample& m = merged[static_cast<std::size_t>(t)];
    EXPECT_EQ(m.complete, 1) << "tick " << t;
    ASSERT_EQ(m.slots.size(), 2u);
    for (std::size_t s = 0; s < m.slots.size(); ++s) {
      const long long va = a.values[s];
      const long long vb = b.values[s];
      const SlotStats& slot = m.slots[s];
      // THE acceptance criterion: merged sums equal the sum of what
      // direct subscriptions observe, exactly.
      EXPECT_EQ(slot.sum, va + vb);
      EXPECT_EQ(slot.min, std::min(va, vb));
      EXPECT_EQ(slot.max, std::max(va, vb));
      EXPECT_EQ(slot.count, 2u);
      const double mean = static_cast<double>(va + vb) / 2.0;
      EXPECT_DOUBLE_EQ(slot.avg, mean);
      // Two count=1 children: sigma = |va - vb| / 2, in closed form.
      EXPECT_NEAR(slot.stddev,
                  std::abs(static_cast<double>(va) - static_cast<double>(vb)) /
                      2.0,
                  1e-6 * (1.0 + slot.stddev));
      EXPECT_GT(slot.stddev, 0.0) << "leaves diverge by construction";
      // Per-core-type totals merge additively by label.
      std::map<std::string, long long> expected;
      for (const auto& [label, value] : a.parts[s]) expected[label] += value;
      for (const auto& [label, value] : b.parts[s]) expected[label] += value;
      std::vector<std::pair<std::string, long long>> sorted(expected.begin(),
                                                            expected.end());
      EXPECT_EQ(slot.per_core_type, sorted);
    }
  }

  // Wire-level stats surface the tree shape.
  auto stats = watcher.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->downstreams, 2u);
  EXPECT_EQ(stats->agg_subscriptions, 1u);
  EXPECT_EQ(stats->agg_samples_delivered,
            static_cast<std::uint64_t>(kTicks));

  node.daemon->shutdown();
  fast.daemon->shutdown();
  slow.daemon->shutdown();
  EXPECT_EQ(fast.open_fds(), 0u);
  EXPECT_EQ(slow.open_fds(), 0u);
  EXPECT_EQ(node.sim->open_fd_count(), 0u);
}

TEST(ServiceAggregator, SecondRiderCoalescesOnTheNodeAggregate) {
  Leaf leaf;
  ASSERT_TRUE(leaf.init().is_ok());
  Node node;
  ASSERT_TRUE(node.init({&leaf}).is_ok());
  Client a = node.connect("a");
  Client b = node.connect("b");
  auto sub_a = a.subscribe_aggregate(agg_spec(leaf.tid));
  ASSERT_TRUE(sub_a.has_value()) << sub_a.status().message();
  auto sub_b = b.subscribe_aggregate(agg_spec(leaf.tid));
  ASSERT_TRUE(sub_b.has_value());
  // One node-side aggregate, one downstream subscription: the second
  // rider joined instead of re-fanning out.
  EXPECT_EQ(sub_b->shared_key_id, sub_a->shared_key_id);
  EXPECT_NE(sub_b->subscription_id, sub_a->subscription_id);
  EXPECT_EQ(node.daemon->aggregate_subscription_count(), 1u);
  EXPECT_EQ(leaf.daemon->total_subscriber_count(), 1u);

  leaf.tick(10);
  node.daemon->tick();
  (void)a.pump_once();
  (void)b.pump_once();
  const auto samples_a = a.take_agg_samples();
  const auto samples_b = b.take_agg_samples();
  ASSERT_EQ(samples_a.size(), 1u);
  ASSERT_EQ(samples_b.size(), 1u);
  EXPECT_EQ(samples_a[0].subscription_id, sub_a->subscription_id);
  EXPECT_EQ(samples_b[0].subscription_id, sub_b->subscription_id);
  ASSERT_FALSE(samples_a[0].slots.empty());
  EXPECT_EQ(samples_a[0].slots[0].sum, samples_b[0].slots[0].sum);

  // Unsubscribing the first rider keeps the aggregate alive for the
  // second; the last unsubscribe releases the downstream subscription.
  ASSERT_TRUE(a.unsubscribe(sub_a->subscription_id).is_ok());
  EXPECT_EQ(node.daemon->aggregate_subscription_count(), 1u);
  ASSERT_TRUE(b.unsubscribe(sub_b->subscription_id).is_ok());
  EXPECT_EQ(node.daemon->aggregate_subscription_count(), 0u);
  leaf.daemon->poll();
  EXPECT_EQ(leaf.daemon->total_subscriber_count(), 0u);
}

TEST(ServiceAggregator, TelemetryBridgeCarriesSumsPartsAndCompleteness) {
  AggSample sample;
  sample.t_seconds = 1.25;
  sample.complete = 0;
  SlotStats slot;
  slot.sum = 300;
  slot.per_core_type = {{"INST_RETIRED[intel_atom]", 100},
                        {"INST_RETIRED[intel_core]", 200}};
  sample.slots.push_back(slot);
  const telemetry::Sample bridged = to_telemetry_sample(sample);
  EXPECT_DOUBLE_EQ(bridged.t_seconds, 1.25);
  EXPECT_FALSE(bridged.counters_ok);
  ASSERT_EQ(bridged.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(bridged.counters[0], 300.0);
  ASSERT_EQ(bridged.counter_parts.size(), 1u);
  EXPECT_EQ(bridged.counter_parts[0],
            (std::vector<double>{100.0, 200.0}));
}

// --- determinism across shard counts ---------------------------------------

std::vector<std::vector<std::uint8_t>> run_tree_scenario(std::size_t shards) {
  Leaf fast, slow;
  DaemonConfig leaf_config;
  leaf_config.shards = shards;
  EXPECT_TRUE(fast.init("", 1, leaf_config).is_ok());
  EXPECT_TRUE(slow.init("", 1, leaf_config).is_ok());
  Node node;
  DaemonConfig node_config;
  node_config.shards = shards;
  EXPECT_TRUE(node.init({&fast, &slow}, node_config).is_ok());
  EXPECT_EQ(node.daemon->shard_count(), shards);

  std::vector<Client> watchers;
  for (int i = 0; i < 5; ++i) {
    // Built in two steps: GCC 12's -Wrestrict misfires on the inlined
    // `const char* + std::string&&` concatenation here.
    std::string name = "w";
    name += std::to_string(i);
    watchers.push_back(node.connect(name));
    watchers.back().set_capture_bytes(true);
    // Two distinct aggregates (different targets and events) so the
    // fan-out carries more than one template per tick.
    auto sub = watchers.back().subscribe_aggregate(
        i % 2 == 0 ? agg_spec(fast.tids[0])
                   : agg_spec(fast.tids[1],
                              std::vector<std::string>{"PAPI_TOT_CYC"}));
    EXPECT_TRUE(sub.has_value()) << sub.status().message();
  }
  for (int t = 0; t < 5; ++t) {
    fast.tick(20);
    slow.tick(10);
    node.daemon->tick();
    for (Client& w : watchers) (void)w.pump_once();
  }
  std::vector<std::vector<std::uint8_t>> streams;
  for (Client& w : watchers) streams.push_back(w.captured_bytes());
  return streams;
}

TEST(ServiceAggregator, ByteIdenticalAggregateStreamsAcrossShardCounts) {
  const auto one = run_tree_scenario(1);
  const auto four = run_tree_scenario(4);
  const auto sixteen = run_tree_scenario(16);
  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), sixteen.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_FALSE(one[i].empty());
    EXPECT_EQ(one[i], four[i]) << "watcher " << i;
    EXPECT_EQ(one[i], sixteen[i]) << "watcher " << i;
  }
}

// --- chaos: faults and death in the tree -----------------------------------

TEST(ServiceAggregatorChaos, DeadDownstreamDegradesMergesButSiblingsFlow) {
  Leaf healthy, doomed;
  ASSERT_TRUE(healthy.init().is_ok());
  ASSERT_TRUE(doomed.init().is_ok());
  Node node;
  DaemonConfig node_config;
  node_config.shards = 4;  // the multi-shard daemon under chaos
  ASSERT_TRUE(node.init({&healthy, &doomed}, node_config).is_ok());
  Client watcher = node.connect("watcher");
  auto sub = watcher.subscribe_aggregate(agg_spec(healthy.tid));
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  EXPECT_EQ(sub->fanin, 2u);

  for (int t = 0; t < 3; ++t) {
    healthy.tick(10);
    doomed.tick(10);
    node.daemon->tick();
  }
  (void)watcher.pump_once();
  auto before = watcher.take_agg_samples();
  ASSERT_EQ(before.size(), 3u);
  for (const AggSample& s : before) EXPECT_EQ(s.complete, 1);
  const long long two_leaf_count = before.back().slots[0].count;
  EXPECT_EQ(two_leaf_count, 2);

  // Kill one leaf mid-stream. Its daemon says goodbye; the node marks
  // the link dead and keeps merging the survivor.
  doomed.daemon->shutdown();
  for (int t = 0; t < 3; ++t) {
    healthy.tick(10);
    node.daemon->tick();
  }
  EXPECT_EQ(node.daemon->live_downstream_count(), 1u);
  (void)watcher.pump_once();
  auto after = watcher.take_agg_samples();
  ASSERT_EQ(after.size(), 3u) << "the surviving sibling never stalled";
  for (const AggSample& s : after) {
    EXPECT_EQ(s.complete, 0) << "merges degrade, not block";
    ASSERT_FALSE(s.slots.empty());
    EXPECT_EQ(s.slots[0].count, 1u) << "exactly the survivor contributes";
    EXPECT_GT(s.slots[0].sum, 0);
  }

  node.daemon->shutdown();
  healthy.daemon->shutdown();
  EXPECT_EQ(healthy.open_fds(), 0u);
  EXPECT_EQ(doomed.open_fds(), 0u);
  EXPECT_EQ(node.sim->open_fd_count(), 0u);
}

TEST(ServiceAggregatorChaos, FaultProfilesDegradeGracefullyWithZeroFdLeaks) {
  // One faulting leaf per profile, one healthy sibling, a multi-shard
  // node on top. Whatever the injector does — transient read errors,
  // fds going stale mid-stream, EMFILE at open — the tree must keep
  // serving the healthy side and the ledgers must read zero afterwards.
  for (const char* profile : {"transient-read", "stale-fd", "fd-pressure"}) {
    SCOPED_TRACE(profile);
    Leaf faulty, healthy;
    ASSERT_TRUE(faulty.init(profile, /*fault_seed=*/7).is_ok());
    ASSERT_TRUE(healthy.init().is_ok());
    Node node;
    DaemonConfig node_config;
    node_config.shards = 4;
    ASSERT_TRUE(node.init({&faulty, &healthy}, node_config).is_ok());

    Client watcher = node.connect("watcher");
    auto sub = watcher.subscribe_aggregate(agg_spec(healthy.tid));
    // Under fd-pressure the faulty leg's subscribe may fail outright;
    // the aggregate must still form over the surviving leg.
    ASSERT_TRUE(sub.has_value()) << sub.status().message();
    EXPECT_GE(sub->fanin, 1u);

    constexpr int kTicks = 24;
    std::size_t received = 0;
    for (int t = 0; t < kTicks; ++t) {
      faulty.tick(10);
      healthy.tick(10);
      node.daemon->tick();
      (void)watcher.pump_once();
      for (const AggSample& s : watcher.take_agg_samples()) {
        ++received;
        ASSERT_FALSE(s.slots.empty());
        // The healthy sibling's contribution is always present.
        EXPECT_GE(s.slots[0].count, 1u);
        EXPECT_GT(s.slots[0].sum, 0);
      }
    }
    // Graceful degradation: the stream never stalls outright.
    EXPECT_GE(received, static_cast<std::size_t>(kTicks) - 2);

    node.daemon->shutdown();
    faulty.daemon->shutdown();
    healthy.daemon->shutdown();
    EXPECT_EQ(faulty.open_fds(), 0u) << "leaked: "
        << testing::PrintToString(faulty.injector->leaked_fds());
    EXPECT_EQ(faulty.sim->open_fd_count(), 0u);
    EXPECT_EQ(healthy.open_fds(), 0u);
    EXPECT_EQ(node.sim->open_fd_count(), 0u);
  }
}

TEST(ServiceAggregatorChaos, MultiShardLeafSoakUnderMixedFaultsLeaksNothing) {
  // The sharded fan-out path itself under the mixed fault profile:
  // many riders (direct and aggregate) on one multi-shard leaf daemon,
  // ticked through fault bursts. Counts may degrade; fds may not leak
  // and the daemon may not crash or stall.
  Leaf leaf;
  DaemonConfig dconfig;
  dconfig.shards = 8;
  dconfig.encode_threads = 2;
  ASSERT_TRUE(leaf.init("mixed", /*fault_seed=*/21, dconfig).is_ok());

  std::vector<std::unique_ptr<Client>> riders;
  std::size_t subscribed = 0;
  for (int i = 0; i < 24; ++i) {
    auto c = std::make_unique<Client>(leaf.transport->connect());
    ASSERT_TRUE(c->hello("rider" + std::to_string(i)).is_ok());
    if (i % 3 == 0) {
      subscribed += c->subscribe_aggregate(agg_spec(leaf.tid)).has_value();
    } else {
      Subscribe spec;
      spec.target_kind = TargetKind::kThread;
      spec.target = leaf.tid;
      spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
      spec.qualified = static_cast<std::uint8_t>(i % 2);
      subscribed += c->subscribe(spec).has_value();
    }
    riders.push_back(std::move(c));
  }
  EXPECT_GT(subscribed, 0u);

  for (int t = 0; t < 32; ++t) {
    leaf.tick(5);
    for (auto& c : riders) {
      if (!c->connected()) continue;
      (void)c->pump_once();
      (void)c->take_samples();
      (void)c->take_agg_samples();
    }
  }

  leaf.daemon->shutdown();
  EXPECT_EQ(leaf.open_fds(), 0u) << "leaked: "
      << testing::PrintToString(leaf.injector->leaked_fds());
  EXPECT_EQ(leaf.sim->open_fd_count(), 0u);
  EXPECT_GT(leaf.injector->stats().total_injected(), 0u)
      << "the profile actually fired";
}

// --- self-healing: severed legs re-dial and merges reconverge ---------------

/// Node wired by hand so each downstream leg dials through its own
/// FaultyTransport and a factory that refuses while an outage flag is
/// up — the scripted kill-and-restore the self-heal machinery must
/// survive.
struct HealableNode {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<SimBackend> sim;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Daemon> daemon;

  Status init(DaemonConfig dconfig = {}) {
    kernel = std::make_unique<SimKernel>(cpumodel::raptor_lake_i7_13700());
    sim = std::make_unique<SimBackend>(kernel.get());
    transport = std::make_unique<LoopbackTransport>();
    daemon = std::make_unique<Daemon>(kernel.get(), sim.get(),
                                      std::move(dconfig));
    if (Status s = daemon->init(); !s.is_ok()) return s;
    daemon->add_listener(transport->listener());
    transport->set_pump([this] { daemon->poll(); });
    return Status::ok();
  }

  Status add_leg(Leaf* leaf, FaultyTransport* faulty, const bool* down) {
    ConnectionFactory dial = [leaf, faulty,
                              down]() -> Expected<std::unique_ptr<Connection>> {
      if (down != nullptr && *down) {
        return make_error(StatusCode::kNotRunning, "leaf unreachable (outage)");
      }
      return faulty->wrap(leaf->transport->connect());
    };
    auto first = dial();
    if (!first.has_value()) return first.status();
    daemon->add_downstream(std::make_unique<Client>(std::move(*first)), dial);
    return Status::ok();
  }

  Client connect(const std::string& name) {
    Client client(transport->connect());
    EXPECT_TRUE(client.hello(name).is_ok()) << name;
    return client;
  }
};

TEST(ServiceSelfHealChaos, SeveredTreeLegsRedialAndMergesReconvergeExactly) {
  Leaf fast, slow;
  ASSERT_TRUE(fast.init().is_ok());
  ASSERT_TRUE(slow.init().is_ok());
  ASSERT_EQ(fast.tid, slow.tid) << "deterministic spawn order";

  FaultyTransport fast_link(*TransportFaultProfile::named("none"), 11);
  FaultyTransport slow_link(*TransportFaultProfile::named("none"), 12);
  bool fast_down = false, slow_down = false;

  HealableNode node;
  DaemonConfig node_config;
  node_config.shards = 4;
  ASSERT_TRUE(node.init(node_config).is_ok());
  ASSERT_TRUE(node.add_leg(&fast, &fast_link, &fast_down).is_ok());
  ASSERT_TRUE(node.add_leg(&slow, &slow_link, &slow_down).is_ok());
  ASSERT_EQ(node.daemon->downstream_count(), 2u);

  // Direct qualified riders on each leaf keep the coalesced EventSets
  // alive across leg outages, so post-heal downstream values stay
  // comparable to the direct streams — the exact-truth reference.
  Client ref_fast(fast.transport->connect());
  ASSERT_TRUE(ref_fast.hello("ref-fast").is_ok());
  Client ref_slow(slow.transport->connect());
  ASSERT_TRUE(ref_slow.hello("ref-slow").is_ok());
  Subscribe qualified;
  qualified.target_kind = TargetKind::kThread;
  qualified.target = fast.tid;
  qualified.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  qualified.qualified = 1;
  ASSERT_TRUE(ref_fast.subscribe(qualified).has_value());
  ASSERT_TRUE(ref_slow.subscribe(qualified).has_value());

  Client watcher = node.connect("watcher");
  auto sub = watcher.subscribe_aggregate(agg_spec(fast.tid));
  ASSERT_TRUE(sub.has_value()) << sub.status().message();
  EXPECT_EQ(sub->fanin, 2u);

  // One step = both leaves tick (at different rates, so their values
  // diverge and a merged sum identifies its contributors), then the
  // node. Every merged sample is checked against the direct streams:
  // count==2 must equal fast+slow exactly, count==1 must equal exactly
  // one of them, count==0 must be an all-zero placeholder.
  bool saw_complete = false;
  auto step = [&]() {
    fast.tick(20);
    slow.tick(10);
    node.daemon->tick();
    const auto fs = ref_fast.take_samples();
    const auto ss = ref_slow.take_samples();
    ASSERT_EQ(fs.size(), 1u);
    ASSERT_EQ(ss.size(), 1u);
    (void)watcher.pump_once();
    const auto merged = watcher.take_agg_samples();
    ASSERT_LE(merged.size(), 1u);
    saw_complete = false;
    for (const AggSample& m : merged) {
      ASSERT_EQ(m.slots.size(), 2u);
      const auto count = m.slots[0].count;
      bool is_fast = true, is_slow = true, is_both = true;
      for (std::size_t s = 0; s < m.slots.size(); ++s) {
        const long long vf = fs[0].values[s];
        const long long vs = ss[0].values[s];
        is_fast = is_fast && m.slots[s].sum == vf;
        is_slow = is_slow && m.slots[s].sum == vs;
        is_both = is_both && m.slots[s].sum == vf + vs;
        EXPECT_EQ(m.slots[s].count, count) << "slot counts agree";
      }
      if (count == 2) {
        EXPECT_TRUE(is_both) << "merged sum != fast + slow, exactly";
        EXPECT_EQ(m.complete, 1);
        saw_complete = m.complete == 1;
      } else if (count == 1) {
        EXPECT_TRUE(is_fast || is_slow)
            << "a lone contribution must equal one direct stream exactly";
        EXPECT_EQ(m.complete, 0);
      } else {
        EXPECT_EQ(count, 0u);
        EXPECT_EQ(m.complete, 0);
      }
    }
  };
  auto recover_until_complete = [&](int budget) {
    for (int i = 0; i < budget && !saw_complete; ++i) step();
    EXPECT_TRUE(saw_complete) << "merges never reconverged to complete=1";
  };

  // Healthy baseline: every step merges both legs, exactly.
  for (int t = 0; t < 3; ++t) {
    step();
    EXPECT_TRUE(saw_complete) << "healthy step " << t;
  }

  // Kill the fast leg: the sibling keeps flowing, merges degrade to
  // exactly the slow direct stream, never stall, never mix in stale
  // pre-outage fast values.
  fast_down = true;
  fast_link.sever_all();
  for (int t = 0; t < 3; ++t) {
    step();
    EXPECT_FALSE(saw_complete) << "fast leg is down";
  }
  // Restore it: the node's backoff re-dial heals the leg and merges
  // reconverge to complete=1 with exact two-leg sums.
  fast_down = false;
  recover_until_complete(20);
  EXPECT_GE(node.daemon->stats().downstream_reheals, 1u);

  // Same kill-and-restore for the slow leg.
  slow_down = true;
  slow_link.sever_all();
  for (int t = 0; t < 3; ++t) {
    step();
    EXPECT_FALSE(saw_complete) << "slow leg is down";
  }
  slow_down = false;
  recover_until_complete(20);
  EXPECT_GE(node.daemon->stats().downstream_reheals, 2u);

  // Total outage: both legs die, the merge stream must degrade (or go
  // quiet) without crashing or stalling the daemon, then heal fully.
  fast_down = slow_down = true;
  fast_link.sever_all();
  slow_link.sever_all();
  for (int t = 0; t < 3; ++t) {
    step();
    EXPECT_FALSE(saw_complete) << "everything is down";
  }
  fast_down = slow_down = false;
  recover_until_complete(30);
  EXPECT_GE(node.daemon->stats().downstream_reheals, 4u);
  EXPECT_GE(node.daemon->stats().reconnects, 4u);

  // Post-heal steady state: exact two-leg merges, every step.
  for (int t = 0; t < 3; ++t) {
    step();
    EXPECT_TRUE(saw_complete) << "post-heal step " << t;
  }

  // Teardown oracles: zero leaked fds on every backend, zero wrapped
  // endpoints still open once the node's downstream clients are gone.
  node.daemon->shutdown();
  fast.daemon->shutdown();
  slow.daemon->shutdown();
  EXPECT_EQ(fast.open_fds(), 0u);
  EXPECT_EQ(slow.open_fds(), 0u);
  EXPECT_EQ(node.sim->open_fd_count(), 0u);
  node.daemon.reset();
  EXPECT_EQ(fast_link.open_connection_count(), 0u);
  EXPECT_EQ(slow_link.open_connection_count(), 0u);
}

TEST(ServiceSelfHealChaos, MixedWireAndBackendFaultsSoakCleanly) {
  // The full gauntlet: one leaf's backend injects transient read
  // faults while BOTH tree legs run through the mixed wire profile
  // (short/zero writes, EAGAIN bursts, random disconnects, half-closes,
  // stalls). The tree must keep making progress — severed legs re-dial
  // under backoff — and every ledger must read clean afterwards.
  Leaf flaky, healthy;
  ASSERT_TRUE(flaky.init("transient-read", /*fault_seed=*/7).is_ok());
  ASSERT_TRUE(healthy.init().is_ok());

  FaultyTransport links(*TransportFaultProfile::named("mixed"), 29);
  HealableNode node;
  DaemonConfig node_config;
  node_config.shards = 4;
  ASSERT_TRUE(node.init(node_config).is_ok());
  ASSERT_TRUE(node.add_leg(&flaky, &links, nullptr).is_ok());
  ASSERT_TRUE(node.add_leg(&healthy, &links, nullptr).is_ok());

  Client watcher = node.connect("watcher");
  auto sub = watcher.subscribe_aggregate(agg_spec(healthy.tid));
  ASSERT_TRUE(sub.has_value()) << sub.status().message();

  constexpr int kSteps = 40;
  std::size_t received = 0;
  for (int t = 0; t < kSteps; ++t) {
    flaky.tick(10);
    healthy.tick(10);
    node.daemon->tick();
    (void)watcher.pump_once();
    for (const AggSample& m : watcher.take_agg_samples()) {
      ++received;
      ASSERT_FALSE(m.slots.empty());
    }
  }
  // Progress, not perfection: wire and backend faults may cost some
  // ticks, but the stream never stalls outright.
  EXPECT_GE(received, static_cast<std::size_t>(kSteps) / 2);
  EXPECT_GT(links.total_injected(), 0u) << "the wire profile actually fired";

  node.daemon->shutdown();
  flaky.daemon->shutdown();
  healthy.daemon->shutdown();
  EXPECT_EQ(flaky.open_fds(), 0u) << "leaked: "
      << testing::PrintToString(flaky.injector->leaked_fds());
  EXPECT_EQ(flaky.sim->open_fd_count(), 0u);
  EXPECT_EQ(healthy.open_fds(), 0u);
  EXPECT_EQ(node.sim->open_fd_count(), 0u);
  node.daemon.reset();
  EXPECT_EQ(links.open_connection_count(), 0u);
}

}  // namespace
}  // namespace hetpapi
