// The probes must be pure pass-through: the same scenario run over a
// probed seam and over the bare seam produces identical outputs, while
// the probe records the work it saw.
#include <gtest/gtest.h>

#include <chrono>

#include "cpumodel/machine.hpp"
#include "harness/probes.hpp"
#include "papi/library.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"
#include "workload/simplemoc.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

struct CountingOutputs {
  std::vector<long long> read;
  std::vector<long long> qualified_parts;
  std::vector<long long> stopped;
  std::vector<std::uint64_t> sample_ips;
  std::uint64_t lost = 0;
  bool operator==(const CountingOutputs&) const = default;
};

/// Counting and sampling through the Library over `backend_for(sim)`.
template <typename BackendFor>
CountingOutputs run_library(BackendFor backend_for) {
  simkernel::SimKernel kernel(*cpumodel::machine_preset_by_name("raptorlake"));
  papi::SimBackend sim(&kernel);
  const simkernel::Tid counted = kernel.spawn(
      std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                   1'000'000'000'000ULL));
  const simkernel::Tid sampled = kernel.spawn(
      std::make_shared<workload::SimpleMocProgram>(
          workload::SimpleMocConfig{100'000}),
      simkernel::CpuSet::of(kernel.machine().cpus_of_type(0)));
  auto lib = papi::Library::init(&backend_for(sim));
  EXPECT_TRUE(lib.has_value());
  CountingOutputs out;
  auto set = (*lib)->create_eventset();
  EXPECT_TRUE((*lib)->attach(*set, counted).is_ok());
  for (const char* name :
       {"PAPI_TOT_INS", "adl_grt::INST_RETIRED:ANY", "sysinfo::SYS_CTX_SWITCHES"}) {
    EXPECT_TRUE((*lib)->add_event(*set, name).is_ok()) << name;
  }
  auto samples = (*lib)->create_eventset();
  EXPECT_TRUE((*lib)->attach(*samples, sampled).is_ok());
  EXPECT_TRUE((*lib)->add_event(*samples, "PAPI_TOT_INS").is_ok());
  EXPECT_TRUE((*lib)
                  ->set_overflow(*samples, 0, 1'111'111,
                                 [](const papi::OverflowEvent&) {})
                  .is_ok());
  EXPECT_TRUE((*lib)->start(*set).is_ok());
  EXPECT_TRUE((*lib)->start(*samples).is_ok());
  kernel.run_for(std::chrono::milliseconds(200));
  EXPECT_TRUE((*lib)->read_into(*set, out.read).is_ok());
  std::vector<papi::QualifiedReading> qualified;
  EXPECT_TRUE((*lib)->read_qualified_into(*set, qualified).is_ok());
  for (const auto& q : qualified) {
    for (const auto& part : q.parts) out.qualified_parts.push_back(part.value);
  }
  auto batch = (*lib)->read_samples(*samples);
  EXPECT_TRUE(batch.has_value());
  for (const papi::Sample& s : batch->samples) out.sample_ips.push_back(s.ip);
  out.lost = batch->lost;
  out.stopped = *(*lib)->stop(*set);
  EXPECT_TRUE((*lib)->stop(*samples).has_value());
  EXPECT_TRUE((*lib)->destroy_eventset(*set).is_ok());
  EXPECT_TRUE((*lib)->destroy_eventset(*samples).is_ok());
  lib->reset();
  EXPECT_EQ(sim.open_fd_count(), 0u);
  return out;
}

TEST(ProbeBackend, PassesEveryCallThrough) {
  const CountingOutputs bare =
      run_library([](papi::SimBackend& sim) -> papi::Backend& { return sim; });
  Tracer tracer;
  std::unique_ptr<ProbeBackend> probe;
  const CountingOutputs probed =
      run_library([&](papi::SimBackend& sim) -> papi::Backend& {
        probe = std::make_unique<ProbeBackend>(sim, tracer);
        return *probe;
      });
  tracer.flush();
  EXPECT_FALSE(bare.read.empty());
  EXPECT_FALSE(bare.sample_ips.empty());
  EXPECT_EQ(bare, probed);
  const Counts seen = tracer.total_counts();
  EXPECT_GT(seen[Count::kBackendCalls], 0u);
  EXPECT_GT(seen[Count::kBackendOpens], 0u);
  EXPECT_EQ(seen[Count::kBackendOpens], seen[Count::kBackendCloses]);
  EXPECT_GT(seen[Count::kBackendReads], 0u);
  EXPECT_GT(seen[Count::kRingPolls], 0u);
  EXPECT_GT(seen[Count::kHostReads], 0u);  // pfm scan + /proc/stat reads
}

struct ServiceOutputs {
  std::vector<std::uint8_t> client_bytes;
  std::vector<long long> values;
  bool operator==(const ServiceOutputs&) const = default;
};

/// One daemon, two clients, three ticks; `probe` decides whether the
/// listener and the client endpoints are wrapped.
ServiceOutputs run_service(Tracer* tracer) {
  simkernel::SimKernel kernel(*cpumodel::machine_preset_by_name("raptorlake"));
  papi::SimBackend sim(&kernel);
  std::vector<simkernel::Tid> tids;
  for (int i = 0; i < 2; ++i) {
    tids.push_back(kernel.spawn(std::make_shared<workload::FixedWorkProgram>(
        workload::PhaseSpec{}, 1'000'000'000'000ULL)));
  }
  service::LoopbackTransport transport;
  service::Daemon daemon(&kernel, &sim, service::DaemonConfig{});
  EXPECT_TRUE(daemon.init().is_ok());
  std::unique_ptr<ProbeListener> listener;
  if (tracer != nullptr) {
    listener = std::make_unique<ProbeListener>(*transport.listener(), *tracer);
    daemon.add_listener(listener.get());
  } else {
    daemon.add_listener(transport.listener());
  }
  transport.set_pump([&daemon] { daemon.poll(); });

  ServiceOutputs out;
  std::vector<std::unique_ptr<service::Client>> clients;
  for (int i = 0; i < 2; ++i) {
    std::unique_ptr<service::Connection> conn = transport.connect();
    if (tracer != nullptr) {
      conn = std::make_unique<ProbeConnection>(std::move(conn), *tracer,
                                               /*server_side=*/false);
    }
    clients.push_back(std::make_unique<service::Client>(std::move(conn)));
    clients.back()->set_capture_bytes(true);
    EXPECT_TRUE(clients.back()->hello("probe-test").is_ok());
    service::Subscribe spec;
    spec.target_kind = service::TargetKind::kThread;
    spec.target = tids[static_cast<std::size_t>(i)];
    spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    spec.qualified = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(clients.back()->subscribe(spec).has_value());
  }
  for (int t = 0; t < 3; ++t) {
    kernel.run_for(std::chrono::milliseconds(5));
    daemon.tick();
    for (auto& client : clients) {
      for (const service::WireSample& s : client->take_samples()) {
        out.values.insert(out.values.end(), s.values.begin(), s.values.end());
      }
    }
  }
  for (auto& client : clients) {
    EXPECT_TRUE(client->close().is_ok());
    out.client_bytes.insert(out.client_bytes.end(),
                            client->captured_bytes().begin(),
                            client->captured_bytes().end());
  }
  daemon.shutdown();
  EXPECT_EQ(sim.open_fd_count(), 0u);
  return out;
}

TEST(ProbeConnection, PassesEveryByteThrough) {
  const ServiceOutputs bare = run_service(nullptr);
  Tracer tracer;
  const ServiceOutputs probed = run_service(&tracer);
  tracer.flush();
  EXPECT_EQ(bare.values.size(), 2u * 3u * 2u);
  EXPECT_EQ(bare, probed);
  const Counts seen = tracer.total_counts();
  EXPECT_GT(seen[Count::kServerSends], 0u);
  EXPECT_GT(seen[Count::kClientSends], 0u);
  // Every byte the daemon sent reached a probed client endpoint.
  EXPECT_EQ(seen[Count::kServerBytes], seen[Count::kClientReceivedBytes]);
  EXPECT_EQ(seen[Count::kClientReceivedBytes], probed.client_bytes.size());
}

}  // namespace
}  // namespace perfbench
