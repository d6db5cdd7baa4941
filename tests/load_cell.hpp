// A counter-service load cell for the tests: one Daemon on a simulated
// Raptor Lake with `clients` loopback riders spread round-robin over
// `specs` distinct subscriptions (one pinned worker thread each), and
// the sixteen-cell load table built from it. The exact-count tests
// (test_service) and the wall-time guard (test_cost_guards) drive the
// same cells.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpumodel/machine.hpp"
#include "papi/sim_backend.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/transport.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {

struct LoadCellSpec {
  std::string label;
  int clients = 1;
  int specs = 1;
  std::size_t shards = 1;
  /// Short-lived sessions that connect, subscribe the coalesced spec
  /// and leave every tick, half with Close and half by dropping the
  /// socket so the dead-pipe reaper runs. They never see a sample.
  int churn_per_tick = 0;
};

/// Same-spec 1..1024 clients, the distinct-spec control, 1024 clients
/// over 8 specs at 1/4/16 shards, and 64 riders under 16 churned
/// sessions per tick. `shards` applies to every cell but the mixed
/// ones, which sweep their own.
inline std::vector<LoadCellSpec> load_table(std::size_t shards) {
  std::vector<LoadCellSpec> table;
  for (int clients = 1; clients <= 1024; clients *= 2) {
    table.push_back({"same-spec/" + std::to_string(clients), clients, 1,
                     shards, 0});
  }
  table.push_back({"distinct-spec/8", 8, 8, shards, 0});
  for (const std::size_t mixed :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    table.push_back({"mixed-spec/1024x8/shards" + std::to_string(mixed),
                     1024, 8, mixed, 0});
  }
  table.push_back({"churn/64+16", 64, 1, shards, 16});
  return table;
}

class ServiceLoadCell {
 public:
  static constexpr int kTicks = 40;

  ServiceLoadCell(const LoadCellSpec& spec, std::size_t encode_threads)
      : spec_(spec),
        kernel_(cpumodel::raptor_lake_i7_13700()),
        backend_(&kernel_),
        daemon_(&kernel_, &backend_, [&] {
          service::DaemonConfig config;
          config.encode_threads = encode_threads;
          config.shards = spec.shards;
          return config;
        }()) {
    for (int i = 0; i < spec.specs; ++i) {
      tids_.push_back(kernel_.spawn(
          std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                       40'000'000'000ull),
          simkernel::CpuSet::of({i})));
    }
    const Status init = daemon_.init();
    EXPECT_TRUE(init.is_ok()) << init.to_string();
    daemon_.add_listener(transport_.listener());
    transport_.set_pump([this] { daemon_.poll(); });
    for (int i = 0; i < spec.clients; ++i) {
      const auto target = tids_[static_cast<std::size_t>(i % spec.specs)];
      riders_.push_back(connect("load-" + std::to_string(i), target));
    }
    reads_before_ = daemon_.stats().backend_reads;
    delivered_before_ = daemon_.stats().samples_delivered;
  }

  /// Runs `ticks` delivery ticks. Every rider takes its samples after
  /// each tick; the wall time of each take_samples() call, in µs, is
  /// appended to `latencies_us` when given.
  void run(int ticks, std::vector<double>* latencies_us = nullptr) {
    for (int t = 0; t < ticks; ++t) {
      kernel_.run_for(std::chrono::milliseconds(5));
      daemon_.tick();
      if (spec_.churn_per_tick > 0) churn();
      for (auto& rider : riders_) {
        const auto start = std::chrono::steady_clock::now();
        samples_taken_ += rider->take_samples().size();
        const auto stop = std::chrono::steady_clock::now();
        if (latencies_us != nullptr) {
          latencies_us->push_back(
              std::chrono::duration<double, std::micro>(stop - start)
                  .count());
        }
      }
    }
  }

  const LoadCellSpec& spec() const { return spec_; }
  std::uint64_t distinct_specs() const {
    return daemon_.distinct_subscription_count();
  }
  std::uint64_t backend_reads() const {
    return daemon_.stats().backend_reads - reads_before_;
  }
  std::uint64_t client_reads() const {
    return daemon_.stats().samples_delivered - delivered_before_;
  }
  std::uint64_t samples_taken() const { return samples_taken_; }

  /// Closes every rider, shuts the daemon down and returns the number
  /// of backend fds still open (the leak ledger).
  std::size_t shutdown() {
    for (auto& rider : riders_) static_cast<void>(rider->close());
    daemon_.shutdown();
    return backend_.open_fd_count();
  }

 private:
  std::unique_ptr<service::Client> connect(const std::string& name,
                                           simkernel::Tid target) {
    auto client = std::make_unique<service::Client>(transport_.connect());
    EXPECT_TRUE(client->hello(name).is_ok()) << name;
    service::Subscribe spec;
    spec.target_kind = service::TargetKind::kThread;
    spec.target = target;
    spec.events = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
    const auto ack = client->subscribe(spec);
    EXPECT_TRUE(ack.has_value()) << name << ": " << ack.status().to_string();
    return client;
  }

  void churn() {
    std::vector<std::unique_ptr<service::Client>> ephemerals;
    for (int c = 0; c < spec_.churn_per_tick; ++c) {
      ephemerals.push_back(
          connect("churn-" + std::to_string(churned_++), tids_[0]));
    }
    for (std::size_t c = 0; c < ephemerals.size(); ++c) {
      if (c % 2 == 0) {
        static_cast<void>(ephemerals[c]->close());
      } else {
        ephemerals[c].reset();
      }
    }
    // Reap the vanished before the next delivery tick, so a churned
    // session never receives a sample.
    daemon_.poll();
  }

  LoadCellSpec spec_;
  simkernel::SimKernel kernel_;
  papi::SimBackend backend_;
  service::LoopbackTransport transport_;
  service::Daemon daemon_;
  std::vector<simkernel::Tid> tids_;
  std::vector<std::unique_ptr<service::Client>> riders_;
  std::uint64_t reads_before_ = 0;
  std::uint64_t delivered_before_ = 0;
  std::uint64_t samples_taken_ = 0;
  int churned_ = 0;
};

}  // namespace hetpapi
