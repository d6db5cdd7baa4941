// eventset_churn: short measured regions in a loop. Each region creates
// an EventSet, adds 2-8 seeded names from a catalogue (presets, P- and
// E-qualified natives, an uncore IMC event and a sysinfo event), starts
// it, reads it once, stops it and destroys it.
//
// Without this workload pfm name resolution, EventSet construction and
// backend open/close would show only inside setup_s; a read-path change
// that moves work into add_event or start (plan caching, say) shows here
// and nowhere else.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "base/rng.hpp"
#include "papi/sim_backend.hpp"
#include "workload/programs.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hetpapi;

constexpr std::array<const char*, 11> kCatalogue = {
    "PAPI_TOT_INS",
    "PAPI_TOT_CYC",
    "PAPI_BR_INS",
    "PAPI_L3_TCM",
    "PAPI_BR_MSP",
    "adl_glc::INST_RETIRED:ANY",
    "adl_glc::LONGEST_LAT_CACHE:MISS",
    "adl_grt::INST_RETIRED:ANY",
    "adl_grt::BR_INST_RETIRED:ALL_BRANCHES",
    "unc_imc_0::UNC_M_CAS_COUNT:RD",
    "sysinfo::SYS_CTX_SWITCHES",
};
constexpr int kRegions = 200;
/// The application advances this much simulated time every
/// kRegionsPerStep regions.
constexpr auto kStep = std::chrono::microseconds(500);
constexpr int kRegionsPerStep = 8;

/// The seeded event lists: 2-8 distinct catalogue names per region,
/// every size equally often, sizes and names in a seeded order.
std::vector<std::vector<const char*>> make_regions(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  std::vector<std::size_t> sizes(kRegions);
  for (std::size_t r = 0; r < sizes.size(); ++r) sizes[r] = 2 + r % 7;
  for (std::size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng.below(i + 1)]);
  }
  std::vector<std::vector<const char*>> regions(kRegions);
  std::array<const char*, kCatalogue.size()> pool = kCatalogue;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    for (std::size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[rng.below(i + 1)]);
    }
    regions[r].assign(pool.begin(),
                      pool.begin() + static_cast<std::ptrdiff_t>(sizes[r]));
  }
  return regions;
}

class EventsetChurn final : public Workload {
 public:
  explicit EventsetChurn(bool traced)
      : region_traced_(traced ? Series::kCapacity : 0) {}
  void round(RoundEnv& env) override;
  void end_to_end(Headline& h, std::vector<Metric>& detail) override;
  void per_layer(const Tracer& tracer, Headline& h,
                 std::vector<Metric>& detail) override;
  double trace_overhead_ratio() override {
    return per(region_traced_.summary().p50, region_untraced_.summary().p50);
  }

 private:
  Series region_untraced_;
  Series region_traced_;
  double busy_ns_ = 0.0;
};

void EventsetChurn::round(RoundEnv& env) {
  Api& api = env.api;
  const std::vector<std::vector<const char*>> regions = make_regions(env.seed);

  const std::int64_t setup_start = now_ns();
  simkernel::SimKernel kernel(paper_machine());
  papi::SimBackend sim(&kernel);
  const simkernel::Tid app = kernel.spawn(
      std::make_shared<workload::FixedWorkProgram>(workload::PhaseSpec{},
                                                   ~std::uint64_t{0} >> 8));
  sim.set_default_target(app);
  auto lib_or = api.init(api.backend(sim));
  if (!env.check(lib_or.status(), "Library::init")) return;
  papi::Library& lib = **lib_or;
  std::vector<long long> values;
  values.reserve(16);
  env.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  for (int r = 0; r < kRegions; ++r) {
    if (r % kRegionsPerStep == 0) env.advance(kernel, kStep);
    bool ok = true;
    std::vector<long long> stopped;
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(env.tracer(), "eventset_churn.region");
      auto set = api.create_eventset(lib);
      ok = set.has_value();
      for (const char* name : regions[static_cast<std::size_t>(r)]) {
        ok = ok && api.add_event(lib, *set, name).is_ok();
      }
      ok = ok && api.start(lib, *set).is_ok();
      ok = ok && api.read(lib, *set, values).is_ok();
      if (ok) {
        auto result = api.stop(lib, *set);
        ok = result.has_value();
        if (ok) stopped = std::move(*result);
      }
      if (set.has_value()) ok = api.destroy_eventset(lib, *set).is_ok() && ok;
    }
    const auto dt = static_cast<double>(now_ns() - t0);
    env.check(ok, "region create, add, start, read, stop, destroy");
    env.check(sim.open_fd_count() == 0, "region leaves no perf fd open");
    env.check(stopped.size() == regions[static_cast<std::size_t>(r)].size(),
              "one value per event");
    for (const char* name : regions[static_cast<std::size_t>(r)]) {
      env.digest.bytes(name, std::strlen(name));
    }
    env.digest.bytes(values.data(), values.size() * sizeof(long long));
    env.digest.bytes(stopped.data(), stopped.size() * sizeof(long long));
    if (env.measured) {
      if (env.traced()) {
        region_traced_.add(dt);
      } else {
        region_untraced_.add(dt);
        busy_ns_ += dt;
      }
    }
  }
  lib_or->reset();
  env.check(sim.open_fd_count() == 0, "no perf fd left open");
}

void EventsetChurn::end_to_end(Headline& h, std::vector<Metric>& detail) {
  h.op_us = ns_to_us(region_untraced_.summary());
  h.throughput_per_s =
      per(static_cast<double>(region_untraced_.seen()), busy_ns_ / 1e9);
  detail.push_back({"region_us_p50", h.op_us.p50, "us", h.op_us.n});
  detail.push_back({"region_us_p99", h.op_us.p99, "us", h.op_us.n});
}

void EventsetChurn::per_layer(const Tracer& tracer, Headline& h,
                              std::vector<Metric>& detail) {
  OpAggregate regions = op_totals(tracer, {"eventset_churn.region"});
  const auto n = static_cast<double>(regions.ops);
  // Self time of the calls inside the regions, merged over `names`.
  const auto self_p50 = [&](std::initializer_list<const char*> names) {
    std::vector<float> all;
    for (const char* name : names) {
      const auto it = tracer.children().find(name);
      if (it == tracer.children().end()) continue;
      all.insert(all.end(), it->second.self_ns.begin(),
                 it->second.self_ns.end());
    }
    return percentile(all.begin(), all.end(), 50);
  };
  h.api_self_us_p50 = regions.program_p50_ns() / 1e3;
  h.backend_us_per_op = per(regions.layer("backend"), n) / 1e3;
  h.backend_calls_per_op = regions.per_op(Count::kBackendCalls);
  h.heap_allocs_per_op = regions.per_op(Count::kAllocs);

  detail.push_back({"papi.add_event_self_us_p50",
                    self_p50({"papi.add_event"}) / 1e3, "us", regions.ops});
  detail.push_back({"papi.start_stop_self_us_p50",
                    self_p50({"papi.start", "papi.stop"}) / 1e3, "us",
                    regions.ops});
  detail.push_back({"backend.opens_per_region",
                    regions.per_op(Count::kBackendOpens), "count", regions.ops});
  detail.push_back({"backend.closes_per_region",
                    regions.per_op(Count::kBackendCloses), "count", regions.ops});
  detail.push_back({"backend.open_close_us_per_region",
                    per(regions.probe("backend.perf_event_open") +
                            regions.probe("backend.perf_close"),
                        n) / 1e3,
                    "us", regions.ops});
  detail.push_back({"pfm.host_reads_per_region",
                    regions.per_op(Count::kHostReads), "count", regions.ops});
  detail.push_back({"papi.allocs_per_region", h.heap_allocs_per_op, "count", regions.ops});
}

}  // namespace

std::unique_ptr<Workload> make_eventset_churn(bool traced) {
  return std::make_unique<EventsetChurn>(traced);
}

}  // namespace perfbench
