#include <chrono>

#include "cpumodel/machine.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

bool RoundEnv::check(bool ok, std::string_view what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 8) errors.emplace_back(what);
  }
  return ok;
}

void RoundEnv::advance(hetpapi::simkernel::SimKernel& kernel,
                       hetpapi::SimDuration duration) {
  const auto before = kernel.now();
  const std::int64_t t0 = now_ns();
  kernel.run_for(duration);
  sim_host_ns += static_cast<double>(now_ns() - t0);
  sim_ms += std::chrono::duration<double, std::milli>(
                kernel.now().since_epoch - before.since_epoch)
                .count();
}

OpAggregate op_totals(const Tracer& tracer,
                      const std::vector<std::string>& names) {
  OpAggregate total;
  for (const std::string& name : names) {
    const auto it = tracer.ops().find(name);
    if (it != tracer.ops().end()) total += it->second;
  }
  return total;
}

hetpapi::cpumodel::MachineSpec paper_machine() {
  return *hetpapi::cpumodel::machine_preset_by_name("raptorlake");
}

}  // namespace perfbench
