#include "papi/components/sysinfo.hpp"

#include "base/strings.hpp"
#include "pfm/host.hpp"

namespace hetpapi::papi {

namespace {

/// Sum of the busy jiffies (user + nice + system) on the aggregate
/// "cpu " line, converted to milliseconds at the canonical USER_HZ=100.
Expected<double> parse_cpu_time_ms(std::string_view stat) {
  for (const auto line : split(stat, '\n')) {
    auto fields = split(line, ' ');
    std::erase_if(fields, [](std::string_view f) { return f.empty(); });
    if (fields.size() < 4 || fields[0] != "cpu") continue;
    double jiffies = 0.0;
    for (std::size_t i = 1; i <= 3; ++i) {
      const auto value = parse_int(fields[i]);
      if (!value) {
        return make_error(StatusCode::kSystem,
                          "malformed cpu line in /proc/stat");
      }
      jiffies += static_cast<double>(*value);
    }
    return jiffies * 10.0;
  }
  return make_error(StatusCode::kSystem, "no cpu line in /proc/stat");
}

Expected<double> parse_ctxt(std::string_view stat) {
  for (const auto line : split(stat, '\n')) {
    auto fields = split(line, ' ');
    std::erase_if(fields, [](std::string_view f) { return f.empty(); });
    if (fields.size() < 2 || fields[0] != "ctxt") continue;
    const auto value = parse_int(fields[1]);
    if (!value) {
      return make_error(StatusCode::kSystem,
                        "malformed ctxt line in /proc/stat");
    }
    return static_cast<double>(*value);
  }
  return make_error(StatusCode::kSystem, "no ctxt line in /proc/stat");
}

}  // namespace

std::unique_ptr<ComponentState> SysinfoComponent::create_state() const {
  return std::make_unique<SysinfoState>();
}

Expected<std::string> SysinfoComponent::find_thermal_zone() const {
  const pfm::Host& host = env_.backend->host();
  for (int zone = 0; zone < 32; ++zone) {
    const std::string base =
        str_format("/sys/class/thermal/thermal_zone%d", zone);
    auto type = host.read_value(base + "/type");
    if (!type.has_value()) continue;
    // The package sensor is x86_pkg_temp on Intel and the SoC zone on
    // the ARM boards the paper measures; other zones (acpitz, cores,
    // battery...) are not the package.
    if (*type == "x86_pkg_temp" || *type == "soc-thermal") {
      return base + "/temp";
    }
  }
  return make_error(StatusCode::kNotSupported,
                    "no package thermal zone on this system");
}

Expected<double> SysinfoComponent::read_raw(const Slot& slot) const {
  const pfm::Host& host = env_.backend->host();
  switch (slot.quantity) {
    case Quantity::kContextSwitches: {
      auto stat = host.read_file("/proc/stat");
      if (!stat.has_value()) return stat.status();
      return parse_ctxt(*stat);
    }
    case Quantity::kCpuTimeMs: {
      auto stat = host.read_file("/proc/stat");
      if (!stat.has_value()) return stat.status();
      return parse_cpu_time_ms(*stat);
    }
    case Quantity::kPackageTempMc: {
      auto value = host.read_int(slot.path);
      if (!value.has_value()) return value.status();
      return static_cast<double>(*value);
    }
  }
  return make_error(StatusCode::kBug, "unknown sysinfo reading");
}

Status SysinfoComponent::open_slot(ComponentState& state,
                                   const SlotRequest& request,
                                   const MeasureTarget& target) {
  (void)target;  // system-wide readings; the EventSet target is moot.
  auto& st = static_cast<SysinfoState&>(state);
  Slot slot;
  slot.request = request;

  // The reading is keyed on the event name within the sysinfo PMU; the
  // encoding's config code is free-form for software tables. Canonical
  // names look like "sysinfo::SYS_CTX_SWITCHES".
  std::string_view name = request.enc.canonical_name;
  if (const auto sep = name.rfind("::"); sep != std::string_view::npos) {
    name = name.substr(sep + 2);
  }
  if (const auto colon = name.find(':'); colon != std::string_view::npos) {
    name = name.substr(0, colon);
  }
  if (name == "SYS_CTX_SWITCHES") {
    slot.quantity = Quantity::kContextSwitches;
  } else if (name == "SYS_CPU_TIME_MS") {
    slot.quantity = Quantity::kCpuTimeMs;
  } else if (name == "PKG_TEMP_MC") {
    slot.quantity = Quantity::kPackageTempMc;
    auto path = find_thermal_zone();
    if (!path.has_value()) return path.status();
    slot.path = *path;
  } else {
    return make_error(StatusCode::kNotFound,
                      str_format("sysinfo component has no event named %.*s",
                                 static_cast<int>(name.size()), name.data()));
  }

  // Probe once at open so add_event fails eagerly (and rolls back)
  // instead of poisoning a later start().
  auto probe = read_raw(slot);
  if (!probe.has_value()) return probe.status();

  st.slots.push_back(std::move(slot));
  return Status::ok();
}

Status SysinfoComponent::close_all(ComponentState& state) {
  auto& st = static_cast<SysinfoState&>(state);
  st.slots.clear();
  st.running = false;
  return Status::ok();
}

Status SysinfoComponent::start(ComponentState& state) {
  auto& st = static_cast<SysinfoState&>(state);
  for (auto& slot : st.slots) {
    auto value = read_raw(slot);
    if (!value.has_value()) return value.status();
    slot.baseline = *value;
    slot.frozen = 0.0;
  }
  st.running = true;
  return Status::ok();
}

Status SysinfoComponent::stop(ComponentState& state) {
  auto& st = static_cast<SysinfoState&>(state);
  for (auto& slot : st.slots) {
    auto value = read_raw(slot);
    if (!value.has_value()) return value.status();
    slot.frozen = slot.quantity == Quantity::kPackageTempMc
                      ? *value
                      : *value - slot.baseline;
  }
  st.running = false;
  return Status::ok();
}

Status SysinfoComponent::reset(ComponentState& state) {
  auto& st = static_cast<SysinfoState&>(state);
  for (auto& slot : st.slots) {
    auto value = read_raw(slot);
    if (!value.has_value()) return value.status();
    slot.baseline = *value;
    slot.frozen = 0.0;
  }
  return Status::ok();
}

Status SysinfoComponent::read(const ComponentState& state, bool scale,
                              std::vector<double>& values,
                              std::vector<std::uint8_t>* valid) const {
  (void)scale;  // software readings are never multiplexed.
  const auto& st = static_cast<const SysinfoState&>(state);
  for (const auto& slot : st.slots) {
    const auto index = static_cast<std::size_t>(slot.request.global_index);
    double out = slot.frozen;
    if (st.running) {
      auto value = read_raw(slot);
      if (!value.has_value()) {
        // Tolerant callers degrade the slot (a vanished procfs/sysfs
        // file costs one reading, not the collection); strict callers
        // get the error.
        if (valid == nullptr) return value.status();
        values[index] = 0.0;
        (*valid)[index] = 0;
        continue;
      }
      out = slot.quantity == Quantity::kPackageTempMc ? *value
                                                    : *value - slot.baseline;
    }
    values[index] = out;
  }
  return Status::ok();
}

}  // namespace hetpapi::papi
