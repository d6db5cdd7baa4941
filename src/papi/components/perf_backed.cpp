#include "papi/components/perf_backed.hpp"

#include "papi/retry.hpp"
#include "papi/user_page_read.hpp"

namespace hetpapi::papi {

using simkernel::kIocFlagGroup;

std::unique_ptr<ComponentState> PerfBackedComponent::create_state() const {
  return std::make_unique<PerfState>();
}

Status PerfBackedComponent::install_handler(const Slot& slot) const {
  if (slot.request.sample_period == 0 || slot.request.overflow == nullptr) {
    return Status::ok();
  }
  // Capture what the callback needs; the EventSet (which owns the
  // callback the pointer refers to) outlives the fd.
  const int set_id = slot.request.eventset_id;
  const int user_index = slot.request.user_event_index;
  const std::string native_name = slot.request.enc.canonical_name;
  const OverflowCallback* callback = slot.request.overflow;
  return env_.backend->perf_set_overflow_handler(
      slot.fd, [set_id, user_index, native_name, callback](
                   int, std::uint64_t value, std::uint64_t periods) {
        OverflowEvent event;
        event.eventset = set_id;
        event.user_event_index = user_index;
        event.native_name = native_name;
        event.value = value;
        event.periods = periods;
        (*callback)(event);
      });
}

void PerfBackedComponent::map_ring(Slot& slot) const {
  if (slot.request.sample_period == 0) return;
  auto ring = env_.backend->perf_mmap_ring(slot.fd);
  if (ring) {
    slot.ring = *ring;
    slot.ring_mapped = true;
  } else {
    slot.ring_denied = true;
  }
}

Status PerfBackedComponent::open_slot(ComponentState& state,
                                      const SlotRequest& request,
                                      const MeasureTarget& target) {
  PerfState& ps = perf_state(state);
  ps.read_plan_valid = false;
  const pfm::ActivePmu* pmu = env_.pfm->find_pmu(request.enc.pmu_name);
  if (pmu == nullptr) {
    return make_error(StatusCode::kBug, "unknown PMU at open time");
  }
  auto binding = bind(*pmu, target);
  if (!binding) return binding.status();

  // Find or create the group for this PMU type. Multiplexed sets make
  // every event its own leader so the kernel can rotate them freely.
  Group* group = nullptr;
  if (!target.multiplexed) {
    for (Group& g : ps.groups) {
      if (g.perf_type == request.enc.perf_type) {
        group = &g;
        break;
      }
    }
  }

  PerfEventAttr attr;
  attr.type = request.enc.perf_type;
  attr.config = request.enc.config;
  attr.sample_period = request.sample_period;
  attr.read_format = simkernel::kFormatGroup |
                     simkernel::kFormatTotalTimeEnabled |
                     simkernel::kFormatTotalTimeRunning;

  const int retries = env_.config->transient_retry_attempts;
  if (group == nullptr) {
    if (ps.groups.full() ||
        (!target.multiplexed && ps.groups.size() >= kMaxPmuGroups)) {
      return make_error(StatusCode::kNoMemory,
                        "EventSet exceeds the static group array (" +
                            std::to_string(kMaxPmuGroups) + " PMU groups)");
    }
    attr.disabled = true;  // leaders start disabled; PAPI_start enables
    auto fd = open_with_retry(*env_.backend, attr, binding->tid, binding->cpu,
                              -1, 0, retries);
    if (!fd) return fd.status();
    Group new_group;
    new_group.perf_type = request.enc.perf_type;
    new_group.leader_fd = *fd;
    new_group.members.push_back(static_cast<int>(ps.slots.size()));
    ps.groups.push_back(new_group);
    ps.slots.push_back(Slot{request, *fd});
    const Status installed = install_handler(ps.slots.back());
    if (!installed.is_ok()) {
      // Undo the half-opened leader: a failed open_slot must leave the
      // state exactly as it was, fd included.
      (void)env_.backend->perf_close(*fd);
      ps.slots.pop_back();
      ps.groups.pop_back();
      return installed;
    }
    map_ring(ps.slots.back());
    return installed;
  }

  attr.disabled = false;  // siblings gate on their leader
  auto fd = open_with_retry(*env_.backend, attr, binding->tid, binding->cpu,
                            group->leader_fd, 0, retries);
  if (!fd) return fd.status();
  if (group->members.full()) {
    (void)env_.backend->perf_close(*fd);
    return make_error(StatusCode::kNoMemory, "group member array full");
  }
  group->members.push_back(static_cast<int>(ps.slots.size()));
  ps.slots.push_back(Slot{request, *fd});
  const Status installed = install_handler(ps.slots.back());
  if (!installed.is_ok()) {
    (void)env_.backend->perf_close(*fd);
    ps.slots.pop_back();
    group->members.pop_back();
    return installed;
  }
  map_ring(ps.slots.back());
  return installed;
}

Status PerfBackedComponent::close_all(ComponentState& state) {
  PerfState& ps = perf_state(state);
  ps.read_plan_valid = false;
  Status first_error = Status::ok();
  // Close siblings before leaders to avoid the kernel's sibling
  // promotion path.
  for (Group& group : ps.groups) {
    for (std::size_t i = group.members.size(); i-- > 1;) {
      Slot& slot = ps.slots[static_cast<std::size_t>(group.members[i])];
      if (slot.fd >= 0) {
        const Status s = env_.backend->perf_close(slot.fd);
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        slot.fd = -1;
      }
    }
    if (!group.members.empty()) {
      Slot& leader = ps.slots[static_cast<std::size_t>(group.members[0])];
      if (leader.fd >= 0) {
        const Status s = env_.backend->perf_close(leader.fd);
        if (!s.is_ok() && first_error.is_ok()) first_error = s;
        leader.fd = -1;
      }
    }
  }
  // Slots not reachable through a group (defensive; rollback paths close
  // through here too).
  for (Slot& slot : ps.slots) {
    if (slot.fd >= 0) {
      const Status s = env_.backend->perf_close(slot.fd);
      if (!s.is_ok() && first_error.is_ok()) first_error = s;
      slot.fd = -1;
    }
  }
  ps.groups.clear();
  ps.slots.clear();
  return first_error;
}

Status PerfBackedComponent::start(ComponentState& state) {
  // The multi-group fan-out at the heart of §IV-E: reset + enable every
  // PMU group belonging to this EventSet. A failure enabling group k
  // disables groups 0..k-1 again (best effort) so a failed start never
  // leaves counters silently running.
  PerfState& ps = perf_state(state);
  const int retries = env_.config->transient_retry_attempts;
  for (std::size_t g = 0; g < ps.groups.size(); ++g) {
    Status s = ioctl_with_retry(*env_.backend, ps.groups[g].leader_fd,
                                PerfIoctl::kReset, kIocFlagGroup, retries);
    if (s.is_ok()) {
      s = ioctl_with_retry(*env_.backend, ps.groups[g].leader_fd,
                           PerfIoctl::kEnable, kIocFlagGroup, retries);
    }
    if (!s.is_ok()) {
      for (std::size_t k = g; k-- > 0;) {
        (void)ioctl_with_retry(*env_.backend, ps.groups[k].leader_fd,
                               PerfIoctl::kDisable, kIocFlagGroup, retries);
      }
      return s;
    }
  }
  return Status::ok();
}

Status PerfBackedComponent::stop(ComponentState& state) {
  // Keep disabling the remaining groups after a failure — stop must
  // quiesce as much as it can; the first error is still reported.
  PerfState& ps = perf_state(state);
  const int retries = env_.config->transient_retry_attempts;
  Status first_error = Status::ok();
  for (const Group& group : ps.groups) {
    const Status s = ioctl_with_retry(*env_.backend, group.leader_fd,
                                      PerfIoctl::kDisable, kIocFlagGroup,
                                      retries);
    if (!s.is_ok() && first_error.is_ok()) first_error = s;
  }
  return first_error;
}

Status PerfBackedComponent::reset(ComponentState& state) {
  PerfState& ps = perf_state(state);
  const int retries = env_.config->transient_retry_attempts;
  for (const Group& group : ps.groups) {
    HETPAPI_RETURN_IF_ERROR(ioctl_with_retry(*env_.backend, group.leader_fd,
                                             PerfIoctl::kReset, kIocFlagGroup,
                                             retries));
  }
  return Status::ok();
}

void PerfBackedComponent::build_read_plan(const PerfState& ps) const {
  ps.read_plan.clear();
  ps.plan_members.clear();
  ps.plan_pages.clear();
  ps.read_plan.reserve(ps.groups.size());
  for (const Group& group : ps.groups) {
    ReadPlanEntry entry;
    entry.leader_fd = group.leader_fd;
    entry.member_begin = ps.plan_members.size();
    entry.member_count = group.members.size();
    // Classify every member — not just singletons — as rdpmc-servable:
    // the group goes to the page path iff each member's user page mapped
    // and advertises cap_user_rdpmc. Residency is NOT checked here; it
    // changes per tick and the per-read seqlock loop handles it.
    bool all_pages = env_.config->use_rdpmc && !group.members.empty();
    for (int member : group.members) {
      const Slot& slot = ps.slots[static_cast<std::size_t>(member)];
      ps.plan_members.push_back(slot.request.global_index);
      const simkernel::PerfUserPage* page = nullptr;
      if (env_.config->use_rdpmc) {
        if (auto mapped = env_.backend->perf_mmap_user_page(slot.fd)) {
          if (((*mapped)->capabilities & simkernel::kCapUserRdpmc) != 0) {
            page = *mapped;
          }
        }
      }
      ps.plan_pages.push_back(page);
      all_pages = all_pages && page != nullptr;
    }
    entry.rdpmc_group = all_pages;
    ps.read_plan.push_back(entry);
  }
}

Status PerfBackedComponent::read(const ComponentState& state, bool scale,
                                 std::vector<double>& values,
                                 std::vector<std::uint8_t>* valid) const {
  // Gather per-slot raw/scaled values across all groups. The fan-out
  // (which leader fds to read, where each returned value lands) is
  // pre-resolved into a read plan, built on first use and rebuilt only
  // after the slot layout changes.
  const PerfState& ps = perf_state(state);
  if (!ps.read_plan_valid) {
    build_read_plan(ps);
    ps.read_plan_valid = true;
  }

  const int retries = env_.config->transient_retry_attempts;
  const int page_retries = env_.config->rdpmc_max_retries;
  for (const ReadPlanEntry& entry : ps.read_plan) {
    // Fast path first (§V-5): every member served from its mmap'd user
    // page with the seqlock retry loop — no syscall, and scaled reads
    // take time_enabled/time_running from the page so a multiplexed
    // event returns the same scaled estimate as the fd path. Any member
    // that cannot be served (not resident: disabled, multiplexed out,
    // or migrated core types; rdpmc revoked; retries exhausted) sends
    // the WHOLE group to the fd path so group values stay mutually
    // consistent.
    if (entry.rdpmc_group) {
      bool served = true;
      for (std::size_t i = 0; i < entry.member_count; ++i) {
        const simkernel::PerfUserPage* page =
            ps.plan_pages[entry.member_begin + i];
        UserPageSample sample;
        if (read_user_page(*page, sample, page_retries) !=
            UserPageReadResult::kOk) {
          served = false;
          break;
        }
        double value = static_cast<double>(sample.value);
        if (scale) {
          PerfValue pv;
          pv.value = sample.value;
          pv.time_enabled_ns = sample.time_enabled_ns;
          pv.time_running_ns = sample.time_running_ns;
          value = pv.scaled();
        }
        values[ps.plan_members[entry.member_begin + i]] = value;
      }
      if (served) continue;  // partial writes are overwritten below
    }
    auto group_values =
        read_group_with_retry(*env_.backend, entry.leader_fd, retries);
    if (group_values && group_values->size() != entry.member_count) {
      group_values = make_error(StatusCode::kBug, "group read size mismatch");
    }
    if (!group_values) {
      // Strict callers abort the collection; tolerant callers degrade
      // this group's slots (value 0, validity cleared) and keep reading
      // the other groups — one dead counter costs one group, not the
      // whole EventSet.
      if (valid == nullptr) return group_values.status();
      for (std::size_t i = 0; i < entry.member_count; ++i) {
        const std::size_t slot = ps.plan_members[entry.member_begin + i];
        values[slot] = 0.0;
        (*valid)[slot] = 0;
      }
      continue;
    }
    for (std::size_t i = 0; i < entry.member_count; ++i) {
      const PerfValue& pv = (*group_values)[i];
      double value = static_cast<double>(pv.value);
      if (scale) value = pv.scaled();
      values[ps.plan_members[entry.member_begin + i]] = value;
    }
  }
  return Status::ok();
}

int PerfBackedComponent::group_count(const ComponentState& state) const {
  return static_cast<int>(perf_state(state).groups.size());
}

Status PerfBackedComponent::drain_samples(ComponentState& state,
                                          SampleBatch& batch) {
  PerfState& ps = perf_state(state);
  const int retries = env_.config->transient_retry_attempts;
  for (Slot& slot : ps.slots) {
    if (slot.request.sample_period == 0 || slot.fd < 0) continue;
    if (slot.ring_denied || !slot.ring_mapped) {
      // Counting-mode degradation: overflow callbacks still fire, but
      // there is no ring to drain.
      ++batch.rings_denied;
      continue;
    }

    // The wakeup surface is an advisory hint, never ground truth: the
    // drain trusts the ring's head/tail cursors. A transiently failing
    // poll retries within the budget; a persistent stall skips the slot
    // for this pass only — its records stay queued in the ring.
    bool wakeup = false;
    bool poll_answered = false;
    bool stalled = false;
    for (int attempt = 0; attempt < retries; ++attempt) {
      auto fired = env_.backend->perf_ring_poll(slot.fd);
      if (fired) {
        wakeup = *fired;
        poll_answered = true;
        break;
      }
      if (fired.status().code() != StatusCode::kInterrupted) {
        // Hard poll failure (e.g. a backend without a poll surface):
        // proceed straight to the ring, which is the source of truth.
        break;
      }
      stalled = true;
    }
    if (stalled && !poll_answered) {
      ++batch.drains_stalled;
      continue;
    }

    const std::uint64_t queued =
        slot.ring.page->data_head - slot.ring.page->data_tail;
    if (queued == 0) continue;
    if (poll_answered && !wakeup) {
      // Dropped wakeup: the hint said "nothing", the ring disagrees.
      // Drain anyway — only a reader that trusts poll over head/tail
      // can lose data here.
      ++batch.wakeups_missed;
    }

    simkernel::PerfRingCursor cursor(slot.ring);
    simkernel::PerfEventHeader header;
    std::uint8_t body[64];
    while (cursor.next(&header, body, sizeof body)) {
      const std::size_t body_size = header.size - sizeof(header);
      if (header.type == simkernel::kPerfRecordSample) {
        simkernel::PerfSampleParsed parsed;
        if (!simkernel::perf_parse_sample(slot.ring.sample_type, body,
                                          body_size, &parsed)) {
          ++batch.malformed;
          continue;
        }
        Sample sample;
        sample.eventset = slot.request.eventset_id;
        sample.user_event_index = slot.request.user_event_index;
        sample.native_name = slot.request.enc.canonical_name;
        sample.pmu_name = slot.request.enc.pmu_name;
        sample.ip = parsed.ip;
        sample.tid = parsed.tid;
        sample.time_ns = parsed.time;
        sample.cpu = static_cast<int>(parsed.cpu);
        sample.period = parsed.period;
        batch.samples.push_back(std::move(sample));
      } else if (header.type == simkernel::kPerfRecordLost) {
        simkernel::PerfLostParsed lost;
        if (simkernel::perf_parse_lost(body, body_size, &lost)) {
          batch.lost += lost.lost;
        } else {
          ++batch.malformed;
        }
      }
      // Unknown record types are skipped: forward ABI compatibility.
    }
    if (cursor.malformed()) ++batch.malformed;
    cursor.commit();
  }
  return Status::ok();
}

}  // namespace hetpapi::papi
