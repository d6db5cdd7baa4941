#include "harness/probes.hpp"

#include "harness/alloc_count.hpp"

namespace perfbench {

using hetpapi::Expected;
using hetpapi::Status;
namespace papi = hetpapi::papi;
namespace simkernel = hetpapi::simkernel;

// --- pfm::Host ---------------------------------------------------------------

Expected<std::string> ProbeHost::read_file(std::string_view path) const {
  const int span = tracer_.begin("pfm.read_file");
  auto result = inner_.read_file(path);
  tracer_.end(span);
  tracer_.add(Count::kHostReads);
  return result;
}

Expected<std::vector<std::string>> ProbeHost::list_dir(
    std::string_view path) const {
  const int span = tracer_.begin("pfm.list_dir");
  auto result = inner_.list_dir(path);
  tracer_.end(span);
  tracer_.add(Count::kHostReads);
  return result;
}

// --- papi::Backend -----------------------------------------------------------

template <typename Fn>
auto ProbeBackend::probe(const char* name, Count extra, Fn&& fn) {
  const int span = tracer_.begin(name);
  auto result = fn();
  tracer_.end(span);
  tracer_.add(Count::kBackendCalls);
  if (extra != Count::kNum) tracer_.add(extra);
  return result;
}

Expected<int> ProbeBackend::perf_event_open(const papi::PerfEventAttr& attr,
                                            papi::Tid tid, int cpu,
                                            int group_fd, std::uint64_t flags) {
  return probe("backend.perf_event_open", Count::kBackendOpens, [&] {
    return inner_.perf_event_open(attr, tid, cpu, group_fd, flags);
  });
}

Status ProbeBackend::perf_ioctl(int fd, papi::PerfIoctl op,
                                std::uint32_t flags) {
  return probe("backend.perf_ioctl", Count::kNum,
               [&] { return inner_.perf_ioctl(fd, op, flags); });
}

Expected<papi::PerfValue> ProbeBackend::perf_read(int fd) {
  return probe("backend.perf_read", Count::kBackendReads,
               [&] { return inner_.perf_read(fd); });
}

Expected<std::vector<papi::PerfValue>> ProbeBackend::perf_read_group(int fd) {
  return probe("backend.perf_read_group", Count::kBackendReads,
               [&] { return inner_.perf_read_group(fd); });
}

Expected<std::uint64_t> ProbeBackend::perf_rdpmc(int fd) {
  return probe("backend.perf_rdpmc", Count::kBackendReads,
               [&] { return inner_.perf_rdpmc(fd); });
}

Status ProbeBackend::perf_close(int fd) {
  return probe("backend.perf_close", Count::kBackendCloses,
               [&] { return inner_.perf_close(fd); });
}

Expected<const simkernel::PerfUserPage*> ProbeBackend::perf_mmap_user_page(
    int fd) {
  return probe("backend.perf_mmap_user_page", Count::kNum,
               [&] { return inner_.perf_mmap_user_page(fd); });
}

Status ProbeBackend::perf_set_overflow_handler(int fd,
                                               OverflowHandler handler) {
  return probe("backend.perf_set_overflow_handler", Count::kNum, [&] {
    return inner_.perf_set_overflow_handler(fd, std::move(handler));
  });
}

Expected<simkernel::PerfRingView> ProbeBackend::perf_mmap_ring(int fd) {
  return probe("backend.perf_mmap_ring", Count::kNum,
               [&] { return inner_.perf_mmap_ring(fd); });
}

Expected<bool> ProbeBackend::perf_ring_poll(int fd) {
  return probe("backend.perf_ring_poll", Count::kRingPolls,
               [&] { return inner_.perf_ring_poll(fd); });
}

void ProbeBackend::charge_call_overhead(papi::Tid tid,
                                        std::uint64_t instructions) {
  const int span = tracer_.begin("backend.charge_call_overhead");
  inner_.charge_call_overhead(tid, instructions);
  tracer_.end(span);
  tracer_.add(Count::kBackendCalls);
}

// --- service::Connection / Listener -----------------------------------------

Expected<std::size_t> ProbeConnection::send(const std::uint8_t* data,
                                            std::size_t size) {
  const int span = tracer_.begin("transport.send");
  auto sent = inner_->send(data, size);
  tracer_.end(span);
  tracer_.add(server_side_ ? Count::kServerSends : Count::kClientSends);
  if (sent.has_value()) {
    tracer_.add(server_side_ ? Count::kServerBytes : Count::kClientBytes,
                *sent);
  }
  return sent;
}

Expected<std::size_t> ProbeConnection::receive(std::vector<std::uint8_t>& out) {
  const int span = tracer_.begin("transport.receive");
  auto got = inner_->receive(out);
  tracer_.end(span);
  if (!server_side_) {
    tracer_.add(Count::kClientReceives);
    if (got.has_value()) tracer_.add(Count::kClientReceivedBytes, *got);
  }
  return got;
}

Expected<std::unique_ptr<hetpapi::service::Connection>>
ProbeListener::accept() {
  auto conn = inner_.accept();
  if (!conn.has_value()) return conn;
  // The wrapper is the probe's own cost, not the daemon's.
  const AllocPause pause;
  return std::unique_ptr<hetpapi::service::Connection>(
      std::make_unique<ProbeConnection>(std::move(*conn), tracer_,
                                        /*server_side=*/true));
}

}  // namespace perfbench
