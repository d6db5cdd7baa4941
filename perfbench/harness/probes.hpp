// Pass-through decorators on the program's two virtual seams, installed
// only in traced rounds. Each forwards every call unchanged to the
// object it wraps and, around it, records a span and the work it
// carried on the tracer:
//
//   ProbeBackend    papi::Backend — the seam into the simkernel perf
//                   subsystem; host() hands out a ProbeHost over the
//                   wrapped backend's pfm::Host (sysfs/procfs reads).
//   ProbeListener   service::Listener — wraps every accepted
//                   (daemon-side) connection in a ProbeConnection.
//   ProbeConnection service::Connection — wraps a daemon-side or a
//                   client-side endpoint.
#pragma once

#include <memory>

#include "harness/trace.hpp"
#include "papi/backend.hpp"
#include "pfm/host.hpp"
#include "service/transport.hpp"

namespace perfbench {

class ProbeHost final : public hetpapi::pfm::Host {
 public:
  ProbeHost(const hetpapi::pfm::Host& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  hetpapi::Expected<std::string> read_file(
      std::string_view path) const override;
  hetpapi::Expected<std::vector<std::string>> list_dir(
      std::string_view path) const override;
  hetpapi::Expected<hetpapi::cpumodel::IntelCoreKind> cpuid_core_kind(
      int cpu) const override {
    return inner_.cpuid_core_kind(cpu);
  }
  int num_cpus() const override { return inner_.num_cpus(); }

 private:
  const hetpapi::pfm::Host& inner_;
  Tracer& tracer_;
};

class ProbeBackend final : public hetpapi::papi::Backend {
 public:
  ProbeBackend(hetpapi::papi::Backend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), host_(inner.host(), tracer) {}

  hetpapi::Expected<int> perf_event_open(const hetpapi::papi::PerfEventAttr& attr,
                                         hetpapi::papi::Tid tid, int cpu,
                                         int group_fd,
                                         std::uint64_t flags) override;
  hetpapi::Status perf_ioctl(int fd, hetpapi::papi::PerfIoctl op,
                             std::uint32_t flags) override;
  hetpapi::Expected<hetpapi::papi::PerfValue> perf_read(int fd) override;
  hetpapi::Expected<std::vector<hetpapi::papi::PerfValue>> perf_read_group(
      int fd) override;
  hetpapi::Expected<std::uint64_t> perf_rdpmc(int fd) override;
  hetpapi::Status perf_close(int fd) override;
  hetpapi::Expected<const hetpapi::simkernel::PerfUserPage*>
  perf_mmap_user_page(int fd) override;
  hetpapi::Status perf_set_overflow_handler(int fd,
                                            OverflowHandler handler) override;
  hetpapi::Expected<hetpapi::simkernel::PerfRingView> perf_mmap_ring(
      int fd) override;
  hetpapi::Expected<bool> perf_ring_poll(int fd) override;
  const hetpapi::pfm::Host& host() const override { return host_; }
  bool supports_component(std::string_view name) const override {
    return inner_.supports_component(name);
  }
  hetpapi::papi::Tid default_target() const override {
    return inner_.default_target();
  }
  void charge_call_overhead(hetpapi::papi::Tid tid,
                            std::uint64_t instructions) override;

 private:
  /// Span + call count around one forwarded call; `extra` is the
  /// per-kind counter (kNum = none).
  template <typename Fn>
  auto probe(const char* name, Count extra, Fn&& fn);

  hetpapi::papi::Backend& inner_;
  Tracer& tracer_;
  ProbeHost host_;
};

class ProbeConnection final : public hetpapi::service::Connection {
 public:
  /// `server_side`: a daemon-side endpoint (sends count as server
  /// sends) rather than a client's.
  ProbeConnection(std::unique_ptr<hetpapi::service::Connection> inner,
                  Tracer& tracer, bool server_side)
      : inner_(std::move(inner)), tracer_(tracer), server_side_(server_side) {}

  hetpapi::Expected<std::size_t> send(const std::uint8_t* data,
                                      std::size_t size) override;
  hetpapi::Expected<std::size_t> receive(
      std::vector<std::uint8_t>& out) override;
  void close() override { inner_->close(); }
  bool is_open() const override { return inner_->is_open(); }

 private:
  std::unique_ptr<hetpapi::service::Connection> inner_;
  Tracer& tracer_;
  bool server_side_;
};

class ProbeListener final : public hetpapi::service::Listener {
 public:
  ProbeListener(hetpapi::service::Listener& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  hetpapi::Expected<std::unique_ptr<hetpapi::service::Connection>> accept()
      override;

 private:
  hetpapi::service::Listener& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
