// The benchmark's one call adapter: every call the workloads make into
// papi::Library, service::Daemon and service::Client goes through a
// member of Api, so an API change (one read entry point, one wire
// version) is one edit here. In a traced round the adapter records a
// span around each call and installs the probes (harness/probes.hpp) on
// the seams it hands out; in an untraced round it adds nothing.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/probes.hpp"
#include "harness/trace.hpp"
#include "papi/library.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/transport.hpp"

namespace perfbench {

class Api {
 public:
  /// `tracer` null = untraced: no spans, no probes.
  explicit Api(Tracer* tracer) : tracer_(tracer) {}
  Api(const Api&) = delete;
  Api& operator=(const Api&) = delete;

  Tracer* tracer() const { return tracer_; }

  // --- seams -----------------------------------------------------------------

  /// The backend the program should be given: `backend` itself, or a
  /// ProbeBackend over it (owned by this adapter).
  hetpapi::papi::Backend& backend(hetpapi::papi::Backend& backend);

  // --- papi::Library -----------------------------------------------------------

  hetpapi::Expected<std::unique_ptr<hetpapi::papi::Library>> init(
      hetpapi::papi::Backend& backend);
  hetpapi::Expected<int> create_eventset(hetpapi::papi::Library& lib);
  hetpapi::Status attach(hetpapi::papi::Library& lib, int set,
                         hetpapi::papi::Tid tid);
  hetpapi::Status add_event(hetpapi::papi::Library& lib, int set,
                            std::string_view name);
  hetpapi::Status set_multiplex(hetpapi::papi::Library& lib, int set);
  /// PAPI_overflow on the set's first event; records are drained with
  /// read_samples, so the callback does nothing.
  hetpapi::Status set_overflow(hetpapi::papi::Library& lib, int set,
                               std::uint64_t period);
  hetpapi::Status start(hetpapi::papi::Library& lib, int set);
  hetpapi::Expected<std::vector<long long>> stop(hetpapi::papi::Library& lib,
                                                 int set);
  hetpapi::Status destroy_eventset(hetpapi::papi::Library& lib, int set);
  /// One folded read of every event (the allocation-free entry point).
  hetpapi::Status read(hetpapi::papi::Library& lib, int set,
                       std::vector<long long>& out);
  /// One read with the per-core-type breakdown of every event.
  hetpapi::Status read_qualified(
      hetpapi::papi::Library& lib, int set,
      std::vector<hetpapi::papi::QualifiedReading>& out);
  hetpapi::Expected<hetpapi::papi::SampleBatch> read_samples(
      hetpapi::papi::Library& lib, int set);
  std::string core_type_for_pmu(hetpapi::papi::Library& lib,
                                std::string_view pmu);

  // --- service::Daemon / Client ------------------------------------------------

  hetpapi::Status init(hetpapi::service::Daemon& daemon);
  /// Serve `listener` (probed when traced).
  void listen(hetpapi::service::Daemon& daemon,
              hetpapi::service::Listener& listener);
  void tick(hetpapi::service::Daemon& daemon);
  void poll(hetpapi::service::Daemon& daemon);
  void shutdown(hetpapi::service::Daemon& daemon);
  /// A client over a fresh loopback connection (probed when traced);
  /// with `capture` it keeps every byte the daemon sends it.
  std::unique_ptr<hetpapi::service::Client> connect(
      hetpapi::service::LoopbackTransport& transport, bool capture = false);
  const std::vector<std::uint8_t>& captured_bytes(
      const hetpapi::service::Client& client);
  hetpapi::Status hello(hetpapi::service::Client& client,
                        const std::string& name);
  hetpapi::Expected<hetpapi::service::SubscribeAck> subscribe(
      hetpapi::service::Client& client,
      const hetpapi::service::Subscribe& spec);
  std::vector<hetpapi::service::WireSample> take_samples(
      hetpapi::service::Client& client);
  hetpapi::Status close(hetpapi::service::Client& client);

 private:
  /// Runs `fn` inside a span named `name` when traced.
  template <typename Fn>
  auto call(const char* name, Fn&& fn);

  Tracer* tracer_;
  std::vector<std::unique_ptr<ProbeBackend>> backends_;
  std::vector<std::unique_ptr<ProbeListener>> listeners_;
};

/// RAII span for a workload-level operation that groups several calls
/// (an eventset_churn region, a symbolisation pass). No-op untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), handle_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

}  // namespace perfbench
