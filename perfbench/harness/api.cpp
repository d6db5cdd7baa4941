#include "harness/api.hpp"

#include "harness/alloc_count.hpp"

namespace perfbench {

using hetpapi::Expected;
using hetpapi::Status;
namespace papi = hetpapi::papi;
namespace service = hetpapi::service;

template <typename Fn>
auto Api::call(const char* name, Fn&& fn) {
  if (tracer_ == nullptr) return fn();
  const ScopedSpan span(tracer_, name);
  return fn();
}

papi::Backend& Api::backend(papi::Backend& backend) {
  if (tracer_ == nullptr) return backend;
  const AllocPause pause;
  backends_.push_back(std::make_unique<ProbeBackend>(backend, *tracer_));
  return *backends_.back();
}

Expected<std::unique_ptr<papi::Library>> Api::init(papi::Backend& backend) {
  return call("papi.init", [&] { return papi::Library::init(&backend); });
}

Expected<int> Api::create_eventset(papi::Library& lib) {
  return call("papi.create_eventset", [&] { return lib.create_eventset(); });
}

Status Api::attach(papi::Library& lib, int set, papi::Tid tid) {
  return call("papi.attach", [&] { return lib.attach(set, tid); });
}

Status Api::add_event(papi::Library& lib, int set, std::string_view name) {
  return call("papi.add_event", [&] { return lib.add_event(set, name); });
}

Status Api::set_multiplex(papi::Library& lib, int set) {
  return call("papi.set_multiplex", [&] { return lib.set_multiplex(set); });
}

Status Api::set_overflow(papi::Library& lib, int set, std::uint64_t period) {
  return call("papi.set_overflow", [&] {
    return lib.set_overflow(set, 0, period, [](const papi::OverflowEvent&) {});
  });
}

Status Api::start(papi::Library& lib, int set) {
  return call("papi.start", [&] { return lib.start(set); });
}

Expected<std::vector<long long>> Api::stop(papi::Library& lib, int set) {
  return call("papi.stop", [&] { return lib.stop(set); });
}

Status Api::destroy_eventset(papi::Library& lib, int set) {
  return call("papi.destroy_eventset",
              [&] { return lib.destroy_eventset(set); });
}

Status Api::read(papi::Library& lib, int set, std::vector<long long>& out) {
  return call("papi.read", [&] { return lib.read_into(set, out); });
}

Status Api::read_qualified(papi::Library& lib, int set,
                           std::vector<papi::QualifiedReading>& out) {
  return call("papi.read_qualified",
              [&] { return lib.read_qualified_into(set, out); });
}

Expected<papi::SampleBatch> Api::read_samples(papi::Library& lib, int set) {
  return call("papi.read_samples", [&] { return lib.read_samples(set); });
}

std::string Api::core_type_for_pmu(papi::Library& lib, std::string_view pmu) {
  return call("papi.core_type_for_pmu",
              [&] { return lib.core_type_for_pmu(pmu); });
}

Status Api::init(service::Daemon& daemon) {
  return call("service.daemon.init", [&] { return daemon.init(); });
}

void Api::listen(service::Daemon& daemon, service::Listener& listener) {
  if (tracer_ == nullptr) {
    daemon.add_listener(&listener);
    return;
  }
  const AllocPause pause;
  listeners_.push_back(std::make_unique<ProbeListener>(listener, *tracer_));
  daemon.add_listener(listeners_.back().get());
}

void Api::tick(service::Daemon& daemon) {
  call("service.daemon.tick", [&] { daemon.tick(); });
}

void Api::poll(service::Daemon& daemon) {
  call("service.daemon.poll", [&] { daemon.poll(); });
}

void Api::shutdown(service::Daemon& daemon) {
  call("service.daemon.shutdown", [&] { daemon.shutdown(); });
}

std::unique_ptr<service::Client> Api::connect(
    service::LoopbackTransport& transport, bool capture) {
  std::unique_ptr<service::Connection> conn = transport.connect();
  if (tracer_ != nullptr) {
    const AllocPause pause;
    conn = std::make_unique<ProbeConnection>(std::move(conn), *tracer_,
                                             /*server_side=*/false);
  }
  auto client = std::make_unique<service::Client>(std::move(conn));
  client->set_capture_bytes(capture);
  return client;
}

const std::vector<std::uint8_t>& Api::captured_bytes(
    const service::Client& client) {
  return client.captured_bytes();
}

Status Api::hello(service::Client& client, const std::string& name) {
  return call("service.client.hello", [&] { return client.hello(name); });
}

Expected<service::SubscribeAck> Api::subscribe(service::Client& client,
                                               const service::Subscribe& spec) {
  return call("service.client.subscribe",
              [&] { return client.subscribe(spec); });
}

std::vector<service::WireSample> Api::take_samples(service::Client& client) {
  return call("service.client.take_samples",
              [&] { return client.take_samples(); });
}

Status Api::close(service::Client& client) {
  return call("service.client.close", [&] { return client.close(); });
}

}  // namespace perfbench
