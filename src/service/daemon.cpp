#include "service/daemon.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

#include "base/log.hpp"
#include "base/strings.hpp"

namespace hetpapi::service {

namespace {

/// One coalescing key: target kind/id, period, qualified flag, then the
/// ordered canonical event names. Order-sensitive by design — the
/// streamed value vector must match each subscriber's requested slot
/// order, so differently-ordered lists are distinct subscriptions.
std::string make_key(TargetKind kind, std::int64_t target,
                     std::uint32_t period_ticks, bool qualified,
                     const std::vector<std::string>& canonical_events) {
  std::string key = str_format("k%d|t%lld|p%u|q%d|",
                               static_cast<int>(kind),
                               static_cast<long long>(target), period_ticks,
                               qualified ? 1 : 0);
  for (const std::string& event : canonical_events) {
    key += event;
    key += '\x1f';
  }
  return key;
}

/// Overwrite the leading u32 subscription_id of an encoded frame
/// (4-byte length prefix + type byte, then the payload whose first
/// field every streamed sample type puts the subscription id in).
void patch_subscription_id(std::vector<std::uint8_t>& frame,
                           std::uint32_t subscription_id) {
  for (int i = 0; i < 4; ++i) {
    frame[5 + static_cast<std::size_t>(i)] =
        (subscription_id >> (8 * i)) & 0xffu;
  }
}

/// Overwrite the trailing u64 sequence number of a sample frame (both
/// sample types encode seq LAST for exactly this reason).
void patch_sequence_tail(std::vector<std::uint8_t>& frame, std::uint64_t seq) {
  const std::size_t base = frame.size() - 8;
  for (int i = 0; i < 8; ++i) {
    frame[base + static_cast<std::size_t>(i)] = (seq >> (8 * i)) & 0xffu;
  }
}

}  // namespace

Daemon::Daemon(simkernel::SimKernel* kernel, papi::Backend* backend,
               DaemonConfig config)
    : kernel_(kernel), backend_(backend), config_(std::move(config)) {}

Daemon::~Daemon() { shutdown(); }

Status Daemon::init() {
  auto lib = papi::Library::init(backend_, config_.library);
  if (!lib) return lib.status();
  library_ = std::move(*lib);
  if (config_.include_telemetry && kernel_ != nullptr) {
    sampler_ = std::make_unique<telemetry::Sampler>(kernel_);
    sampler_->reset();
  }
  if (config_.encode_threads > 1) {
    encode_pool_ = std::make_unique<ThreadPool>(config_.encode_threads);
  }
  shard_count_ = std::max<std::size_t>(1, config_.shards);
  return Status::ok();
}

void Daemon::add_listener(Listener* listener) {
  listeners_.push_back(listener);
}

void Daemon::add_downstream(std::unique_ptr<Client> client,
                            ConnectionFactory factory) {
  Downstream link;
  link.client = std::move(client);
  link.factory = std::move(factory);
  const Status s = link.client->hello(config_.name + "/downstream");
  link.alive = s.is_ok();
  if (!link.alive) {
    HETPAPI_WARN << "downstream handshake failed: " << s.message();
  }
  downstreams_.push_back(std::move(link));
}

std::size_t Daemon::session_count() const {
  std::size_t n = 0;
  for (const auto& client : clients_) n += client->sessions.size();
  return n;
}

std::size_t Daemon::total_subscriber_count() const {
  std::size_t n = 0;
  for (const auto& [key_id, sub] : shared_subs_) n += sub.subscribers.size();
  for (const auto& [key_id, agg] : agg_subs_) n += agg.subscribers.size();
  return n;
}

std::size_t Daemon::live_downstream_count() const {
  std::size_t n = 0;
  for (const Downstream& link : downstreams_) {
    if (link.alive && link.client->connected()) ++n;
  }
  return n;
}

// --- wire plumbing ---------------------------------------------------------

void Daemon::accept_pending() {
  for (Listener* listener : listeners_) {
    for (;;) {
      auto conn = listener->accept();
      if (!conn) break;
      if (config_.max_clients > 0 && clients_.size() >= config_.max_clients) {
        // Admission control: refuse at the door. The peer gets an
        // explicit kOverloaded plus a Goodbye (best effort — it may be
        // gone already) and no ClientState is ever created, so a
        // connection storm cannot grow daemon memory.
        ++stats_.overload_rejections;
        WireError err;
        err.code = static_cast<std::int32_t>(StatusCode::kOverloaded);
        err.in_reply_to = static_cast<std::uint8_t>(MsgType::kHello);
        err.message = "daemon at max_clients";
        const auto err_frame = encode_frame(MsgType::kError, err.encode());
        (void)(*conn)->send(err_frame.data(), err_frame.size());
        Goodbye bye;
        bye.reason = "refused: overloaded";
        const auto bye_frame = encode_frame(MsgType::kGoodbye, bye.encode());
        (void)(*conn)->send(bye_frame.data(), bye_frame.size());
        stats_.frames_sent += 2;
        (*conn)->close();
        continue;
      }
      auto client = std::make_unique<ClientState>();
      client->id = next_client_id_++;
      client->shard = client->id % shard_count_;
      client->conn = std::move(*conn);
      client->last_activity_tick = stats_.ticks;
      clients_by_id_.emplace(client->id, client.get());
      clients_.push_back(std::move(client));
    }
  }
}

void Daemon::enqueue(ClientState& client, MsgType type,
                     const std::vector<std::uint8_t>& payload) {
  client.out.push_back({encode_frame(type, payload), 0});
  ++stats_.frames_sent;
}

void Daemon::enqueue_error(ClientState& client, MsgType in_reply_to,
                           const Status& s) {
  WireError err;
  err.code = static_cast<std::int32_t>(s.code());
  err.in_reply_to = static_cast<std::uint8_t>(in_reply_to);
  err.message = s.message();
  enqueue(client, MsgType::kError, err.encode());
}

void Daemon::flush_client(ClientState& client, std::size_t max_ops) {
  if (!client.conn->is_open()) {
    client.out.clear();
    return;
  }
  std::size_t ops = 0;
  while (!client.out.empty()) {
    if (max_ops > 0 && ops >= max_ops) return;  // deadline; caller moves on
    PendingBytes& front = client.out.front();
    auto sent = client.conn->send(front.bytes.data() + front.offset,
                                  front.bytes.size() - front.offset);
    if (!sent) {  // peer gone
      teardown_client(client);
      client.conn->close();
      return;
    }
    if (*sent == 0) return;  // would block; retry next poll/tick
    ++ops;
    front.offset += *sent;
    if (front.offset >= front.bytes.size()) client.out.pop_front();
  }
  if (client.closing) client.conn->close();
}

void Daemon::enforce_queue_cap(ClientState& client) {
  if (client.closing || client.out.size() <= config_.max_client_queue_frames) {
    return;
  }
  // Slow-client drop: releasing its subscriptions keeps one wedged
  // consumer from growing daemon memory without bound or stalling the
  // shared tick. One best-effort Goodbye, then the connection dies.
  ++stats_.clients_dropped_slow;
  teardown_client(client);
  client.out.clear();
  Goodbye bye;
  bye.reason = "dropped: send queue overflow (slow client)";
  const auto frame = encode_frame(MsgType::kGoodbye, bye.encode());
  (void)client.conn->send(frame.data(), frame.size());
  ++stats_.frames_sent;
  client.conn->close();
}

void Daemon::reap_closed() {
  std::erase_if(clients_, [&](const std::unique_ptr<ClientState>& client) {
    if (client->conn->is_open()) return false;
    teardown_client(*client);
    clients_by_id_.erase(client->id);
    return true;
  });
}

void Daemon::drain_client(ClientState& client) {
  std::vector<std::uint8_t> bytes;
  for (;;) {
    auto n = client.conn->receive(bytes);
    if (!n) {  // peer closed or transport error
      teardown_client(client);
      client.conn->close();
      return;
    }
    if (*n == 0) break;
  }
  if (!bytes.empty()) {
    client.reader.feed(bytes);
    client.last_activity_tick = stats_.ticks;
    // Inbound traffic is proof of life: cancel any outstanding ping.
    client.ping_outstanding = false;
    client.pings_missed = 0;
  }
  for (;;) {
    auto frame = client.reader.next();
    if (!frame) {
      if (client.reader.corrupt()) {
        ++stats_.protocol_errors;
        teardown_client(client);
        client.conn->close();
      }
      return;
    }
    dispatch(client, *frame);
    if (!client.conn->is_open()) return;
  }
}

void Daemon::dispatch(ClientState& client, const Frame& frame) {
  ++stats_.frames_received;
  if (!client.hello_done && frame.type != MsgType::kHello) {
    ++stats_.protocol_errors;
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kPermission,
                             "handshake required before " +
                                 std::string(to_string(frame.type))));
    client.closing = true;
    return;
  }
  switch (frame.type) {
    case MsgType::kHello: on_hello(client, frame); return;
    case MsgType::kOpenSession: on_open_session(client, frame); return;
    case MsgType::kAddEvents: on_add_events(client, frame); return;
    case MsgType::kStart: on_start(client, frame); return;
    case MsgType::kRead: on_read(client, frame); return;
    case MsgType::kSubscribe: on_subscribe(client, frame); return;
    case MsgType::kSubscribeAggregate:
      on_subscribe_aggregate(client, frame);
      return;
    case MsgType::kUnsubscribe: on_unsubscribe(client, frame); return;
    case MsgType::kGetStats: on_get_stats(client, frame); return;
    case MsgType::kClose: on_close(client, frame); return;
    case MsgType::kPing: {  // liveness probe from the client: echo it
      auto msg = Ping::decode(frame);
      if (!msg) {
        ++stats_.protocol_errors;
        enqueue_error(client, frame.type, msg.status());
        return;
      }
      Pong pong;
      pong.token = msg->token;
      enqueue(client, MsgType::kPong, pong.encode());
      return;
    }
    case MsgType::kPong: {  // answer to OUR probe; drain_client already
      auto msg = Pong::decode(frame);  // reset the miss counters
      if (!msg) {
        ++stats_.protocol_errors;
        enqueue_error(client, frame.type, msg.status());
      }
      return;
    }
    default:
      ++stats_.protocol_errors;
      enqueue_error(client, frame.type,
                    make_error(StatusCode::kNotSupported,
                               "unexpected message type"));
      return;
  }
}

// --- handlers --------------------------------------------------------------

void Daemon::on_hello(ClientState& client, const Frame& frame) {
  auto msg = Hello::decode(frame);
  if (!msg) {
    ++stats_.protocol_errors;
    enqueue_error(client, frame.type, msg.status());
    client.closing = true;
    return;
  }
  if (msg->version != kProtocolVersion) {
    ++stats_.protocol_errors;
    enqueue_error(
        client, frame.type,
        make_error(StatusCode::kNotSupported,
                   str_format("protocol version %u not supported (daemon "
                              "speaks %u)",
                              msg->version, kProtocolVersion)));
    client.closing = true;
    return;
  }
  client.hello_done = true;
  HelloAck ack;
  ack.client_id = client.id;
  ack.server_name = config_.name;
  ack.epoch = config_.epoch;
  enqueue(client, MsgType::kHelloAck, ack.encode());
}

Expected<int> Daemon::build_eventset(TargetKind kind, std::int64_t target,
                                     const std::vector<std::string>& events,
                                     std::vector<std::string>* canonical_out) {
  auto set = library_->create_eventset();
  if (!set) return set.status();
  const auto fail = [&](const Status& s) -> Expected<int> {
    (void)library_->destroy_eventset(*set);
    return s;
  };
  switch (kind) {
    case TargetKind::kDefault: break;
    case TargetKind::kThread: {
      const Status s =
          library_->attach(*set, static_cast<simkernel::Tid>(target));
      if (!s.is_ok()) return fail(s);
      break;
    }
    case TargetKind::kCpu: {
      const Status s = library_->attach_cpu(*set, static_cast<int>(target));
      if (!s.is_ok()) return fail(s);
      break;
    }
  }
  for (const std::string& event : events) {
    auto canonical = library_->canonical_event_name(event);
    if (!canonical) return fail(canonical.status());
    const Status added = library_->add_event(*set, event);
    if (!added.is_ok()) return fail(added);
    if (canonical_out != nullptr) canonical_out->push_back(std::move(*canonical));
  }
  return *set;
}

void Daemon::on_open_session(ClientState& client, const Frame& frame) {
  auto msg = OpenSession::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  auto set = build_eventset(msg->target_kind, msg->target, {}, nullptr);
  if (!set) {
    enqueue_error(client, frame.type, set.status());
    return;
  }
  Session session;
  session.eventset = *set;
  const std::uint32_t session_id = next_session_id_++;
  client.sessions.emplace(session_id, std::move(session));
  OpenSessionAck ack;
  ack.session_id = session_id;
  enqueue(client, MsgType::kOpenSessionAck, ack.encode());
}

void Daemon::on_add_events(ClientState& client, const Frame& frame) {
  auto msg = AddEvents::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  const auto it = client.sessions.find(msg->session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  Session& session = it->second;
  // Atomic add: either every event in the request lands or none does.
  AddEventsAck ack;
  std::size_t added = 0;
  Status failure = Status::ok();
  for (const std::string& event : msg->events) {
    auto canonical = library_->canonical_event_name(event);
    if (canonical) {
      const Status s = library_->add_event(session.eventset, event);
      if (s.is_ok()) {
        ack.canonical_names.push_back(std::move(*canonical));
        ++added;
        continue;
      }
      failure = s;
    } else {
      failure = canonical.status();
    }
    for (std::size_t i = added; i-- > 0;) {
      (void)library_->remove_event(session.eventset, msg->events[i]);
    }
    enqueue_error(client, frame.type, failure);
    return;
  }
  session.canonical_names.insert(session.canonical_names.end(),
                                 ack.canonical_names.begin(),
                                 ack.canonical_names.end());
  enqueue(client, MsgType::kAddEventsAck, ack.encode());
}

void Daemon::on_start(ClientState& client, const Frame& frame) {
  auto msg = Start::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  const auto it = client.sessions.find(msg->session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  const Status s = library_->start(it->second.eventset);
  if (!s.is_ok()) {
    enqueue_error(client, frame.type, s);
    return;
  }
  enqueue(client, MsgType::kStartAck, {});
}

void Daemon::on_read(ClientState& client, const Frame& frame) {
  auto msg = Read::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  const auto it = client.sessions.find(msg->session_id);
  if (it == client.sessions.end()) {
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kNoEventSet, "no such session"));
    return;
  }
  ReadReply reply;
  const Status read =
      library_->read_into(it->second.eventset, reply.values, &reply.degraded);
  if (!read.is_ok()) {
    enqueue_error(client, frame.type, read);
    return;
  }
  ++stats_.backend_reads;
  enqueue(client, MsgType::kReadReply, reply.encode());
}

void Daemon::on_subscribe(ClientState& client, const Frame& frame) {
  auto msg = Subscribe::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  if (msg->period_ticks == 0 || msg->events.empty()) {
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kInvalidArgument,
                             "subscription needs events and period >= 1"));
    return;
  }
  if (config_.max_subscriptions > 0 &&
      client.subscriptions.size() + client.agg_subscriptions.size() >=
          config_.max_subscriptions) {
    ++stats_.overload_rejections;
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kOverloaded,
                             "client at max_subscriptions"));
    return;
  }
  const std::uint32_t sub_id = next_subscription_id_++;
  auto key_id = join_subscription(client, sub_id, *msg, /*aggregate=*/false);
  if (!key_id) {
    enqueue_error(client, frame.type, key_id.status());
    return;
  }
  client.subscriptions.emplace(sub_id, *key_id);
  SubscribeAck ack;
  ack.subscription_id = sub_id;
  ack.shared_key_id = *key_id;
  enqueue(client, MsgType::kSubscribeAck, ack.encode());
}

void Daemon::on_subscribe_aggregate(ClientState& client, const Frame& frame) {
  auto msg = AggSubscribe::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  if (msg->period_ticks == 0 || msg->events.empty()) {
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kInvalidArgument,
                             "aggregate needs events and period >= 1"));
    return;
  }
  if (config_.max_subscriptions > 0 &&
      client.subscriptions.size() + client.agg_subscriptions.size() >=
          config_.max_subscriptions) {
    ++stats_.overload_rejections;
    enqueue_error(client, frame.type,
                  make_error(StatusCode::kOverloaded,
                             "client at max_subscriptions"));
    return;
  }
  const std::uint32_t sub_id = next_subscription_id_++;
  if (downstreams_.empty()) {
    // Leaf daemon: the aggregate rides the same coalesced qualified
    // shared subscription a plain Subscribe would create, so its
    // statistics are the local read verbatim (count=1, σ=0) and it
    // coalesces with direct subscribers onto one EventSet.
    Subscribe local;
    local.target_kind = msg->target_kind;
    local.target = msg->target;
    local.events = msg->events;
    local.period_ticks = msg->period_ticks;
    local.qualified = 1;
    auto key_id = join_subscription(client, sub_id, local, /*aggregate=*/true);
    if (!key_id) {
      enqueue_error(client, frame.type, key_id.status());
      return;
    }
    client.subscriptions.emplace(sub_id, *key_id);
    AggSubscribeAck ack;
    ack.subscription_id = sub_id;
    ack.shared_key_id = *key_id;
    ack.fanin = 1;
    enqueue(client, MsgType::kSubscribeAggregateAck, ack.encode());
    return;
  }
  auto key_id = join_aggregate(client, sub_id, *msg);
  if (!key_id) {
    enqueue_error(client, frame.type, key_id.status());
    return;
  }
  client.agg_subscriptions.emplace(sub_id, *key_id);
  const AggregateShared& agg = agg_subs_.at(*key_id);
  AggSubscribeAck ack;
  ack.subscription_id = sub_id;
  ack.shared_key_id = *key_id;
  for (const DownstreamState& st : agg.downstream) {
    if (st.sub_id != 0) ++ack.fanin;
  }
  enqueue(client, MsgType::kSubscribeAggregateAck, ack.encode());
}

Expected<std::uint32_t> Daemon::join_subscription(ClientState& client,
                                                  std::uint32_t subscription_id,
                                                  const Subscribe& spec,
                                                  bool aggregate) {
  std::vector<std::string> canonical;
  canonical.reserve(spec.events.size());
  for (const std::string& event : spec.events) {
    auto name = library_->canonical_event_name(event);
    if (!name) return name.status();
    canonical.push_back(std::move(*name));
  }
  const std::string key = make_key(spec.target_kind, spec.target,
                                   spec.period_ticks, spec.qualified != 0,
                                   canonical);
  if (const auto it = key_ids_.find(key); it != key_ids_.end()) {
    shared_subs_[it->second].subscribers.push_back(
        {client.id, subscription_id, aggregate});
    return it->second;
  }
  auto set = build_eventset(spec.target_kind, spec.target, spec.events,
                            nullptr);
  if (!set) return set.status();
  if (const Status s = library_->start(*set); !s.is_ok()) {
    (void)library_->destroy_eventset(*set);
    return s;
  }
  SharedSubscription sub;
  sub.key_id = next_key_id_++;
  sub.key = key;
  sub.eventset = *set;
  sub.period_ticks = spec.period_ticks;
  sub.qualified = spec.qualified != 0;
  sub.subscribers.push_back({client.id, subscription_id, aggregate});
  key_ids_.emplace(key, sub.key_id);
  const std::uint32_t key_id = sub.key_id;
  shared_subs_.emplace(key_id, std::move(sub));
  return key_id;
}

void Daemon::leave_subscription(std::uint32_t client_id, std::uint32_t sub_id,
                                std::uint32_t key_id) {
  const auto it = shared_subs_.find(key_id);
  if (it == shared_subs_.end()) return;
  SharedSubscription& sub = it->second;
  std::erase_if(sub.subscribers, [&](const Rider& rider) {
    return rider.client_id == client_id && rider.subscription_id == sub_id;
  });
  if (!sub.subscribers.empty()) return;
  // Last rider gone: tear the shared EventSet down. Force-destroy so a
  // backend fault during stop can never pin the set's fds.
  (void)library_->force_destroy_eventset(sub.eventset);
  key_ids_.erase(sub.key);
  shared_subs_.erase(it);
}

Expected<std::uint32_t> Daemon::join_aggregate(ClientState& client,
                                               std::uint32_t subscription_id,
                                               const AggSubscribe& spec) {
  std::vector<std::string> canonical;
  canonical.reserve(spec.events.size());
  for (const std::string& event : spec.events) {
    auto name = library_->canonical_event_name(event);
    if (!name) return name.status();
    canonical.push_back(std::move(*name));
  }
  const std::string key =
      "agg|" + make_key(spec.target_kind, spec.target, spec.period_ticks,
                        /*qualified=*/true, canonical);
  if (const auto it = agg_key_ids_.find(key); it != agg_key_ids_.end()) {
    agg_subs_[it->second].subscribers.push_back(
        {client.id, subscription_id, true});
    return it->second;
  }
  AggregateShared agg;
  agg.key = key;
  agg.spec = spec;
  agg.period_ticks = spec.period_ticks;
  agg.slot_count = canonical.size();
  agg.downstream.resize(downstreams_.size());
  std::size_t accepted = 0;
  for (std::size_t d = 0; d < downstreams_.size(); ++d) {
    Downstream& link = downstreams_[d];
    if (!link.alive || !link.client->connected()) continue;
    auto ack = link.client->subscribe_aggregate(spec);
    if (!ack) {
      // A refusing or faulting downstream is skipped, not fatal — its
      // siblings still feed the merge (the sample just reads
      // incomplete). A dead link stops being pumped entirely.
      if (!link.client->connected()) link.alive = false;
      continue;
    }
    agg.downstream[d].sub_id = ack->subscription_id;
    ++accepted;
  }
  if (accepted == 0) {
    return make_error(StatusCode::kNotRunning,
                      "no live downstream accepted the aggregate");
  }
  agg.key_id = next_agg_key_id_++;
  agg.subscribers.push_back({client.id, subscription_id, true});
  agg_key_ids_.emplace(key, agg.key_id);
  const std::uint32_t key_id = agg.key_id;
  agg_subs_.emplace(key_id, std::move(agg));
  return key_id;
}

void Daemon::leave_aggregate(std::uint32_t client_id, std::uint32_t sub_id,
                             std::uint32_t key_id) {
  const auto it = agg_subs_.find(key_id);
  if (it == agg_subs_.end()) return;
  AggregateShared& agg = it->second;
  std::erase_if(agg.subscribers, [&](const Rider& rider) {
    return rider.client_id == client_id && rider.subscription_id == sub_id;
  });
  if (!agg.subscribers.empty()) return;
  // Last rider gone: release the downstream legs.
  for (std::size_t d = 0; d < downstreams_.size(); ++d) {
    if (d >= agg.downstream.size() || agg.downstream[d].sub_id == 0) continue;
    Downstream& link = downstreams_[d];
    if (link.alive && link.client->connected()) {
      (void)link.client->unsubscribe(agg.downstream[d].sub_id);
    }
  }
  agg_key_ids_.erase(agg.key);
  agg_subs_.erase(it);
}

void Daemon::on_unsubscribe(ClientState& client, const Frame& frame) {
  auto msg = Unsubscribe::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  if (const auto it = client.subscriptions.find(msg->subscription_id);
      it != client.subscriptions.end()) {
    leave_subscription(client.id, it->first, it->second);
    client.subscriptions.erase(it);
    enqueue(client, MsgType::kUnsubscribeAck, {});
    return;
  }
  if (const auto it = client.agg_subscriptions.find(msg->subscription_id);
      it != client.agg_subscriptions.end()) {
    leave_aggregate(client.id, it->first, it->second);
    client.agg_subscriptions.erase(it);
    enqueue(client, MsgType::kUnsubscribeAck, {});
    return;
  }
  enqueue_error(client, frame.type,
                make_error(StatusCode::kNotFound, "no such subscription"));
}

void Daemon::on_get_stats(ClientState& client, const Frame& frame) {
  auto msg = GetStats::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  StatsReply reply;
  reply.ticks = stats_.ticks;
  reply.backend_reads = stats_.backend_reads;
  reply.samples_delivered = stats_.samples_delivered;
  reply.frames_received = stats_.frames_received;
  reply.frames_sent = stats_.frames_sent;
  reply.active_clients = static_cast<std::uint32_t>(clients_.size());
  reply.active_sessions = static_cast<std::uint32_t>(session_count());
  reply.distinct_subscriptions =
      static_cast<std::uint32_t>(shared_subs_.size());
  reply.total_subscribers =
      static_cast<std::uint32_t>(total_subscriber_count());
  reply.clients_dropped_slow = stats_.clients_dropped_slow;
  reply.clients_closed_idle = stats_.clients_closed_idle;
  reply.shards = static_cast<std::uint32_t>(shard_count_);
  reply.downstreams = static_cast<std::uint32_t>(downstreams_.size());
  reply.agg_subscriptions = static_cast<std::uint32_t>(agg_subs_.size());
  reply.agg_samples_delivered = stats_.agg_samples_delivered;
  enqueue(client, MsgType::kStatsReply, reply.encode());
}

void Daemon::on_close(ClientState& client, const Frame& frame) {
  auto msg = Close::decode(frame);
  if (!msg) {
    enqueue_error(client, frame.type, msg.status());
    return;
  }
  teardown_client(client);
  enqueue(client, MsgType::kCloseAck, {});
  client.closing = true;
}

void Daemon::teardown_client(ClientState& client) {
  for (const auto& [sub_id, key_id] : client.subscriptions) {
    leave_subscription(client.id, sub_id, key_id);
  }
  client.subscriptions.clear();
  for (const auto& [sub_id, key_id] : client.agg_subscriptions) {
    leave_aggregate(client.id, sub_id, key_id);
  }
  client.agg_subscriptions.clear();
  for (const auto& [session_id, session] : client.sessions) {
    (void)library_->force_destroy_eventset(session.eventset);
  }
  client.sessions.clear();
}

// --- the two drive shafts --------------------------------------------------

void Daemon::poll() {
  if (library_ == nullptr || shut_down_) return;
  accept_pending();
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    drain_client(*client);
  }
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    enforce_queue_cap(*client);
    flush_client(*client);
  }
  reap_closed();
}

void Daemon::deliver(const std::vector<std::vector<std::uint8_t>>& templates,
                     const std::vector<Delivery>& deliveries) {
  if (deliveries.empty()) return;
  // Bucket by shard. Each client lives in exactly one shard, so the
  // parallel stage below never touches a client from two jobs, and the
  // per-client enqueue order still follows the global delivery order —
  // which is why the byte stream is shard-count invariant.
  std::vector<std::vector<const Delivery*>> by_shard(shard_count_);
  for (const Delivery& d : deliveries) {
    const auto it = clients_by_id_.find(d.client_id);
    if (it == clients_by_id_.end()) continue;
    by_shard[it->second->shard].push_back(&d);
  }
  struct ShardCounters {
    std::uint64_t frames = 0;
    std::uint64_t samples = 0;
    std::uint64_t agg_samples = 0;
  };
  std::vector<ShardCounters> counters(shard_count_);
  const auto run_shard = [&](std::size_t s) {
    for (const Delivery* d : by_shard[s]) {
      ClientState* client = clients_by_id_.find(d->client_id)->second;
      std::vector<std::uint8_t> frame = templates[d->template_index];
      patch_subscription_id(frame, d->subscription_id);
      patch_sequence_tail(frame, d->seq);
      client->out.push_back({std::move(frame), 0});
      ++counters[s].frames;
      if (d->aggregate) {
        ++counters[s].agg_samples;
      } else {
        ++counters[s].samples;
      }
    }
  };
  if (encode_pool_ != nullptr) {
    encode_pool_->parallel_for_each(shard_count_, run_shard);
  } else {
    for (std::size_t s = 0; s < shard_count_; ++s) run_shard(s);
  }
  // Serial merge: fold the shard-local counters in shard order so the
  // totals never depend on scheduling.
  for (const ShardCounters& c : counters) {
    stats_.frames_sent += c.frames;
    stats_.samples_delivered += c.samples;
    stats_.agg_samples_delivered += c.agg_samples;
  }
}

void Daemon::serve_subscriptions() {
  struct DueRead {
    SharedSubscription* sub;
    std::vector<long long> values;
    std::vector<std::uint8_t> degraded;
    std::vector<std::vector<std::pair<std::string, long long>>> parts;
    std::uint8_t ok = 1;
  };
  std::vector<DueRead> due;
  for (auto& [key_id, sub] : shared_subs_) {
    if (stats_.ticks % sub.period_ticks == 0) due.push_back({&sub, {}, {}, {}, 1});
  }
  if (due.empty()) return;

  const double t_seconds =
      kernel_ != nullptr ? kernel_->now().seconds()
                         : static_cast<double>(stats_.ticks);
  double temp = std::nan("");
  double power = std::nan("");
  if (sampler_ != nullptr) {
    const telemetry::Sample s = sampler_->sample();
    temp = s.package_temp_c;
    power = s.package_power_w;
  }

  // The coalescing payoff: ONE backend read per distinct subscription,
  // regardless of how many clients ride it. Reads stay serial — the
  // backend is not a concurrent structure.
  for (DueRead& read : due) {
    ++stats_.backend_reads;
    if (read.sub->qualified) {
      const Status status = library_->read_qualified_into(
          read.sub->eventset, qualified_scratch_);
      if (!status.is_ok()) {
        read.ok = 0;
        continue;
      }
      for (const papi::QualifiedReading& slot : qualified_scratch_) {
        read.values.push_back(slot.total);
        read.degraded.push_back(slot.degraded ? 1 : 0);
        std::vector<std::pair<std::string, long long>> parts;
        parts.reserve(slot.parts.size());
        for (const papi::QualifiedValue& part : slot.parts) {
          parts.emplace_back(part.core_type.empty()
                                 ? part.native_name
                                 : part.native_name + "[" + part.core_type +
                                       "]",
                             part.valid ? part.value : 0);
        }
        read.parts.push_back(std::move(parts));
      }
    } else {
      const Status status = library_->read_into(read.sub->eventset,
                                                read.values, &read.degraded);
      if (!status.is_ok()) read.ok = 0;
    }
  }

  // Batched fan-out: ONE template frame per due read per message type
  // (the subscription id — the first payload field — is patched per
  // rider at delivery, as is the trailing sequence number), instead of
  // a full encode per subscriber. Template slots 2*i + {0,1} hold read
  // i's WireSample / AggSample rendition; a type no rider wants stays
  // empty. Encoding is pure, so it parallelizes across due reads.
  std::vector<std::vector<std::uint8_t>> templates(due.size() * 2);
  const auto encode_templates = [&](std::size_t i) {
    const DueRead& read = due[i];
    bool want_sample = false;
    bool want_agg = false;
    for (const Rider& rider : read.sub->subscribers) {
      (rider.aggregate ? want_agg : want_sample) = true;
    }
    if (want_sample) {
      WireSample sample;
      sample.subscription_id = 0;  // patched per rider
      sample.seq = 0;              // patched per rider
      sample.tick = stats_.ticks;
      sample.t_seconds = t_seconds;
      sample.values = read.values;
      sample.degraded = read.degraded;
      sample.counters_ok = read.ok;
      sample.package_temp_c = temp;
      sample.package_power_w = power;
      sample.parts = read.parts;
      templates[2 * i] = encode_frame(MsgType::kSample, sample.encode());
    }
    if (want_agg) {
      // The leaf rendition of the aggregate stream: one contributor,
      // so every statistic collapses onto the local reading.
      AggSample agg;
      agg.subscription_id = 0;  // patched per rider
      agg.seq = 0;              // patched per rider
      agg.tick = stats_.ticks;
      agg.t_seconds = t_seconds;
      agg.complete = read.ok;
      agg.slots.resize(read.values.size());
      for (std::size_t s = 0; s < read.values.size(); ++s) {
        SlotStats& slot = agg.slots[s];
        slot.sum = slot.min = slot.max = read.values[s];
        slot.avg = static_cast<double>(read.values[s]);
        slot.stddev = 0.0;
        slot.count = 1;
        if (s < read.parts.size()) slot.per_core_type = read.parts[s];
        std::sort(slot.per_core_type.begin(), slot.per_core_type.end());
      }
      templates[2 * i + 1] = encode_frame(MsgType::kAggSample, agg.encode());
    }
  };
  if (encode_pool_ != nullptr) {
    encode_pool_->parallel_for_each(due.size(), encode_templates);
  } else {
    for (std::size_t i = 0; i < due.size(); ++i) encode_templates(i);
  }

  // Sequence numbers are bumped HERE, serially, in the same global
  // (key_id, subscribe order) the delivery list has always used — so
  // they are deterministic for any shard/thread count.
  std::vector<Delivery> deliveries;
  for (std::size_t i = 0; i < due.size(); ++i) {
    for (Rider& rider : due[i].sub->subscribers) {
      ++rider.seq;
      deliveries.push_back({rider.client_id, rider.subscription_id,
                            2 * i + (rider.aggregate ? 1 : 0),
                            rider.aggregate, rider.seq});
    }
  }
  deliver(templates, deliveries);
}

AggSample Daemon::merge_aggregate(const AggregateShared& agg) const {
  AggSample out;
  out.complete = 1;
  out.slots.resize(agg.slot_count);
  // A leg contributes its latest sample while its link is alive — a
  // slow ticker's slightly stale value is still the truth of that
  // subtree. A DEAD link is excluded entirely: folding its frozen
  // last sample into every future merge would double-count against
  // the live siblings' fresh values.
  const auto leg_alive = [&](std::size_t d) {
    return agg.downstream[d].sub_id != 0 && d < downstreams_.size() &&
           downstreams_[d].alive;
  };
  // complete means: every configured downstream leg is live, reported
  // inside this merge window, and was itself complete. A dead leg or a
  // stale contribution degrades the sample, never blocks it.
  for (std::size_t d = 0; d < agg.downstream.size(); ++d) {
    const DownstreamState& st = agg.downstream[d];
    if (!leg_alive(d) || !st.reported || !st.fresh || !st.latest.complete) {
      out.complete = 0;
    }
  }
  for (std::size_t s = 0; s < agg.slot_count; ++s) {
    SlotStats& slot = out.slots[s];
    // First pass: totals and extrema.
    std::uint64_t count = 0;
    long long mn = LLONG_MAX;
    long long mx = LLONG_MIN;
    std::map<std::string, long long> parts;
    for (std::size_t d = 0; d < agg.downstream.size(); ++d) {
      const DownstreamState& st = agg.downstream[d];
      if (!leg_alive(d) || !st.reported) continue;
      if (s >= st.latest.slots.size()) continue;
      const SlotStats& child = st.latest.slots[s];
      if (child.count == 0) continue;
      slot.sum += child.sum;
      count += child.count;
      mn = std::min(mn, child.min);
      mx = std::max(mx, child.max);
      for (const auto& [label, value] : child.per_core_type) {
        parts[label] += value;
      }
    }
    if (count == 0) continue;
    slot.count = static_cast<std::uint32_t>(count);
    slot.min = mn;
    slot.max = mx;
    slot.avg = static_cast<double>(slot.sum) / static_cast<double>(count);
    // Second pass: exact population-σ composition — combining each
    // child's variance with its mean's offset from the merged mean
    // reproduces the flat gather's σ, so a two-level tree reports the
    // same statistics as one daemon over all the leaves.
    double weighted_var = 0.0;
    for (std::size_t d = 0; d < agg.downstream.size(); ++d) {
      const DownstreamState& st = agg.downstream[d];
      if (!leg_alive(d) || !st.reported) continue;
      if (s >= st.latest.slots.size()) continue;
      const SlotStats& child = st.latest.slots[s];
      if (child.count == 0) continue;
      const double delta = child.avg - slot.avg;
      weighted_var += static_cast<double>(child.count) *
                      (child.stddev * child.stddev + delta * delta);
    }
    slot.stddev = std::sqrt(weighted_var / static_cast<double>(count));
    slot.per_core_type.assign(parts.begin(), parts.end());
  }
  return out;
}

void Daemon::serve_aggregates() {
  if (downstreams_.empty() || agg_subs_.empty()) return;
  // Pump every live downstream once and route its aggregate samples to
  // the matching leg. One faulting or silent downstream contributes
  // nothing this window — its siblings still flow below.
  for (std::size_t d = 0; d < downstreams_.size(); ++d) {
    Downstream& link = downstreams_[d];
    if (!link.alive) continue;
    if (!link.client->connected()) {
      link.alive = false;
      continue;
    }
    // Drain the link completely: a closed peer leaves its final bytes
    // (Goodbye) buffered ahead of the error, and the leg must be seen
    // dead in the same tick so merges stop folding in its frozen last
    // sample.
    while (link.client->pump_once()) {
    }
    if (!link.client->connected()) link.alive = false;
    for (AggSample& sample : link.client->take_agg_samples()) {
      for (auto& [key_id, agg] : agg_subs_) {
        if (d < agg.downstream.size() &&
            agg.downstream[d].sub_id == sample.subscription_id &&
            agg.downstream[d].sub_id != 0) {
          agg.downstream[d].latest = std::move(sample);
          agg.downstream[d].reported = true;
          agg.downstream[d].fresh = true;
          break;
        }
      }
    }
  }

  const double t_seconds =
      kernel_ != nullptr ? kernel_->now().seconds()
                         : static_cast<double>(stats_.ticks);
  std::vector<std::vector<std::uint8_t>> templates;
  std::vector<Delivery> deliveries;
  for (auto& [key_id, agg] : agg_subs_) {
    bool any_fresh = false;
    for (const DownstreamState& st : agg.downstream) any_fresh |= st.fresh;
    if (!any_fresh) continue;  // nothing new — no sample this tick
    AggSample merged = merge_aggregate(agg);
    merged.subscription_id = 0;  // patched per rider
    merged.seq = 0;              // patched per rider
    merged.tick = stats_.ticks;
    merged.t_seconds = t_seconds;
    const std::size_t index = templates.size();
    templates.push_back(encode_frame(MsgType::kAggSample, merged.encode()));
    for (Rider& rider : agg.subscribers) {
      ++rider.seq;
      deliveries.push_back(
          {rider.client_id, rider.subscription_id, index, true, rider.seq});
    }
    for (DownstreamState& st : agg.downstream) st.fresh = false;
  }
  deliver(templates, deliveries);
}

void Daemon::heal_downstreams() {
  for (std::size_t d = 0; d < downstreams_.size(); ++d) {
    Downstream& link = downstreams_[d];
    if (link.alive && link.client->connected()) continue;
    link.alive = false;
    if (!link.factory) continue;  // factory-less legs stay dead
    if (stats_.ticks < link.next_retry_tick) continue;
    ++stats_.reconnects;
    const auto back_off = [&] {
      link.backoff_ticks = std::min<std::uint64_t>(link.backoff_ticks * 2, 64);
      link.next_retry_tick = stats_.ticks + link.backoff_ticks;
    };
    auto conn = link.factory();
    if (!conn) {
      back_off();
      continue;
    }
    auto fresh = std::make_unique<Client>(std::move(*conn));
    if (!fresh->hello(config_.name + "/downstream").is_ok()) {
      back_off();
      continue;
    }
    // Adopt the healed link, then re-subscribe this leg of every
    // aggregate. The downstream daemon may have restarted, so every
    // old sub_id is void either way; reported/fresh reset so a stale
    // pre-outage sample can never fold into a post-heal merge.
    link.client = std::move(fresh);
    link.alive = true;
    link.backoff_ticks = 1;
    link.next_retry_tick = 0;
    bool resubscribed_all = true;
    for (auto& [key_id, agg] : agg_subs_) {
      if (d >= agg.downstream.size()) continue;
      DownstreamState& st = agg.downstream[d];
      auto ack = link.client->subscribe_aggregate(agg.spec);
      if (!ack) {
        st.sub_id = 0;
        resubscribed_all = false;
        if (!link.client->connected()) {
          link.alive = false;
          back_off();
          break;
        }
        continue;
      }
      st.sub_id = ack->subscription_id;
      st.reported = false;
      st.fresh = false;
      st.latest = AggSample{};
    }
    if (link.alive && resubscribed_all) ++stats_.downstream_reheals;
  }
}

void Daemon::enforce_liveness() {
  if (config_.ping_interval_ticks == 0) return;
  for (const auto& client : clients_) {
    if (!client->conn->is_open() || client->closing || !client->hello_done) {
      continue;
    }
    if (client->ping_outstanding) {
      if (stats_.ticks - client->ping_sent_tick <
          config_.ping_interval_ticks) {
        continue;  // still inside this deadline
      }
      ++client->pings_missed;
      ++stats_.pings_missed;
      if (client->pings_missed >= config_.ping_max_missed) {
        // Active subscriptions do NOT save a dead peer — that is the
        // point: a half-open connection must not pin EventSets.
        ++stats_.clients_dropped_liveness;
        teardown_client(*client);
        Goodbye bye;
        bye.reason = "dropped: liveness timeout";
        enqueue(*client, MsgType::kGoodbye, bye.encode());
        client->closing = true;
        continue;
      }
      Ping ping;  // next deadline
      ping.token = stats_.ticks;
      enqueue(*client, MsgType::kPing, ping.encode());
      client->ping_sent_tick = stats_.ticks;
    } else if (stats_.ticks - client->last_activity_tick >=
               config_.ping_interval_ticks) {
      Ping ping;
      ping.token = stats_.ticks;
      enqueue(*client, MsgType::kPing, ping.encode());
      client->ping_sent_tick = stats_.ticks;
      client->ping_outstanding = true;
    }
  }
}

void Daemon::tick() {
  if (library_ == nullptr || shut_down_) return;
  ++stats_.ticks;
  serve_subscriptions();
  heal_downstreams();
  serve_aggregates();
  enforce_liveness();

  if (config_.idle_timeout_ticks > 0) {
    for (const auto& client : clients_) {
      if (!client->conn->is_open() || client->closing) continue;
      if (!client->subscriptions.empty() ||
          !client->agg_subscriptions.empty()) {
        continue;
      }
      if (stats_.ticks - client->last_activity_tick <
          config_.idle_timeout_ticks) {
        continue;
      }
      ++stats_.clients_closed_idle;
      teardown_client(*client);
      Goodbye bye;
      bye.reason = "disconnected: idle timeout";
      enqueue(*client, MsgType::kGoodbye, bye.encode());
      client->closing = true;
    }
  }

  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    enforce_queue_cap(*client);
    flush_client(*client);
  }
  reap_closed();
}

void Daemon::shutdown() {
  if (shut_down_ || library_ == nullptr) {
    shut_down_ = true;
    return;
  }
  // Graceful drain: every surviving client gets a Goodbye and one flush
  // attempt; then all measurement state is released so the backend's fd
  // ledger reads zero.
  for (const auto& client : clients_) {
    if (!client->conn->is_open()) continue;
    Goodbye bye;
    bye.reason = "daemon shutting down";
    enqueue(*client, MsgType::kGoodbye, bye.encode());
    client->closing = true;
    flush_client(*client, config_.shutdown_max_flush_ops);
    teardown_client(*client);
    client->conn->close();
  }
  clients_.clear();
  clients_by_id_.clear();
  // Downstream legs: a polite Close releases the subscriptions we hold
  // on the next daemon down the tree.
  for (Downstream& link : downstreams_) {
    if (link.alive && link.client->connected()) (void)link.client->close();
    link.alive = false;
  }
  agg_subs_.clear();
  agg_key_ids_.clear();
  // Shared subscriptions whose owners vanished without teardown.
  for (auto& [key_id, sub] : shared_subs_) {
    (void)library_->force_destroy_eventset(sub.eventset);
  }
  shared_subs_.clear();
  key_ids_.clear();
  shut_down_ = true;
}

}  // namespace hetpapi::service
