#include "service/client.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace hetpapi::service {
namespace {

Status connection_gone() {
  return Status(StatusCode::kNotRunning, "connection closed");
}

Status reconnected_midway() {
  return Status(StatusCode::kInterrupted,
                "connection re-established mid-request; retry");
}

/// A status that means the wire died (retry the whole attempt), as
/// opposed to a daemon-side refusal of one request.
bool is_transport_death(const Status& s) {
  return s.code() == StatusCode::kNotRunning ||
         s.code() == StatusCode::kInterrupted;
}

}  // namespace

void Client::enable_reconnect(ConnectionFactory factory,
                              ReconnectConfig config) {
  factory_ = std::move(factory);
  reconnect_config_ = std::move(config);
  reconnect_enabled_ = static_cast<bool>(factory_);
  backoff_rng_ = Rng(reconnect_config_.seed);
}

std::uint32_t Client::current_subscription_id(
    std::uint32_t original_sub_id) const {
  for (const RecordedSub& sub : recorded_subs_) {
    if (sub.original_sub_id == original_sub_id) return sub.sub_id;
  }
  return 0;
}

Status Client::send_all(const std::vector<std::uint8_t>& bytes) {
  if (!connected()) {
    // Nothing of this request is on the wire yet: a successful resume
    // lets the send proceed on the fresh connection.
    if (Status healed = try_reconnect(connection_gone()); !healed.is_ok())
      return healed;
    if (!connected()) return connection_gone();
  }
  const std::uint64_t gen = generation_;
  std::size_t sent = 0;
  int idle_passes = 0;
  const int idle_limit =
      reconnect_enabled_ ? reconnect_config_.rpc_deadline_pumps : 0;
  while (sent < bytes.size()) {
    auto n = conn_->send(bytes.data() + sent, bytes.size() - sent);
    if (!n) {
      conn_->close();
      Status healed = try_reconnect(n.status());
      if (!healed.is_ok()) return healed;
      // Resumed, but a prefix of this frame may be lost with the old
      // connection — the caller must resend from the top.
      return reconnected_midway();
    }
    if (*n == 0) {
      // Would-block: give the peer a chance to drain (on the loopback
      // transport receive() pumps the daemon; on a socket the kernel
      // buffer empties on its own) and retry.
      auto progressed = receive_some();
      if (!progressed) return progressed.status();
      if (generation_ != gen) return reconnected_midway();
      if (!*progressed && idle_limit > 0 && ++idle_passes >= idle_limit) {
        return Status(StatusCode::kInterrupted,
                      "send made no progress within the deadline");
      }
      if (*progressed) idle_passes = 0;
      continue;
    }
    idle_passes = 0;
    sent += *n;
  }
  return Status::ok();
}

Expected<bool> Client::receive_some() {
  if (!connected()) return connection_gone();
  std::vector<std::uint8_t> chunk;
  auto n = conn_->receive(chunk);
  if (!n) {
    // A receive error is terminal (would-block is reported as 0 bytes,
    // not an error): drop the connection so connected() tells the truth
    // and pollers stop treating this peer as live — then, if armed, try
    // to heal. A successful resume reports "no bytes this pass"; the
    // resubscribed stream flows on the next sweep.
    conn_->close();
    Status healed = try_reconnect(n.status());
    if (!healed.is_ok()) return healed;
    return false;
  }
  if (*n == 0) return false;
  if (capture_bytes_)
    captured_bytes_.insert(captured_bytes_.end(), chunk.begin(), chunk.end());
  reader_.feed(chunk);
  return true;
}

void Client::note_sample(std::uint32_t sub_id, std::uint64_t tick,
                         std::uint64_t seq) {
  if (!reconnect_enabled_) return;
  for (RecordedSub& sub : recorded_subs_) {
    if (sub.sub_id != sub_id || sub_id == 0) continue;
    if (sub.check_gap) {
      if (sub.gap_unknown) {
        ++resume_stats_.unknown_gaps;
      } else if (sub.saw_sample && tick > sub.last_tick &&
                 sub.period_ticks > 0) {
        // Deliveries land on tick % period == 0 of the daemon's global
        // tick counter, which survived the outage (same epoch), so the
        // missed count is exact: due ticks strictly between the last
        // pre-outage delivery and this one.
        const std::uint64_t due_steps = (tick - sub.last_tick) / sub.period_ticks;
        if (due_steps > 1) {
          ++resume_stats_.gaps;
          resume_stats_.samples_missed += due_steps - 1;
        }
      }
      sub.check_gap = false;
      sub.gap_unknown = false;
    } else if (seq != 0 && sub.last_seq != 0 && seq != sub.last_seq + 1) {
      // In-connection sequence break: the daemon skipped us without a
      // reconnect. Should not happen; account it rather than hide it.
      ++resume_stats_.gaps;
      if (seq > sub.last_seq) resume_stats_.samples_missed += seq - sub.last_seq - 1;
    }
    sub.saw_sample = true;
    sub.last_tick = tick;
    sub.last_seq = seq;
    return;
  }
}

void Client::answer_ping(const Frame& frame) {
  auto ping = Ping::decode(frame);
  if (!ping) return;
  Pong pong;
  pong.token = ping->token;
  // Best effort: a liveness echo that fails to send will surface as a
  // transport error on the next real operation.
  (void)send_all(encode_frame(MsgType::kPong, pong.encode()));
}

void Client::stash_frame(const Frame& frame) {
  if (frame.type == MsgType::kSample) {
    if (auto s = WireSample::decode(frame)) {
      note_sample(s->subscription_id, s->tick, s->seq);
      samples_.push_back(*std::move(s));
    }
  } else if (frame.type == MsgType::kAggSample) {
    if (auto s = AggSample::decode(frame)) {
      note_sample(s->subscription_id, s->tick, s->seq);
      agg_samples_.push_back(*std::move(s));
    }
  } else if (frame.type == MsgType::kGoodbye) {
    if (auto g = Goodbye::decode(frame)) goodbye_reason_ = g->reason;
  } else if (frame.type == MsgType::kPing) {
    answer_ping(frame);
  }
}

bool Client::pump_once() {
  // Frames already reassembled but not yet handed out (e.g. a Goodbye
  // that rode in the same receive as an Error reply) are drained even
  // when the transport is dead — a buffered farewell must not be lost.
  bool progressed = false;
  while (true) {
    auto frame = reader_.next();
    if (!frame) break;
    stash_frame(*frame);
    progressed = true;
  }
  auto got = receive_some();
  if (!got || !*got) return progressed;
  // Drain any complete frames into the stash so samples never pile up
  // unobserved inside the reader.
  while (true) {
    auto frame = reader_.next();
    if (!frame) break;
    stash_frame(*frame);
    // Other frame types arriving outside an rpc() are stale replies
    // (e.g. a CloseAck racing a drop) — stash_frame drops them.
  }
  return true;
}

Expected<Frame> Client::rpc(MsgType expect,
                            const std::vector<std::uint8_t>& frame_bytes) {
  if (Status s = send_all(frame_bytes); !s.is_ok()) return s;
  // The request is fully on the wire for THIS connection; if a resume
  // swaps the connection while we wait, the reply died with it.
  const std::uint64_t gen = generation_;
  int idle_passes = 0;
  const int idle_limit =
      reconnect_enabled_ ? reconnect_config_.rpc_deadline_pumps : 0;
  while (true) {
    // Pop buffered frames first — bytes from a previous receive may
    // already hold the reply.
    auto frame = reader_.next();
    if (frame) {
      idle_passes = 0;
      if (frame->type == expect) return *std::move(frame);
      if (frame->type == MsgType::kSample ||
          frame->type == MsgType::kAggSample ||
          frame->type == MsgType::kPing) {
        stash_frame(*frame);
        continue;
      }
      if (frame->type == MsgType::kError) {
        auto err = WireError::decode(*frame);
        if (!err) return err.status();
        return err->to_status();
      }
      if (frame->type == MsgType::kGoodbye) {
        auto bye = Goodbye::decode(*frame);
        goodbye_reason_ = bye ? bye->reason : "goodbye";
        return Status(StatusCode::kNotRunning,
                      "daemon said goodbye: " + goodbye_reason_);
      }
      // Unexpected interleaved reply — protocol confusion.
      return Status(StatusCode::kBug,
                    "unexpected frame " + std::string(to_string(frame->type)) +
                        " while waiting for " + std::string(to_string(expect)));
    }
    if (frame.status().code() == StatusCode::kInvalidArgument)
      return frame.status();  // corrupt stream
    auto got = receive_some();
    if (!got) return got.status();
    if (generation_ != gen) return reconnected_midway();
    // got == false just means no bytes this pass; on the loopback
    // transport the pump already ran inside receive(), so loop again —
    // bounded by the rpc deadline when reconnect is armed, so a
    // dead-silent daemon cannot hang the handshake forever.
    if (!*got && idle_limit > 0 && ++idle_passes >= idle_limit) {
      return Status(StatusCode::kInterrupted,
                    "no reply within the rpc deadline");
    }
    if (*got) idle_passes = 0;
  }
}

Status Client::hello(const std::string& client_name) {
  client_name_ = client_name;
  Hello msg;
  msg.client_name = client_name;
  auto reply = rpc(MsgType::kHelloAck,
                   encode_frame(MsgType::kHello, msg.encode()));
  if (!reply) return reply.status();
  auto ack = HelloAck::decode(*reply);
  if (!ack) return ack.status();
  if (ack->version != kProtocolVersion)
    return Status(StatusCode::kNotSupported,
                  "server speaks protocol v" + std::to_string(ack->version));
  epoch_ = ack->epoch;
  return Status::ok();
}

Status Client::try_reconnect(const Status& cause) {
  if (!reconnect_enabled_ || reconnecting_) return cause;
  reconnecting_ = true;
  Status last = cause;
  std::uint64_t delay_ms = reconnect_config_.initial_backoff_ms;
  for (int attempt = 1; attempt <= reconnect_config_.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic jitter: the factor is drawn from the seeded
      // stream whether or not a sleep hook is installed, so the
      // attempt trace is identical across environments.
      const double jf = reconnect_config_.jitter_frac;
      const double factor = 1.0 - jf + 2.0 * jf * backoff_rng_.uniform();
      const auto jittered = static_cast<std::uint64_t>(
          static_cast<double>(delay_ms) * factor);
      if (reconnect_config_.sleep_ms) reconnect_config_.sleep_ms(jittered);
      delay_ms = std::min(delay_ms * 2, reconnect_config_.max_backoff_ms);
    }
    ++resume_stats_.attempts;
    auto dialed = factory_();
    if (!dialed) {
      last = dialed.status();
      continue;
    }
    conn_ = std::move(*dialed);
    reader_ = FrameReader();  // old half-frames died with the old wire
    goodbye_reason_.clear();
    ++generation_;
    const std::uint64_t prev_epoch = epoch_;
    if (Status h = hello(client_name_); !h.is_ok()) {
      last = h;
      if (conn_) conn_->close();
      continue;
    }
    const bool epoch_changed = prev_epoch != 0 && epoch_ != prev_epoch;
    if (epoch_changed) ++resume_stats_.epoch_changes;
    // Tick-based gap math needs proof it's the same daemon process; a
    // daemon advertising epoch 0 can't give it, so its gaps are unknown.
    const bool gap_quantifiable = !epoch_changed && prev_epoch != 0;
    bool wire_died = false;
    for (RecordedSub& sub : recorded_subs_) {
      Status sub_status = Status::ok();
      if (sub.aggregate) {
        auto ack = do_subscribe_aggregate(sub.agg_spec);
        if (ack) {
          sub.sub_id = ack->subscription_id;
        } else {
          sub_status = ack.status();
        }
      } else {
        auto ack = do_subscribe(sub.spec);
        if (ack) {
          sub.sub_id = ack->subscription_id;
        } else {
          sub_status = ack.status();
        }
      }
      if (sub_status.is_ok()) {
        sub.last_seq = 0;
        sub.check_gap = sub.saw_sample;
        sub.gap_unknown = sub.check_gap && !gap_quantifiable;
        continue;
      }
      if (is_transport_death(sub_status)) {
        last = sub_status;
        wire_died = true;
        break;
      }
      // The daemon refused this one (conflict, overload, ...): the
      // subscription is gone, but the session resumed.
      sub.sub_id = 0;
      ++resume_stats_.resubscribe_failures;
    }
    if (wire_died) {
      if (conn_) conn_->close();
      continue;
    }
    ++resume_stats_.reconnects;
    reconnecting_ = false;
    return Status::ok();
  }
  reconnecting_ = false;
  return Status(last.code(),
                "reconnect exhausted after " +
                    std::to_string(reconnect_config_.max_attempts) +
                    " attempts: " + last.to_string());
}

Expected<std::uint32_t> Client::open_session(TargetKind kind,
                                             std::int64_t target) {
  OpenSession msg;
  msg.target_kind = kind;
  msg.target = target;
  auto reply = rpc(MsgType::kOpenSessionAck,
                   encode_frame(MsgType::kOpenSession, msg.encode()));
  if (!reply) return reply.status();
  auto ack = OpenSessionAck::decode(*reply);
  if (!ack) return ack.status();
  return ack->session_id;
}

Expected<AddEventsAck> Client::add_events(
    std::uint32_t session_id, const std::vector<std::string>& events) {
  AddEvents msg;
  msg.session_id = session_id;
  msg.events = events;
  auto reply = rpc(MsgType::kAddEventsAck,
                   encode_frame(MsgType::kAddEvents, msg.encode()));
  if (!reply) return reply.status();
  return AddEventsAck::decode(*reply);
}

Status Client::start(std::uint32_t session_id) {
  Start msg;
  msg.session_id = session_id;
  auto reply =
      rpc(MsgType::kStartAck, encode_frame(MsgType::kStart, msg.encode()));
  if (!reply) return reply.status();
  return Status::ok();
}

Expected<ReadReply> Client::read(std::uint32_t session_id) {
  Read msg;
  msg.session_id = session_id;
  auto reply =
      rpc(MsgType::kReadReply, encode_frame(MsgType::kRead, msg.encode()));
  if (!reply) return reply.status();
  return ReadReply::decode(*reply);
}

Expected<SubscribeAck> Client::do_subscribe(const Subscribe& spec) {
  auto reply = rpc(MsgType::kSubscribeAck,
                   encode_frame(MsgType::kSubscribe, spec.encode()));
  if (!reply) return reply.status();
  return SubscribeAck::decode(*reply);
}

Expected<SubscribeAck> Client::subscribe(const Subscribe& spec) {
  auto ack = do_subscribe(spec);
  if (ack && reconnect_enabled_) {
    RecordedSub record;
    record.aggregate = false;
    record.spec = spec;
    record.original_sub_id = ack->subscription_id;
    record.sub_id = ack->subscription_id;
    record.period_ticks = spec.period_ticks == 0 ? 1 : spec.period_ticks;
    recorded_subs_.push_back(std::move(record));
  }
  return ack;
}

Expected<AggSubscribeAck> Client::do_subscribe_aggregate(
    const AggSubscribe& spec) {
  auto reply = rpc(MsgType::kSubscribeAggregateAck,
                   encode_frame(MsgType::kSubscribeAggregate, spec.encode()));
  if (!reply) return reply.status();
  return AggSubscribeAck::decode(*reply);
}

Expected<AggSubscribeAck> Client::subscribe_aggregate(
    const AggSubscribe& spec) {
  auto ack = do_subscribe_aggregate(spec);
  if (ack && reconnect_enabled_) {
    RecordedSub record;
    record.aggregate = true;
    record.agg_spec = spec;
    record.original_sub_id = ack->subscription_id;
    record.sub_id = ack->subscription_id;
    record.period_ticks = spec.period_ticks == 0 ? 1 : spec.period_ticks;
    recorded_subs_.push_back(std::move(record));
  }
  return ack;
}

Status Client::unsubscribe(std::uint32_t subscription_id) {
  Unsubscribe msg;
  msg.subscription_id = subscription_id;
  auto reply = rpc(MsgType::kUnsubscribeAck,
                   encode_frame(MsgType::kUnsubscribe, msg.encode()));
  if (!reply) return reply.status();
  recorded_subs_.erase(
      std::remove_if(recorded_subs_.begin(), recorded_subs_.end(),
                     [&](const RecordedSub& sub) {
                       return sub.sub_id == subscription_id;
                     }),
      recorded_subs_.end());
  return Status::ok();
}

Expected<StatsReply> Client::stats() {
  auto reply = rpc(MsgType::kStatsReply,
                   encode_frame(MsgType::kGetStats, GetStats{}.encode()));
  if (!reply) return reply.status();
  return StatsReply::decode(*reply);
}

Status Client::close() {
  // Intentional teardown: a connection we close on purpose must not be
  // healed behind the caller's back.
  reconnect_enabled_ = false;
  if (!connected()) return Status::ok();
  auto reply =
      rpc(MsgType::kCloseAck, encode_frame(MsgType::kClose, Close{}.encode()));
  conn_->close();
  if (!reply) return reply.status();
  return Status::ok();
}

std::vector<WireSample> Client::take_samples() {
  // Sweep the transport once so freshly flushed samples are included.
  if (connected() || reconnect_enabled_) pump_once();
  std::vector<WireSample> out(std::make_move_iterator(samples_.begin()),
                              std::make_move_iterator(samples_.end()));
  samples_.clear();
  return out;
}

std::vector<AggSample> Client::take_agg_samples() {
  if (connected() || reconnect_enabled_) pump_once();
  std::vector<AggSample> out(std::make_move_iterator(agg_samples_.begin()),
                             std::make_move_iterator(agg_samples_.end()));
  agg_samples_.clear();
  return out;
}

}  // namespace hetpapi::service
