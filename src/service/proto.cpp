#include "service/proto.hpp"

namespace hetpapi::service {

std::string_view to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kOpenSession: return "OpenSession";
    case MsgType::kOpenSessionAck: return "OpenSessionAck";
    case MsgType::kAddEvents: return "AddEvents";
    case MsgType::kAddEventsAck: return "AddEventsAck";
    case MsgType::kStart: return "Start";
    case MsgType::kStartAck: return "StartAck";
    case MsgType::kRead: return "Read";
    case MsgType::kReadReply: return "ReadReply";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kSubscribeAck: return "SubscribeAck";
    case MsgType::kUnsubscribe: return "Unsubscribe";
    case MsgType::kUnsubscribeAck: return "UnsubscribeAck";
    case MsgType::kSample: return "Sample";
    case MsgType::kGetStats: return "GetStats";
    case MsgType::kStatsReply: return "StatsReply";
    case MsgType::kClose: return "Close";
    case MsgType::kCloseAck: return "CloseAck";
    case MsgType::kError: return "Error";
    case MsgType::kGoodbye: return "Goodbye";
    case MsgType::kSubscribeAggregate: return "SubscribeAggregate";
    case MsgType::kSubscribeAggregateAck: return "SubscribeAggregateAck";
    case MsgType::kAggSample: return "AggSample";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
  }
  return "?";
}

// --- Reader ----------------------------------------------------------------

bool Reader::take(std::size_t n) {
  if (failed_ || size_ - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

Expected<std::uint8_t> Reader::u8() {
  if (!take(1)) return make_error(StatusCode::kInvalidArgument, "truncated u8");
  return data_[pos_++];
}

Expected<std::uint32_t> Reader::u32() {
  if (!take(4)) {
    return make_error(StatusCode::kInvalidArgument, "truncated u32");
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Expected<std::uint64_t> Reader::u64() {
  if (!take(8)) {
    return make_error(StatusCode::kInvalidArgument, "truncated u64");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Expected<std::int64_t> Reader::i64() {
  auto v = u64();
  if (!v) return v.status();
  return static_cast<std::int64_t>(*v);
}

Expected<double> Reader::f64() {
  auto bits = u64();
  if (!bits) return bits.status();
  double v = 0.0;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Expected<std::string> Reader::str() {
  auto len = u32();
  if (!len) return len.status();
  if (*len > kMaxFrameBytes || !take(*len)) {
    failed_ = true;
    return make_error(StatusCode::kInvalidArgument, "truncated string");
  }
  std::string out(reinterpret_cast<const char*>(data_ + pos_), *len);
  pos_ += *len;
  return out;
}

Expected<std::vector<std::string>> Reader::str_list() {
  auto count = u32();
  if (!count) return count.status();
  std::vector<std::string> out;
  out.reserve(std::min<std::uint32_t>(*count, 1024));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto s = str();
    if (!s) return s.status();
    out.push_back(std::move(*s));
  }
  return out;
}

Expected<std::vector<long long>> Reader::i64_list() {
  auto count = u32();
  if (!count) return count.status();
  if (static_cast<std::uint64_t>(*count) * 8 > kMaxFrameBytes) {
    failed_ = true;
    return make_error(StatusCode::kInvalidArgument, "oversized i64 list");
  }
  std::vector<long long> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto v = i64();
    if (!v) return v.status();
    out.push_back(static_cast<long long>(*v));
  }
  return out;
}

Expected<std::vector<std::uint8_t>> Reader::u8_list() {
  auto count = u32();
  if (!count) return count.status();
  if (*count > kMaxFrameBytes || !take(*count)) {
    failed_ = true;
    return make_error(StatusCode::kInvalidArgument, "truncated u8 list");
  }
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + *count);
  pos_ += *count;
  return out;
}

// --- framing ---------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(5 + payload.size());
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size()) + 1;
  for (int i = 0; i < 4; ++i) out.push_back((length >> (8 * i)) & 0xffu);
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Expected<Frame> FrameReader::next() {
  if (corrupt_) {
    return make_error(StatusCode::kInvalidArgument, "corrupt frame stream");
  }
  // Compact lazily so a long-lived connection doesn't grow forever.
  if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) {
    return make_error(StatusCode::kNotFound);
  }
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(
                  buffer_[consumed_ + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (length == 0 || length > kMaxFrameBytes) {
    corrupt_ = true;
    return make_error(StatusCode::kInvalidArgument, "bad frame length");
  }
  if (available < 4 + static_cast<std::size_t>(length)) {
    return make_error(StatusCode::kNotFound);
  }
  Frame frame;
  frame.type = static_cast<MsgType>(buffer_[consumed_ + 4]);
  frame.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 5),
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + length));
  consumed_ += 4 + length;
  return frame;
}

// --- messages --------------------------------------------------------------

namespace {

/// Decode epilogue shared by every message: trailing bytes after the
/// last field mean a framing bug or a newer, incompatible sender.
Status expect_exhausted(const Reader& reader, std::string_view what) {
  if (reader.remaining() != 0) {
    return make_error(StatusCode::kInvalidArgument,
                      std::string(what) + ": trailing bytes");
  }
  return Status::ok();
}

}  // namespace

std::vector<std::uint8_t> Hello::encode() const {
  Writer w;
  w.u32(version);
  w.str(client_name);
  return w.take();
}

Expected<Hello> Hello::decode(const Frame& frame) {
  Reader r = frame.reader();
  Hello m;
  auto version_field = r.u32();
  if (!version_field) return version_field.status();
  m.version = *version_field;
  auto name = r.str();
  if (!name) return name.status();
  m.client_name = std::move(*name);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Hello"));
  return m;
}

std::vector<std::uint8_t> HelloAck::encode() const {
  Writer w;
  w.u32(version);
  w.u32(client_id);
  w.str(server_name);
  w.u64(epoch);
  return w.take();
}

Expected<HelloAck> HelloAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  HelloAck m;
  auto version_field = r.u32();
  if (!version_field) return version_field.status();
  m.version = *version_field;
  auto id = r.u32();
  if (!id) return id.status();
  m.client_id = *id;
  auto name = r.str();
  if (!name) return name.status();
  m.server_name = std::move(*name);
  auto epoch_field = r.u64();
  if (!epoch_field) return epoch_field.status();
  m.epoch = *epoch_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "HelloAck"));
  return m;
}

std::vector<std::uint8_t> OpenSession::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(target_kind));
  w.i64(target);
  return w.take();
}

Expected<OpenSession> OpenSession::decode(const Frame& frame) {
  Reader r = frame.reader();
  OpenSession m;
  auto kind = r.u8();
  if (!kind) return kind.status();
  if (*kind > static_cast<std::uint8_t>(TargetKind::kCpu)) {
    return make_error(StatusCode::kInvalidArgument, "bad target kind");
  }
  m.target_kind = static_cast<TargetKind>(*kind);
  auto target_field = r.i64();
  if (!target_field) return target_field.status();
  m.target = *target_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "OpenSession"));
  return m;
}

std::vector<std::uint8_t> OpenSessionAck::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<OpenSessionAck> OpenSessionAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  OpenSessionAck m;
  auto id = r.u32();
  if (!id) return id.status();
  m.session_id = *id;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "OpenSessionAck"));
  return m;
}

std::vector<std::uint8_t> AddEvents::encode() const {
  Writer w;
  w.u32(session_id);
  w.str_list(events);
  return w.take();
}

Expected<AddEvents> AddEvents::decode(const Frame& frame) {
  Reader r = frame.reader();
  AddEvents m;
  auto id = r.u32();
  if (!id) return id.status();
  m.session_id = *id;
  auto list = r.str_list();
  if (!list) return list.status();
  m.events = std::move(*list);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "AddEvents"));
  return m;
}

std::vector<std::uint8_t> AddEventsAck::encode() const {
  Writer w;
  w.str_list(canonical_names);
  return w.take();
}

Expected<AddEventsAck> AddEventsAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  AddEventsAck m;
  auto list = r.str_list();
  if (!list) return list.status();
  m.canonical_names = std::move(*list);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "AddEventsAck"));
  return m;
}

std::vector<std::uint8_t> Start::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<Start> Start::decode(const Frame& frame) {
  Reader r = frame.reader();
  Start m;
  auto id = r.u32();
  if (!id) return id.status();
  m.session_id = *id;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Start"));
  return m;
}

std::vector<std::uint8_t> Read::encode() const {
  Writer w;
  w.u32(session_id);
  return w.take();
}

Expected<Read> Read::decode(const Frame& frame) {
  Reader r = frame.reader();
  Read m;
  auto id = r.u32();
  if (!id) return id.status();
  m.session_id = *id;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Read"));
  return m;
}

std::vector<std::uint8_t> ReadReply::encode() const {
  Writer w;
  w.i64_list(values);
  w.u8_list(degraded);
  return w.take();
}

Expected<ReadReply> ReadReply::decode(const Frame& frame) {
  Reader r = frame.reader();
  ReadReply m;
  auto vals = r.i64_list();
  if (!vals) return vals.status();
  m.values = std::move(*vals);
  auto deg = r.u8_list();
  if (!deg) return deg.status();
  m.degraded = std::move(*deg);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "ReadReply"));
  return m;
}

std::vector<std::uint8_t> Subscribe::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(target_kind));
  w.i64(target);
  w.str_list(events);
  w.u32(period_ticks);
  w.u8(qualified);
  return w.take();
}

Expected<Subscribe> Subscribe::decode(const Frame& frame) {
  Reader r = frame.reader();
  Subscribe m;
  auto kind = r.u8();
  if (!kind) return kind.status();
  if (*kind > static_cast<std::uint8_t>(TargetKind::kCpu)) {
    return make_error(StatusCode::kInvalidArgument, "bad target kind");
  }
  m.target_kind = static_cast<TargetKind>(*kind);
  auto target_field = r.i64();
  if (!target_field) return target_field.status();
  m.target = *target_field;
  auto list = r.str_list();
  if (!list) return list.status();
  m.events = std::move(*list);
  auto period = r.u32();
  if (!period) return period.status();
  m.period_ticks = *period;
  auto qualified_field = r.u8();
  if (!qualified_field) return qualified_field.status();
  m.qualified = *qualified_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Subscribe"));
  return m;
}

std::vector<std::uint8_t> SubscribeAck::encode() const {
  Writer w;
  w.u32(subscription_id);
  w.u32(shared_key_id);
  return w.take();
}

Expected<SubscribeAck> SubscribeAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  SubscribeAck m;
  auto sub = r.u32();
  if (!sub) return sub.status();
  m.subscription_id = *sub;
  auto key = r.u32();
  if (!key) return key.status();
  m.shared_key_id = *key;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "SubscribeAck"));
  return m;
}

std::vector<std::uint8_t> Unsubscribe::encode() const {
  Writer w;
  w.u32(subscription_id);
  return w.take();
}

Expected<Unsubscribe> Unsubscribe::decode(const Frame& frame) {
  Reader r = frame.reader();
  Unsubscribe m;
  auto sub = r.u32();
  if (!sub) return sub.status();
  m.subscription_id = *sub;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Unsubscribe"));
  return m;
}

std::vector<std::uint8_t> WireSample::encode() const {
  Writer w;
  w.u32(subscription_id);
  w.u64(tick);
  w.f64(t_seconds);
  w.i64_list(values);
  w.u8_list(degraded);
  w.u8(counters_ok);
  w.f64(package_temp_c);
  w.f64(package_power_w);
  w.u32(static_cast<std::uint32_t>(parts.size()));
  for (const auto& slot : parts) {
    w.u32(static_cast<std::uint32_t>(slot.size()));
    for (const auto& [name, value] : slot) {
      w.str(name);
      w.i64(value);
    }
  }
  w.u64(seq);  // LAST: patched at frame end by fan-out
  return w.take();
}

Expected<WireSample> WireSample::decode(const Frame& frame) {
  Reader r = frame.reader();
  WireSample m;
  auto sub = r.u32();
  if (!sub) return sub.status();
  m.subscription_id = *sub;
  auto tick_field = r.u64();
  if (!tick_field) return tick_field.status();
  m.tick = *tick_field;
  auto t = r.f64();
  if (!t) return t.status();
  m.t_seconds = *t;
  auto vals = r.i64_list();
  if (!vals) return vals.status();
  m.values = std::move(*vals);
  auto deg = r.u8_list();
  if (!deg) return deg.status();
  m.degraded = std::move(*deg);
  auto ok = r.u8();
  if (!ok) return ok.status();
  m.counters_ok = *ok;
  auto temp = r.f64();
  if (!temp) return temp.status();
  m.package_temp_c = *temp;
  auto power = r.f64();
  if (!power) return power.status();
  m.package_power_w = *power;
  auto slot_count = r.u32();
  if (!slot_count) return slot_count.status();
  for (std::uint32_t i = 0; i < *slot_count; ++i) {
    auto part_count = r.u32();
    if (!part_count) return part_count.status();
    std::vector<std::pair<std::string, long long>> slot;
    // Clamp: part_count is attacker-controlled; a corrupt frame must
    // fail on the byte shortfall, not allocate first.
    slot.reserve(std::min<std::uint32_t>(*part_count, 1024));
    for (std::uint32_t j = 0; j < *part_count; ++j) {
      auto name = r.str();
      if (!name) return name.status();
      auto value = r.i64();
      if (!value) return value.status();
      slot.emplace_back(std::move(*name), static_cast<long long>(*value));
    }
    m.parts.push_back(std::move(slot));
  }
  auto seq_field = r.u64();
  if (!seq_field) return seq_field.status();
  m.seq = *seq_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Sample"));
  return m;
}

std::vector<std::uint8_t> AggSubscribe::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(target_kind));
  w.i64(target);
  w.str_list(events);
  w.u32(period_ticks);
  return w.take();
}

Expected<AggSubscribe> AggSubscribe::decode(const Frame& frame) {
  Reader r = frame.reader();
  AggSubscribe m;
  auto kind = r.u8();
  if (!kind) return kind.status();
  if (*kind > static_cast<std::uint8_t>(TargetKind::kCpu)) {
    return make_error(StatusCode::kInvalidArgument, "bad target kind");
  }
  m.target_kind = static_cast<TargetKind>(*kind);
  auto target_field = r.i64();
  if (!target_field) return target_field.status();
  m.target = *target_field;
  auto list = r.str_list();
  if (!list) return list.status();
  m.events = std::move(*list);
  auto period = r.u32();
  if (!period) return period.status();
  m.period_ticks = *period;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "SubscribeAggregate"));
  return m;
}

std::vector<std::uint8_t> AggSubscribeAck::encode() const {
  Writer w;
  w.u32(subscription_id);
  w.u32(shared_key_id);
  w.u32(fanin);
  return w.take();
}

Expected<AggSubscribeAck> AggSubscribeAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  AggSubscribeAck m;
  auto sub = r.u32();
  if (!sub) return sub.status();
  m.subscription_id = *sub;
  auto key = r.u32();
  if (!key) return key.status();
  m.shared_key_id = *key;
  auto fanin_field = r.u32();
  if (!fanin_field) return fanin_field.status();
  m.fanin = *fanin_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "SubscribeAggregateAck"));
  return m;
}

std::vector<std::uint8_t> AggSample::encode() const {
  Writer w;
  w.u32(subscription_id);
  w.u64(tick);
  w.f64(t_seconds);
  w.u8(complete);
  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const SlotStats& slot : slots) {
    w.i64(slot.sum);
    w.i64(slot.min);
    w.i64(slot.max);
    w.f64(slot.avg);
    w.f64(slot.stddev);
    w.u32(slot.count);
    w.u32(static_cast<std::uint32_t>(slot.per_core_type.size()));
    for (const auto& [name, value] : slot.per_core_type) {
      w.str(name);
      w.i64(value);
    }
  }
  w.u64(seq);  // LAST: patched at frame end by fan-out
  return w.take();
}

Expected<AggSample> AggSample::decode(const Frame& frame) {
  Reader r = frame.reader();
  AggSample m;
  auto sub = r.u32();
  if (!sub) return sub.status();
  m.subscription_id = *sub;
  auto tick_field = r.u64();
  if (!tick_field) return tick_field.status();
  m.tick = *tick_field;
  auto t = r.f64();
  if (!t) return t.status();
  m.t_seconds = *t;
  auto complete_field = r.u8();
  if (!complete_field) return complete_field.status();
  m.complete = *complete_field;
  auto slot_count = r.u32();
  if (!slot_count) return slot_count.status();
  for (std::uint32_t i = 0; i < *slot_count; ++i) {
    SlotStats slot;
    auto sum = r.i64();
    if (!sum) return sum.status();
    slot.sum = static_cast<long long>(*sum);
    auto min_field = r.i64();
    if (!min_field) return min_field.status();
    slot.min = static_cast<long long>(*min_field);
    auto max_field = r.i64();
    if (!max_field) return max_field.status();
    slot.max = static_cast<long long>(*max_field);
    auto avg = r.f64();
    if (!avg) return avg.status();
    slot.avg = *avg;
    auto stddev = r.f64();
    if (!stddev) return stddev.status();
    slot.stddev = *stddev;
    auto count = r.u32();
    if (!count) return count.status();
    slot.count = *count;
    auto part_count = r.u32();
    if (!part_count) return part_count.status();
    slot.per_core_type.reserve(
        std::min<std::uint32_t>(*part_count, 1024));
    for (std::uint32_t j = 0; j < *part_count; ++j) {
      auto name = r.str();
      if (!name) return name.status();
      auto value = r.i64();
      if (!value) return value.status();
      slot.per_core_type.emplace_back(std::move(*name),
                                      static_cast<long long>(*value));
    }
    m.slots.push_back(std::move(slot));
  }
  auto seq_field = r.u64();
  if (!seq_field) return seq_field.status();
  m.seq = *seq_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "AggSample"));
  return m;
}

std::vector<std::uint8_t> GetStats::encode() const { return {}; }

Expected<GetStats> GetStats::decode(const Frame& frame) {
  Reader r = frame.reader();
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "GetStats"));
  return GetStats{};
}

std::vector<std::uint8_t> StatsReply::encode() const {
  Writer w;
  w.u64(ticks);
  w.u64(backend_reads);
  w.u64(samples_delivered);
  w.u64(frames_received);
  w.u64(frames_sent);
  w.u32(active_clients);
  w.u32(active_sessions);
  w.u32(distinct_subscriptions);
  w.u32(total_subscribers);
  w.u32(clients_dropped_slow);
  w.u32(clients_closed_idle);
  w.u32(shards);
  w.u32(downstreams);
  w.u32(agg_subscriptions);
  w.u64(agg_samples_delivered);
  return w.take();
}

Expected<StatsReply> StatsReply::decode(const Frame& frame) {
  Reader r = frame.reader();
  StatsReply m;
  const auto read_u64 = [&](std::uint64_t& field) -> Status {
    auto v = r.u64();
    if (!v) return v.status();
    field = *v;
    return Status::ok();
  };
  const auto read_u32 = [&](std::uint32_t& field) -> Status {
    auto v = r.u32();
    if (!v) return v.status();
    field = *v;
    return Status::ok();
  };
  HETPAPI_RETURN_IF_ERROR(read_u64(m.ticks));
  HETPAPI_RETURN_IF_ERROR(read_u64(m.backend_reads));
  HETPAPI_RETURN_IF_ERROR(read_u64(m.samples_delivered));
  HETPAPI_RETURN_IF_ERROR(read_u64(m.frames_received));
  HETPAPI_RETURN_IF_ERROR(read_u64(m.frames_sent));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.active_clients));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.active_sessions));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.distinct_subscriptions));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.total_subscribers));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.clients_dropped_slow));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.clients_closed_idle));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.shards));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.downstreams));
  HETPAPI_RETURN_IF_ERROR(read_u32(m.agg_subscriptions));
  HETPAPI_RETURN_IF_ERROR(read_u64(m.agg_samples_delivered));
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "StatsReply"));
  return m;
}

std::vector<std::uint8_t> Close::encode() const { return {}; }

Expected<Close> Close::decode(const Frame& frame) {
  Reader r = frame.reader();
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Close"));
  return Close{};
}

std::vector<std::uint8_t> CloseAck::encode() const { return {}; }

Expected<CloseAck> CloseAck::decode(const Frame& frame) {
  Reader r = frame.reader();
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "CloseAck"));
  return CloseAck{};
}

std::vector<std::uint8_t> WireError::encode() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(code));
  w.u8(in_reply_to);
  w.str(message);
  return w.take();
}

Expected<WireError> WireError::decode(const Frame& frame) {
  Reader r = frame.reader();
  WireError m;
  auto code_field = r.u32();
  if (!code_field) return code_field.status();
  m.code = static_cast<std::int32_t>(*code_field);
  auto reply_to = r.u8();
  if (!reply_to) return reply_to.status();
  m.in_reply_to = *reply_to;
  auto msg = r.str();
  if (!msg) return msg.status();
  m.message = std::move(*msg);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Error"));
  return m;
}

std::vector<std::uint8_t> Goodbye::encode() const {
  Writer w;
  w.str(reason);
  return w.take();
}

Expected<Goodbye> Goodbye::decode(const Frame& frame) {
  Reader r = frame.reader();
  Goodbye m;
  auto reason_field = r.str();
  if (!reason_field) return reason_field.status();
  m.reason = std::move(*reason_field);
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Goodbye"));
  return m;
}

std::vector<std::uint8_t> Ping::encode() const {
  Writer w;
  w.u64(token);
  return w.take();
}

Expected<Ping> Ping::decode(const Frame& frame) {
  Reader r = frame.reader();
  Ping m;
  auto token_field = r.u64();
  if (!token_field) return token_field.status();
  m.token = *token_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Ping"));
  return m;
}

std::vector<std::uint8_t> Pong::encode() const {
  Writer w;
  w.u64(token);
  return w.take();
}

Expected<Pong> Pong::decode(const Frame& frame) {
  Reader r = frame.reader();
  Pong m;
  auto token_field = r.u64();
  if (!token_field) return token_field.status();
  m.token = *token_field;
  HETPAPI_RETURN_IF_ERROR(expect_exhausted(r, "Pong"));
  return m;
}

}  // namespace hetpapi::service
