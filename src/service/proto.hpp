// hetpapid wire protocol: versioned, length-prefixed binary frames.
//
// Every message on the wire is one frame:
//
//   u32 LE payload length  |  u8 message type  |  payload bytes
//
// The length covers the type byte plus the payload, so a reader can
// resynchronize on frame boundaries without understanding any message.
// Payload fields are fixed-width little-endian scalars and
// u32-length-prefixed strings/arrays — no padding, no host-order leaks,
// so the same byte stream is valid across the loopback and unix-socket
// transports and across builds (the determinism tests compare raw
// bytes). The version check happens in Hello/HelloAck: the daemon
// speaks exactly kProtocolVersion and refuses any other offer, so every
// message has one wire shape.
//
// Message catalogue (see DESIGN.md §9 for the full table):
//   client -> daemon: Hello, OpenSession, AddEvents, Start, Read,
//                     Subscribe, Unsubscribe, SubscribeAggregate,
//                     GetStats, Close, Ping
//   daemon -> client: HelloAck, OpenSessionAck, AddEventsAck, StartAck,
//                     ReadReply, SubscribeAck, UnsubscribeAck, Sample
//                     (streamed), SubscribeAggregateAck, AggSample
//                     (streamed), StatsReply, CloseAck, Error, Goodbye,
//                     Ping/Pong (liveness, either direction)
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/status.hpp"

namespace hetpapi::service {

/// The one version the daemon speaks; bumped on any wire change, and a
/// Hello offering anything else is refused. v3 carries the aggregation
/// verbs (SubscribeAggregate / SubscribeAggregateAck / AggSample), the
/// StatsReply sharding/aggregation fields, Ping/Pong liveness, the
/// HelloAck session epoch, and a per-subscription sequence number on
/// Sample/AggSample so a resumed client measures its gap exactly.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Upper bound on one frame's payload (type byte included); a length
/// prefix beyond this is a protocol error, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenSessionAck = 4,
  kAddEvents = 5,
  kAddEventsAck = 6,
  kStart = 7,
  kStartAck = 8,
  kRead = 9,
  kReadReply = 10,
  kSubscribe = 11,
  kSubscribeAck = 12,
  kUnsubscribe = 13,
  kUnsubscribeAck = 14,
  kSample = 15,
  kGetStats = 16,
  kStatsReply = 17,
  kClose = 18,
  kCloseAck = 19,
  kError = 20,
  kGoodbye = 21,
  // Aggregation verbs.
  kSubscribeAggregate = 22,
  kSubscribeAggregateAck = 23,
  kAggSample = 24,
  // Liveness verbs (either direction; the peer echoes the token).
  kPing = 25,
  kPong = 26,
};

/// Stable, test-visible name for a message type ("?" when unknown).
std::string_view to_string(MsgType type) noexcept;

/// What an EventSet binds to, on the wire.
enum class TargetKind : std::uint8_t {
  kDefault = 0,  // the backend's default target
  kThread = 1,   // target = tid
  kCpu = 2,      // target = logical cpu
};

// --- payload serialization ------------------------------------------------

/// Appends fixed-width LE scalars and length-prefixed strings to a byte
/// buffer. All encode() functions below are built from this.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    // Reserve before the length prefix: GCC 12's -Wstringop-overflow
    // misfires on the insert when the push_backs above get inlined and
    // the analyzer loses track of the grown capacity.
    bytes_.reserve(bytes_.size() + 4 + s.size());
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void str_list(const std::vector<std::string>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const std::string& s : list) str(s);
  }
  void i64_list(const std::vector<long long>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const long long v : list) i64(v);
  }
  void u8_list(const std::vector<std::uint8_t>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const std::uint8_t v : list) u8(v);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// The mirror of Writer: consumes a payload, turning truncation or
/// over-long lengths into kInvalidArgument instead of UB. After a
/// failed read the reader is poisoned — further reads keep failing.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  Expected<std::uint8_t> u8();
  Expected<std::uint32_t> u32();
  Expected<std::uint64_t> u64();
  Expected<std::int64_t> i64();
  Expected<double> f64();
  Expected<std::string> str();
  Expected<std::vector<std::string>> str_list();
  Expected<std::vector<long long>> i64_list();
  Expected<std::vector<std::uint8_t>> u8_list();

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ >= size_ && !failed_; }

 private:
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- framing ---------------------------------------------------------------

/// One decoded frame: the message type plus its raw payload.
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;

  Reader reader() const { return Reader(payload); }
};

/// Serialize a frame: length prefix + type byte + payload.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);
inline std::vector<std::uint8_t> encode_frame(MsgType type, Writer writer) {
  return encode_frame(type, writer.take());
}

/// Incremental frame reassembly over an arbitrary byte stream: feed()
/// whatever the transport delivered (any chunking, including mid-prefix
/// splits), pop complete frames with next(). A malformed length prefix
/// poisons the stream permanently — the connection must be dropped.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t size) {
    buffer_.insert(buffer_.end(), data, data + size);
  }
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// kOk with a frame, kNotFound when no complete frame is buffered
  /// (with no message, so an empty drain allocates nothing),
  /// kInvalidArgument when the stream is corrupt (oversized or empty
  /// length prefix).
  Expected<Frame> next();

  bool corrupt() const { return corrupt_; }
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already handed out
  bool corrupt_ = false;
};

// --- messages --------------------------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string client_name;

  std::vector<std::uint8_t> encode() const;
  static Expected<Hello> decode(const Frame& frame);
};

struct HelloAck {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t client_id = 0;
  std::string server_name;
  /// The daemon's session epoch. A reconnecting client compares
  /// epochs — same epoch means the same daemon process, so tick-based
  /// gap accounting across the reconnect is exact; a changed epoch
  /// means the daemon restarted and the gap is unknowable.
  std::uint64_t epoch = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<HelloAck> decode(const Frame& frame);
};

struct OpenSession {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<OpenSession> decode(const Frame& frame);
};

struct OpenSessionAck {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<OpenSessionAck> decode(const Frame& frame);
};

struct AddEvents {
  std::uint32_t session_id = 0;
  std::vector<std::string> events;

  std::vector<std::uint8_t> encode() const;
  static Expected<AddEvents> decode(const Frame& frame);
};

struct AddEventsAck {
  /// Canonical (coalescing-key) names, one per added event.
  std::vector<std::string> canonical_names;

  std::vector<std::uint8_t> encode() const;
  static Expected<AddEventsAck> decode(const Frame& frame);
};

struct Start {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Start> decode(const Frame& frame);
};

struct Read {
  std::uint32_t session_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Read> decode(const Frame& frame);
};

struct ReadReply {
  std::vector<long long> values;          // one per added event
  std::vector<std::uint8_t> degraded;     // 1 = partial sum (see read_into)

  std::vector<std::uint8_t> encode() const;
  static Expected<ReadReply> decode(const Frame& frame);
};

struct Subscribe {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;
  std::vector<std::string> events;
  /// Deliver one Sample every this many daemon ticks (>= 1).
  std::uint32_t period_ticks = 1;
  /// Stream per-PMU constituent values alongside the totals.
  std::uint8_t qualified = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Subscribe> decode(const Frame& frame);
};

struct SubscribeAck {
  std::uint32_t subscription_id = 0;
  /// Identity of the server-side shared subscription this rider joined;
  /// equal ids == one coalesced EventSet (the coalescing oracle).
  std::uint32_t shared_key_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<SubscribeAck> decode(const Frame& frame);
};

struct Unsubscribe {
  std::uint32_t subscription_id = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Unsubscribe> decode(const Frame& frame);
};

/// The streamed measurement record — the wire rendition of a
/// telemetry::Sample restricted to what the daemon serves: counter
/// values (plus the qualified per-PMU breakdown on request) and the
/// package telemetry the daemon's sampler attaches when enabled.
struct WireSample {
  std::uint32_t subscription_id = 0;
  std::uint64_t tick = 0;
  double t_seconds = 0.0;
  std::vector<long long> values;
  std::vector<std::uint8_t> degraded;
  std::uint8_t counters_ok = 1;
  /// NaN when the daemon does not attach telemetry.
  double package_temp_c = 0.0;
  double package_power_w = 0.0;
  /// Per-slot constituent breakdown, flattened as (name, value) pairs
  /// per slot; empty unless the subscription asked for qualified reads.
  std::vector<std::vector<std::pair<std::string, long long>>> parts;
  /// Per-subscription delivery sequence number, starting at 1 and
  /// incremented per delivered sample. Encoded LAST so the daemon's
  /// template fan-out can patch it at frame end (like subscription_id
  /// at bytes [5,9)).
  std::uint64_t seq = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<WireSample> decode(const Frame& frame);
};

/// Join (or create) an aggregated stream for one event spec. On a
/// leaf daemon this rides the same coalesced shared subscription as a
/// qualified Subscribe; on a daemon with downstreams it fans the spec
/// out to every downstream and re-exports the merged stream. Aggregate
/// reads are always qualified — the per-core-type breakdown is the
/// point of the merge.
struct AggSubscribe {
  TargetKind target_kind = TargetKind::kDefault;
  std::int64_t target = 0;
  std::vector<std::string> events;
  std::uint32_t period_ticks = 1;

  std::vector<std::uint8_t> encode() const;
  static Expected<AggSubscribe> decode(const Frame& frame);
};

struct AggSubscribeAck {
  std::uint32_t subscription_id = 0;
  /// Identity of the server-side aggregate this rider joined (same
  /// oracle role as SubscribeAck::shared_key_id).
  std::uint32_t shared_key_id = 0;
  /// Number of merge contributors: 1 on a leaf daemon, the downstream
  /// count on an aggregator node.
  std::uint32_t fanin = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<AggSubscribeAck> decode(const Frame& frame);
};

/// Per-event-slot statistics over the aggregate's contributors
/// (ShellPM's PerfWatch gather shape: min/max/avg/σ across ranks; here
/// the "ranks" are downstream daemons, or the single local reading on
/// a leaf).
struct SlotStats {
  long long sum = 0;
  long long min = 0;
  long long max = 0;
  double avg = 0.0;
  double stddev = 0.0;  // population σ across contributors
  std::uint32_t count = 0;  // contributors folded into this slot
  /// Additive per-core-type totals, merged by label across
  /// contributors and sorted by label for byte determinism.
  std::vector<std::pair<std::string, long long>> per_core_type;
};

/// Streamed aggregate record. subscription_id is deliberately the
/// first payload field: the daemon encodes one template frame per
/// aggregate per due tick and patches bytes [5,9) per subscriber.
struct AggSample {
  std::uint32_t subscription_id = 0;
  std::uint64_t tick = 0;
  double t_seconds = 0.0;
  /// 1 when every live contributor reported this tick; 0 when the
  /// merge proceeded with a subset (a downstream was stale or dead).
  std::uint8_t complete = 1;
  std::vector<SlotStats> slots;  // one per subscribed event
  /// Per-subscription delivery sequence (see WireSample::seq).
  std::uint64_t seq = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<AggSample> decode(const Frame& frame);
};

struct GetStats {
  std::vector<std::uint8_t> encode() const;
  static Expected<GetStats> decode(const Frame& frame);
};

/// Daemon-side accounting, queryable over the wire so load generators
/// can compute the coalescing ratio without a side channel.
struct StatsReply {
  std::uint64_t ticks = 0;
  std::uint64_t backend_reads = 0;       // one per shared subscription per due tick
  std::uint64_t samples_delivered = 0;   // one per subscriber per due tick
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint32_t active_clients = 0;
  std::uint32_t active_sessions = 0;
  std::uint32_t distinct_subscriptions = 0;
  std::uint32_t total_subscribers = 0;
  std::uint32_t clients_dropped_slow = 0;
  std::uint32_t clients_closed_idle = 0;
  // Sharding + aggregation accounting.
  std::uint32_t shards = 0;
  std::uint32_t downstreams = 0;
  std::uint32_t agg_subscriptions = 0;
  std::uint64_t agg_samples_delivered = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<StatsReply> decode(const Frame& frame);
};

struct Close {
  std::vector<std::uint8_t> encode() const;
  static Expected<Close> decode(const Frame& frame);
};

struct CloseAck {
  std::vector<std::uint8_t> encode() const;
  static Expected<CloseAck> decode(const Frame& frame);
};

/// RPC failure: the StatusCode (numeric, stable) plus the daemon's
/// message and which request type it answers.
struct WireError {
  std::int32_t code = 0;
  std::uint8_t in_reply_to = 0;  // MsgType of the failed request
  std::string message;

  Status to_status() const {
    return Status(static_cast<StatusCode>(code), message);
  }

  std::vector<std::uint8_t> encode() const;
  static Expected<WireError> decode(const Frame& frame);
};

/// Server-initiated farewell (drain, idle timeout, slow-client drop).
struct Goodbye {
  std::string reason;

  std::vector<std::uint8_t> encode() const;
  static Expected<Goodbye> decode(const Frame& frame);
};

/// Liveness probe. Either side may ping; the peer echoes the token
/// in a Pong. The daemon drops a client that leaves N pings unanswered
/// (the half-dead peer with live subscriptions the idle timeout never
/// catches).
struct Ping {
  std::uint64_t token = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Ping> decode(const Frame& frame);
};

struct Pong {
  std::uint64_t token = 0;

  std::vector<std::uint8_t> encode() const;
  static Expected<Pong> decode(const Frame& frame);
};

}  // namespace hetpapi::service
