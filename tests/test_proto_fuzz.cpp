// Seeded fuzz battery over the hetpapid wire protocol.
//
// Three invariant families, each driven by deterministic mt19937_64
// streams (a failure reproduces from its seed):
//
//   1. Round trip: every encodeable message type, filled with random
//      field values (including arbitrary f64 bit patterns), survives
//      encode -> frame -> FrameReader -> decode -> re-encode with
//      byte-identical payloads. Encoding is canonical, so comparing
//      bytes also proves field fidelity without NaN-equality traps.
//   2. Corruption: a truncated payload never decodes (every message
//      has exactly one wire shape, so no strict prefix of a valid
//      payload is itself valid); single-bit flips and oversized or
//      zero length prefixes must yield a decode error or a canonical
//      re-encode — never a crash, over-read, or unbounded allocation
//      (the suite runs under ASan/UBSan in the chaos CI shard).
//   3. Garbage streams: random byte soup fed to a FrameReader in
//      random chunks either reassembles into frames (whose payloads
//      are then thrown at every decoder) or poisons the reader; both
//      are fine, crashing is not.
//
// Case volume: kRounds rounds x (24 message shapes x 3 mutations)
// plus the stream soup — comfortably past 10k cases per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "service/proto.hpp"

namespace hetpapi {
namespace {

using namespace hetpapi::service;

using Bytes = std::vector<std::uint8_t>;
using Rng = std::mt19937_64;

constexpr int kRounds = 160;  // 160 * 24 * 3 = 11520 mutation cases

std::string rand_str(Rng& rng) {
  std::string s;
  const std::size_t len = rng() % 13;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng() % 256));
  }
  return s;
}

std::vector<std::string> rand_str_list(Rng& rng) {
  std::vector<std::string> out;
  const std::size_t len = rng() % 4;
  for (std::size_t i = 0; i < len; ++i) out.push_back(rand_str(rng));
  return out;
}

std::vector<long long> rand_i64_list(Rng& rng) {
  std::vector<long long> out;
  const std::size_t len = rng() % 4;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<long long>(rng()));
  }
  return out;
}

std::vector<std::uint8_t> rand_u8_list(Rng& rng) {
  std::vector<std::uint8_t> out;
  const std::size_t len = rng() % 4;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<std::uint8_t>(rng()));
  }
  return out;
}

/// Any f64 bit pattern (infs, NaNs, subnormals included): the wire
/// carries raw bits, so every pattern must survive unchanged.
double rand_f64(Rng& rng) {
  const std::uint64_t bits = rng();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TargetKind rand_kind(Rng& rng) {
  return static_cast<TargetKind>(rng() % 3);
}

std::vector<std::pair<std::string, long long>> rand_parts(Rng& rng) {
  std::vector<std::pair<std::string, long long>> out;
  const std::size_t len = rng() % 4;
  for (std::size_t i = 0; i < len; ++i) {
    out.emplace_back(rand_str(rng), static_cast<long long>(rng()));
  }
  return out;
}

/// Decode `frame` as M; on success return the canonical re-encoding,
/// on failure nullopt. The fuzz invariants only ever need this pair.
template <typename M>
std::optional<Bytes> redecode(const Frame& frame) {
  auto m = M::decode(frame);
  if (!m.has_value()) return std::nullopt;
  return m->encode();
}

struct Shape {
  MsgType type;
  Bytes (*gen)(Rng&);
  std::optional<Bytes> (*redec)(const Frame&);
};

const Shape kShapes[] = {
    {MsgType::kHello,
     [](Rng& rng) {
       Hello m;
       m.version = static_cast<std::uint32_t>(rng());
       m.client_name = rand_str(rng);
       return m.encode();
     },
     &redecode<Hello>},
    {MsgType::kHelloAck,
     [](Rng& rng) {
       HelloAck m;
       m.version = static_cast<std::uint32_t>(rng());
       m.client_id = static_cast<std::uint32_t>(rng());
       m.server_name = rand_str(rng);
       m.epoch = rng();
       return m.encode();
     },
     &redecode<HelloAck>},
    {MsgType::kOpenSession,
     [](Rng& rng) {
       OpenSession m;
       m.target_kind = rand_kind(rng);
       m.target = static_cast<std::int64_t>(rng());
       return m.encode();
     },
     &redecode<OpenSession>},
    {MsgType::kOpenSessionAck,
     [](Rng& rng) {
       OpenSessionAck m;
       m.session_id = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<OpenSessionAck>},
    {MsgType::kAddEvents,
     [](Rng& rng) {
       AddEvents m;
       m.session_id = static_cast<std::uint32_t>(rng());
       m.events = rand_str_list(rng);
       return m.encode();
     },
     &redecode<AddEvents>},
    {MsgType::kAddEventsAck,
     [](Rng& rng) {
       AddEventsAck m;
       m.canonical_names = rand_str_list(rng);
       return m.encode();
     },
     &redecode<AddEventsAck>},
    {MsgType::kStart,
     [](Rng& rng) {
       Start m;
       m.session_id = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<Start>},
    {MsgType::kRead,
     [](Rng& rng) {
       Read m;
       m.session_id = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<Read>},
    {MsgType::kReadReply,
     [](Rng& rng) {
       ReadReply m;
       m.values = rand_i64_list(rng);
       m.degraded = rand_u8_list(rng);
       return m.encode();
     },
     &redecode<ReadReply>},
    {MsgType::kSubscribe,
     [](Rng& rng) {
       Subscribe m;
       m.target_kind = rand_kind(rng);
       m.target = static_cast<std::int64_t>(rng());
       m.events = rand_str_list(rng);
       m.period_ticks = static_cast<std::uint32_t>(rng());
       m.qualified = static_cast<std::uint8_t>(rng());
       return m.encode();
     },
     &redecode<Subscribe>},
    {MsgType::kSubscribeAck,
     [](Rng& rng) {
       SubscribeAck m;
       m.subscription_id = static_cast<std::uint32_t>(rng());
       m.shared_key_id = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<SubscribeAck>},
    {MsgType::kUnsubscribe,
     [](Rng& rng) {
       Unsubscribe m;
       m.subscription_id = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<Unsubscribe>},
    {MsgType::kSample,
     [](Rng& rng) {
       WireSample m;
       m.subscription_id = static_cast<std::uint32_t>(rng());
       m.tick = rng();
       m.t_seconds = rand_f64(rng);
       m.values = rand_i64_list(rng);
       m.degraded = rand_u8_list(rng);
       m.counters_ok = static_cast<std::uint8_t>(rng());
       m.package_temp_c = rand_f64(rng);
       m.package_power_w = rand_f64(rng);
       const std::size_t slots = rng() % 3;
       for (std::size_t i = 0; i < slots; ++i) m.parts.push_back(rand_parts(rng));
       m.seq = rng();
       return m.encode();
     },
     &redecode<WireSample>},
    {MsgType::kSubscribeAggregate,
     [](Rng& rng) {
       AggSubscribe m;
       m.target_kind = rand_kind(rng);
       m.target = static_cast<std::int64_t>(rng());
       m.events = rand_str_list(rng);
       m.period_ticks = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<AggSubscribe>},
    {MsgType::kSubscribeAggregateAck,
     [](Rng& rng) {
       AggSubscribeAck m;
       m.subscription_id = static_cast<std::uint32_t>(rng());
       m.shared_key_id = static_cast<std::uint32_t>(rng());
       m.fanin = static_cast<std::uint32_t>(rng());
       return m.encode();
     },
     &redecode<AggSubscribeAck>},
    {MsgType::kAggSample,
     [](Rng& rng) {
       AggSample m;
       m.subscription_id = static_cast<std::uint32_t>(rng());
       m.tick = rng();
       m.t_seconds = rand_f64(rng);
       m.complete = static_cast<std::uint8_t>(rng());
       const std::size_t slots = rng() % 3;
       for (std::size_t i = 0; i < slots; ++i) {
         SlotStats slot;
         slot.sum = static_cast<long long>(rng());
         slot.min = static_cast<long long>(rng());
         slot.max = static_cast<long long>(rng());
         slot.avg = rand_f64(rng);
         slot.stddev = rand_f64(rng);
         slot.count = static_cast<std::uint32_t>(rng());
         slot.per_core_type = rand_parts(rng);
         m.slots.push_back(std::move(slot));
       }
       m.seq = rng();
       return m.encode();
     },
     &redecode<AggSample>},
    {MsgType::kGetStats, [](Rng&) { return GetStats{}.encode(); },
     &redecode<GetStats>},
    {MsgType::kStatsReply,
     [](Rng& rng) {
       StatsReply m;
       m.ticks = rng();
       m.backend_reads = rng();
       m.samples_delivered = rng();
       m.frames_received = rng();
       m.frames_sent = rng();
       m.active_clients = static_cast<std::uint32_t>(rng());
       m.active_sessions = static_cast<std::uint32_t>(rng());
       m.distinct_subscriptions = static_cast<std::uint32_t>(rng());
       m.total_subscribers = static_cast<std::uint32_t>(rng());
       m.clients_dropped_slow = static_cast<std::uint32_t>(rng());
       m.clients_closed_idle = static_cast<std::uint32_t>(rng());
       m.shards = static_cast<std::uint32_t>(rng());
       m.downstreams = static_cast<std::uint32_t>(rng());
       m.agg_subscriptions = static_cast<std::uint32_t>(rng());
       m.agg_samples_delivered = rng();
       return m.encode();
     },
     &redecode<StatsReply>},
    {MsgType::kClose, [](Rng&) { return Close{}.encode(); },
     &redecode<Close>},
    {MsgType::kCloseAck, [](Rng&) { return CloseAck{}.encode(); },
     &redecode<CloseAck>},
    {MsgType::kError,
     [](Rng& rng) {
       WireError m;
       m.code = static_cast<std::int32_t>(rng());
       m.in_reply_to = static_cast<std::uint8_t>(rng());
       m.message = rand_str(rng);
       return m.encode();
     },
     &redecode<WireError>},
    {MsgType::kGoodbye,
     [](Rng& rng) {
       Goodbye m;
       m.reason = rand_str(rng);
       return m.encode();
     },
     &redecode<Goodbye>},
    {MsgType::kPing,
     [](Rng& rng) {
       Ping m;
       m.token = rng();
       return m.encode();
     },
     &redecode<Ping>},
    {MsgType::kPong,
     [](Rng& rng) {
       Pong m;
       m.token = rng();
       return m.encode();
     },
     &redecode<Pong>},
};

/// Pull the payload back out through the framing layer, proving the
/// frame round trip along the way.
Bytes through_framing(MsgType type, const Bytes& payload) {
  FrameReader reader;
  reader.feed(encode_frame(type, payload));
  auto frame = reader.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, type);
  // Exactly one frame came out of the stream.
  EXPECT_FALSE(reader.next().has_value());
  return frame.has_value() ? frame->payload : Bytes{};
}

TEST(ProtoFuzz, EveryMessageShapeRoundTripsSeededRandomContent) {
  Rng rng(0xc10c5eed);
  for (int round = 0; round < kRounds; ++round) {
    for (const Shape& shape : kShapes) {
      const Bytes payload = shape.gen(rng);
      SCOPED_TRACE(std::string(to_string(shape.type)) + " round " +
                   std::to_string(round));
      Frame frame;
      frame.type = shape.type;
      frame.payload = through_framing(shape.type, payload);
      const auto reencoded = shape.redec(frame);
      ASSERT_TRUE(reencoded.has_value());
      EXPECT_EQ(*reencoded, payload);
    }
  }
}

TEST(ProtoFuzz, TruncationsNeverCrashAndNeverDecodeNonCanonically) {
  Rng rng(0x7a11caded);
  for (int round = 0; round < kRounds; ++round) {
    for (const Shape& shape : kShapes) {
      const Bytes payload = shape.gen(rng);
      if (payload.empty()) continue;
      Frame frame;
      frame.type = shape.type;
      frame.payload = payload;
      frame.payload.resize(rng() % payload.size());  // strictly shorter
      SCOPED_TRACE(std::string(to_string(shape.type)) + " cut to " +
                   std::to_string(frame.payload.size()) + " of " +
                   std::to_string(payload.size()));
      // One wire shape per message: a strictly shorter payload is
      // never a valid frame, not even one that ends on a field boundary.
      EXPECT_FALSE(shape.redec(frame).has_value());
    }
  }
}

TEST(ProtoFuzz, SingleBitFlipsNeverCrashAndStayCanonical) {
  Rng rng(0xb17f11b5);
  for (int round = 0; round < kRounds; ++round) {
    for (const Shape& shape : kShapes) {
      Bytes payload = shape.gen(rng);
      if (payload.empty()) continue;
      const std::size_t byte = rng() % payload.size();
      const std::uint8_t bit = 1u << (rng() % 8);
      payload[byte] ^= bit;
      SCOPED_TRACE(std::string(to_string(shape.type)) + " flipped byte " +
                   std::to_string(byte));
      Frame frame;
      frame.type = shape.type;
      frame.payload = payload;
      const auto reencoded = shape.redec(frame);
      if (reencoded.has_value()) {
        // A surviving decode must re-encode to exactly the mutated
        // bytes: no silent resynthesis of different wire content.
        EXPECT_EQ(*reencoded, payload);
      }
    }
  }
}

// GCC 12's -Wstringop-overflow misfires on FrameReader::feed's fully
// inlined vector insert (same analyzer bug Writer::str works around).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
TEST(ProtoFuzz, OversizedAndZeroLengthPrefixesPoisonTheFrameReader) {
  Rng rng(0x0ff5e7);
  for (int round = 0; round < 64; ++round) {
    // Impossible length prefixes: zero (the length covers the type
    // byte) and beyond-kMaxFrameBytes. Built as a raw array — GCC 12's
    // -Wstringop-overflow misfires on a fully inlined Writer here.
    const std::uint32_t bad =
        round % 2 == 0
            ? 0u
            : kMaxFrameBytes + 1 + static_cast<std::uint32_t>(rng() % 1024);
    std::uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<std::uint8_t>((bad >> (8 * i)) & 0xffu);
    }
    FrameReader reader;
    reader.feed(prefix, sizeof(prefix));
    auto frame = reader.next();
    ASSERT_FALSE(frame.has_value());
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(reader.corrupt());
    // Poisoned for good: feeding a well-formed frame afterwards does
    // not resurrect the stream.
    reader.feed(encode_frame(MsgType::kGetStats, GetStats{}.encode()));
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.corrupt());
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST(ProtoFuzz, RandomByteSoupNeverCrashesReaderOrDecoders) {
  Rng rng(0x5009deed);
  for (int round = 0; round < 256; ++round) {
    Bytes soup;
    const std::size_t len = 1 + rng() % 512;
    soup.reserve(len);
    // Half the rounds bias the first bytes toward plausible small
    // length prefixes so the soup regularly clears framing and reaches
    // the message decoders.
    if (round % 2 == 0) {
      const std::uint32_t claimed = 1 + static_cast<std::uint32_t>(rng() % 64);
      for (int i = 0; i < 4; ++i) {
        soup.push_back(static_cast<std::uint8_t>((claimed >> (8 * i)) & 0xffu));
      }
    }
    while (soup.size() < len) {
      soup.push_back(static_cast<std::uint8_t>(rng()));
    }

    FrameReader reader;
    std::size_t fed = 0;
    while (fed < soup.size()) {
      const std::size_t chunk = std::min(soup.size() - fed, 1 + rng() % 7);
      reader.feed(soup.data() + fed, chunk);
      fed += chunk;
      for (;;) {
        auto frame = reader.next();
        if (!frame.has_value()) break;
        // Whatever reassembled, every decoder must survive it.
        for (const Shape& shape : kShapes) {
          (void)shape.redec(*frame);
        }
      }
      if (reader.corrupt()) break;
    }
  }
}

}  // namespace
}  // namespace hetpapi
