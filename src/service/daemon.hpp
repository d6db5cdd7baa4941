// hetpapid: the counter-service daemon.
//
// One Daemon owns one papi::Library (and through it the backend — sim,
// Linux, or a FaultInjectingBackend decorating either) and serves many
// concurrent client sessions over any Transport. Its two entry points
// are deliberately split so a test or an embedding tool can drive them
// deterministically:
//
//   poll() — accept pending connections, drain client bytes, dispatch
//            complete frames, flush send queues. Never blocks, and
//            visits only the clients with something to do (see
//            poll() below), so its cost follows activity, not the
//            number of connected clients.
//   tick() — one sampling tick: read every *distinct* shared
//            subscription once and fan the sample out to all of its
//            subscribers. Also runs idle-timeout and backpressure
//            enforcement, and (on an aggregator node) pumps the
//            downstream daemons and emits merged aggregate samples.
//
// Shared-subscription coalescing is the scaling mechanism: sessions
// subscribing to the same (target, ordered canonical event list,
// period, qualified) key share one reference-counted server-side
// EventSet, so per-tick backend read calls scale with the number of
// distinct subscriptions, not with the number of clients. The
// canonicalization goes through Library::canonical_event_name, so
// "papi_tot_ins" and "PAPI_TOT_INS" land on the same key.
//
// The c10k fan-out path is sharded: clients are assigned to
// config.shards session shards on accept (round-robin by client id),
// sample encoding produces ONE template frame per distinct due
// subscription (subscription_id is the first payload field, so the
// per-rider copy just patches 4 bytes), and delivery runs one job per
// shard on the encode pool. A client lives in exactly one shard and
// per-shard jobs only touch their own clients plus a private counter
// slot, so the stage is lock-free by partitioning; counters merge
// serially afterwards. Per-client enqueue order follows the global
// (key_id, subscribe order) delivery list regardless of shard count,
// which is what the shards-1-vs-4-vs-16 byte-determinism goldens pin.
//
// Aggregation tree: add_downstream() hands the daemon a service::Client
// connected to another hetpapid. A SubscribeAggregate on a daemon
// *without* downstreams (a leaf) rides the same coalesced shared
// subscription as a qualified Subscribe and streams AggSample frames
// with count=1 statistics — so a merged aggregate is, by construction,
// comparable to a direct subscription. On a daemon *with* downstreams
// the spec fans out to every live downstream; tick() pumps the
// downstream clients, folds their AggSamples (ShellPM's gather shape:
// sum/min/max/avg and exact population-σ composition across the tree)
// and re-exports the merged per-core-type stream. One dead or stale
// downstream marks the merge incomplete but never stalls siblings.
//
// Robustness reuses PR 4's machinery: per-client send queues are capped
// (a slow client is dropped, never allowed to wedge the daemon), idle
// clients without subscriptions time out, shutdown() drains gracefully,
// and running the whole daemon behind a FaultInjectingBackend turns a
// chaos soak into a deterministic test with the live-fd ledger as the
// leak oracle.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.hpp"
#include "papi/library.hpp"
#include "service/client.hpp"
#include "service/proto.hpp"
#include "service/transport.hpp"
#include "telemetry/sampler.hpp"

namespace hetpapi::service {

struct DaemonConfig {
  std::string name = "hetpapid";
  /// Frames a client may have queued before it is dropped as slow.
  std::size_t max_client_queue_frames = 256;
  /// Ticks without traffic after which a subscription-less client is
  /// disconnected (0 = never).
  std::uint64_t idle_timeout_ticks = 0;
  /// Worker threads for template encoding and per-shard delivery (the
  /// reads stay serial — the backend is single-threaded); frames are
  /// merged in deterministic order, so the byte stream every client
  /// sees is identical for any thread count.
  std::size_t encode_threads = 1;
  /// Session shards the fan-out partitions clients across (>= 1).
  /// Purely a parallelism knob: the byte stream every client sees is
  /// identical for any shard count.
  std::size_t shards = 1;
  /// Attach package temperature / power (via a telemetry::Sampler over
  /// the kernel) to every streamed sample.
  bool include_telemetry = false;
  /// Session epoch advertised in every HelloAck. A reconnecting
  /// client compares epochs to tell "same daemon process" (tick-based
  /// gap accounting is exact) from "daemon restarted" (gap unknowable).
  /// Caller-provided rather than derived from wall clock or a global
  /// counter so runs stay byte-deterministic.
  std::uint64_t epoch = 1;
  /// Liveness: ping every helloed client whose last traffic is this
  /// many ticks old (0 = pings disabled). A client that misses
  /// `ping_max_missed` consecutive ping deadlines is dropped even if it
  /// still holds subscriptions — a half-open peer must not hold
  /// resources forever.
  std::uint64_t ping_interval_ticks = 0;
  std::uint32_t ping_max_missed = 3;
  /// Admission control (0 = unlimited): connections beyond max_clients
  /// are refused at accept with kOverloaded; subscriptions beyond
  /// max_subscriptions per client are refused with kOverloaded.
  std::size_t max_clients = 0;
  std::size_t max_subscriptions = 0;
  /// Upper bound on send() calls per client during the shutdown drain
  /// flush (0 = unlimited). A peer that accepts one byte at a time must
  /// not be able to wedge shutdown().
  std::size_t shutdown_max_flush_ops = 4096;
  /// Forwarded to papi::Library::init.
  papi::LibraryConfig library{};
};

/// Daemon-side accounting; the wire StatsReply is built from this.
struct DaemonStats {
  std::uint64_t ticks = 0;
  std::uint64_t backend_reads = 0;
  std::uint64_t samples_delivered = 0;
  std::uint64_t agg_samples_delivered = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint32_t clients_dropped_slow = 0;
  std::uint32_t clients_closed_idle = 0;
  std::uint32_t protocol_errors = 0;
  // Self-healing accounting.
  std::uint64_t reconnects = 0;            // downstream re-dial attempts
  std::uint64_t downstream_reheals = 0;    // legs fully re-subscribed
  std::uint64_t pings_missed = 0;          // liveness deadlines blown
  std::uint64_t clients_dropped_liveness = 0;
  std::uint64_t overload_rejections = 0;   // admission-control refusals
};

class Daemon {
 public:
  /// `kernel` may be null when the backend is not sim-based (no
  /// telemetry attachment, t_seconds counts ticks); `backend` must
  /// outlive the daemon.
  Daemon(simkernel::SimKernel* kernel, papi::Backend* backend,
         DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Build the library over the backend. Must be called (and succeed)
  /// before the first poll().
  Status init();

  /// Register a transport listener (non-owning; multiple allowed).
  void add_listener(Listener* listener);

  /// Make this daemon an aggregator node: adopt a client connected to a
  /// downstream hetpapid. The handshake runs here; a downstream whose
  /// hello fails is kept (indices stay stable) but marked dead. Add
  /// every downstream before the first SubscribeAggregate arrives —
  /// later additions only serve aggregates created after them.
  /// With a non-empty `factory` the leg self-heals: when its link dies,
  /// tick() re-dials through the factory under tick-based exponential
  /// backoff, re-handshakes, and re-subscribes every aggregate's leg so
  /// merges reconverge to complete=1. Without a factory a dead leg
  /// stays dead (the pre-PR-9 degraded-merge behaviour).
  void add_downstream(std::unique_ptr<Client> client,
                      ConnectionFactory factory = {});

  /// Serve the clients that have work: those whose connection fired
  /// its notify_readable() hook since their last drain, those whose
  /// connection cannot tell (polled every time), newly accepted ones,
  /// and those with output a previous flush could not finish. They
  /// are drained, then flushed, in client-id order — the clients_
  /// order — so every byte stream matches a visit of every client.
  /// Hooks that fire while the pass runs (a nested pump) are served
  /// by the next poll(). An idle client that can signal costs nothing.
  void poll();
  /// One sampling tick; ends with a flush and reap of every client.
  void tick();

  /// Graceful drain: Goodbye to every client, bounded flush, close all
  /// connections and downstream links, release every EventSet. After
  /// this the backend's fd ledger must be empty. Idempotent.
  void shutdown();

  const DaemonStats& stats() const { return stats_; }
  std::size_t client_count() const { return clients_.size(); }
  std::size_t session_count() const;
  std::size_t distinct_subscription_count() const { return shared_subs_.size(); }
  std::size_t total_subscriber_count() const;
  std::size_t downstream_count() const { return downstreams_.size(); }
  std::size_t live_downstream_count() const;
  std::size_t aggregate_subscription_count() const { return agg_subs_.size(); }
  std::size_t shard_count() const { return shard_count_; }

  papi::Library* library() { return library_.get(); }

 private:
  struct Session {
    int eventset = -1;
    std::vector<std::string> canonical_names;
  };

  /// One subscriber of a shared (coalesced) subscription, in subscribe
  /// order. Aggregate riders joined via SubscribeAggregate on a leaf
  /// daemon; they receive AggSample frames built from the same read.
  struct Rider {
    std::uint32_t client_id = 0;
    std::uint32_t subscription_id = 0;
    bool aggregate = false;
    /// Delivery sequence for THIS rider, bumped serially while the
    /// delivery list is built (first delivered sample carries seq 1).
    /// A resubscribe after reconnect is a new rider, so the client's
    /// expectation of a fresh sequence holds by construction.
    std::uint64_t seq = 0;
  };

  struct SharedSubscription {
    std::uint32_t key_id = 0;
    std::string key;
    int eventset = -1;
    std::uint32_t period_ticks = 1;
    bool qualified = false;
    /// The refcount is subscribers.size().
    std::vector<Rider> subscribers;
  };

  /// Per-downstream contribution state of one aggregate, index-aligned
  /// with downstreams_.
  struct DownstreamState {
    std::uint32_t sub_id = 0;  // downstream's subscription id; 0 = dead
    bool reported = false;     // ever delivered a sample
    bool fresh = false;        // delivered since the last merge
    AggSample latest;
  };

  /// One coalesced aggregate on a node with downstreams (leaf-side
  /// aggregates live inside SharedSubscription instead).
  struct AggregateShared {
    std::uint32_t key_id = 0;
    std::string key;
    /// The original wire spec, kept so a healed downstream leg can be
    /// re-subscribed verbatim.
    AggSubscribe spec;
    std::uint32_t period_ticks = 1;
    std::size_t slot_count = 0;
    std::vector<DownstreamState> downstream;
    std::vector<Rider> subscribers;
  };

  struct Downstream {
    std::unique_ptr<Client> client;
    bool alive = false;
    /// Self-heal policy: empty = leg stays dead once its link dies.
    ConnectionFactory factory;
    std::uint64_t next_retry_tick = 0;
    std::uint64_t backoff_ticks = 1;
  };

  struct PendingBytes {
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;
  };

  struct ClientState {
    std::uint32_t id = 0;
    /// Which fan-out shard delivers to this client.
    std::size_t shard = 0;
    std::unique_ptr<Connection> conn;
    FrameReader reader;
    /// The connection cannot signal readiness: poll() visits it always.
    bool poll_always = false;
    /// On ready_, so the next poll() visits it.
    bool ready = false;
    bool hello_done = false;
    /// Flush-then-close: set after Close/Goodbye.
    bool closing = false;
    std::uint64_t last_activity_tick = 0;
    // Liveness (when ping_interval_ticks > 0): traffic in
    // either direction counts as proof of life; otherwise a Ping goes
    // out and the peer has one interval per deadline to answer.
    std::uint64_t ping_sent_tick = 0;
    bool ping_outstanding = false;
    std::uint32_t pings_missed = 0;
    std::deque<PendingBytes> out;
    std::map<std::uint32_t, Session> sessions;
    /// subscription_id -> shared key_id.
    std::map<std::uint32_t, std::uint32_t> subscriptions;
    /// subscription_id -> aggregate key_id (node-side aggregates only).
    std::map<std::uint32_t, std::uint32_t> agg_subscriptions;
  };

  /// One pending frame hand-off of the batched fan-out: copy the
  /// rider's template, patch bytes [5,9) with the subscription id and
  /// the trailing 8-byte seq, enqueue.
  struct Delivery {
    std::uint32_t client_id = 0;
    std::uint32_t subscription_id = 0;
    std::size_t template_index = 0;
    bool aggregate = false;
    std::uint64_t seq = 0;
  };

  void accept_pending();
  void drain_client(ClientState& client);
  void dispatch(ClientState& client, const Frame& frame);
  /// Flush the send queue; `max_ops` bounds the number of send() calls
  /// (0 = until done or would-block) so a byte-at-a-time peer cannot
  /// wedge the caller.
  void flush_client(ClientState& client, std::size_t max_ops = 0);
  void enforce_queue_cap(ClientState& client);
  /// Put a client on ready_ once.
  void mark_ready(ClientState& client);
  /// Cap and flush one client; keep it on ready_ while the next poll()
  /// cannot skip it (output left, or a connection that cannot signal).
  void flush_pending(ClientState& client);
  void reap_closed();
  /// Re-dial, re-handshake, and re-subscribe dead downstream legs that
  /// have a factory and are past their backoff deadline.
  void heal_downstreams();
  /// Ping clients that have been silent too long; drop the ones that
  /// blew ping_max_missed deadlines.
  void enforce_liveness();

  void enqueue(ClientState& client, MsgType type,
               const std::vector<std::uint8_t>& payload);
  void enqueue_error(ClientState& client, MsgType in_reply_to, const Status& s);

  // Frame handlers (client already authenticated unless noted).
  void on_hello(ClientState& client, const Frame& frame);
  void on_open_session(ClientState& client, const Frame& frame);
  void on_add_events(ClientState& client, const Frame& frame);
  void on_start(ClientState& client, const Frame& frame);
  void on_read(ClientState& client, const Frame& frame);
  void on_subscribe(ClientState& client, const Frame& frame);
  void on_subscribe_aggregate(ClientState& client, const Frame& frame);
  void on_unsubscribe(ClientState& client, const Frame& frame);
  void on_get_stats(ClientState& client, const Frame& frame);
  void on_close(ClientState& client, const Frame& frame);

  /// Build (or join) the shared subscription for a canonicalized spec;
  /// returns the key_id.
  Expected<std::uint32_t> join_subscription(ClientState& client,
                                            std::uint32_t subscription_id,
                                            const Subscribe& spec,
                                            bool aggregate);
  /// Drop one subscriber; tears the EventSet down on the last one.
  void leave_subscription(std::uint32_t client_id, std::uint32_t sub_id,
                          std::uint32_t key_id);
  /// Build (or join) a node-side aggregate, fanning the spec out to
  /// every live downstream; returns the aggregate key_id.
  Expected<std::uint32_t> join_aggregate(ClientState& client,
                                         std::uint32_t subscription_id,
                                         const AggSubscribe& spec);
  /// Drop one aggregate rider; unsubscribes the downstreams on the
  /// last one.
  void leave_aggregate(std::uint32_t client_id, std::uint32_t sub_id,
                       std::uint32_t key_id);
  /// Release everything a departing client holds.
  void teardown_client(ClientState& client);

  /// Bind a fresh EventSet to a wire target and event list.
  Expected<int> build_eventset(TargetKind kind, std::int64_t target,
                               const std::vector<std::string>& events,
                               std::vector<std::string>* canonical_out);

  void serve_subscriptions();
  void serve_aggregates();
  /// The sharded fan-out tail shared by both serve paths: bucket the
  /// deliveries by client shard, run one patch-and-enqueue job per
  /// shard (parallel on the encode pool, lock-free by partitioning),
  /// then fold the per-shard counters into stats_ serially.
  void deliver(const std::vector<std::vector<std::uint8_t>>& templates,
               const std::vector<Delivery>& deliveries);
  /// Fold every reported downstream contribution of one aggregate into
  /// a merged sample (exact hierarchical min/max/avg/σ composition).
  AggSample merge_aggregate(const AggregateShared& agg) const;

  simkernel::SimKernel* kernel_;
  papi::Backend* backend_;
  DaemonConfig config_;
  std::unique_ptr<papi::Library> library_;
  std::unique_ptr<telemetry::Sampler> sampler_;
  std::unique_ptr<ThreadPool> encode_pool_;

  std::vector<Listener*> listeners_;
  /// Insertion-ordered so poll()/tick() visit clients deterministically.
  std::vector<std::unique_ptr<ClientState>> clients_;
  /// The fan-out index: client id -> state, so delivery is O(1) per
  /// frame instead of a linear scan over every connected client.
  std::unordered_map<std::uint32_t, ClientState*> clients_by_id_;
  /// Ids of the clients the next poll() visits, each once: new ones,
  /// ones whose hook fired, ones that cannot signal and ones with
  /// output left. An id whose client has gone is skipped.
  std::vector<std::uint32_t> ready_;
  /// poll()'s visit list, by id and resolved; kept for capacity reuse.
  std::vector<std::uint32_t> visit_ids_;
  std::vector<ClientState*> visit_;
  std::map<std::uint32_t, SharedSubscription> shared_subs_;  // by key_id
  std::map<std::string, std::uint32_t> key_ids_;             // key -> key_id
  std::vector<Downstream> downstreams_;
  std::map<std::uint32_t, AggregateShared> agg_subs_;  // by agg key_id
  std::map<std::string, std::uint32_t> agg_key_ids_;
  /// serve_subscriptions' per-core-type read target, kept across ticks
  /// for capacity reuse.
  std::vector<papi::QualifiedReading> qualified_scratch_;

  DaemonStats stats_;
  std::size_t shard_count_ = 1;
  std::uint32_t next_client_id_ = 1;
  std::uint32_t next_session_id_ = 1;
  std::uint32_t next_subscription_id_ = 1;
  std::uint32_t next_key_id_ = 1;
  std::uint32_t next_agg_key_id_ = 1;
  bool shut_down_ = false;
};

}  // namespace hetpapi::service
