// Deterministic, seed-driven fault injection over the Transport seam —
// the wire-side sibling of papi::FaultInjectingBackend.
//
// FaultyTransport decorates Connection and Listener objects from any
// real transport (loopback in tests, unix sockets in principle) and
// injects the failure mix a production daemon's links actually see:
// short and zero-progress writes, EAGAIN bursts on receive, mid-frame
// disconnects, one-way half-closes (the peer that can hear you but not
// answer), multi-op send/receive stalls, and deferred accepts. Every
// decision is drawn from a per-link seeded xoshiro stream in a fixed
// order, so the same seed against the same op sequence reproduces the
// same faults bit-for-bit — wire chaos is a deterministic test.
//
// Like the backend injector, the decorator doubles as an accounting
// oracle: every wrapped link keeps an op ledger (sends, receives,
// bytes, faults by kind, open/closed), and open_connection_count() is
// the transport-side leak check — zero at teardown means every wrapped
// endpoint was closed no matter which faults fired.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.hpp"
#include "base/status.hpp"
#include "service/transport.hpp"

namespace hetpapi::service {

/// The wire failure model: per-op probabilities plus burst lengths.
/// All probabilities are in [0, 1] and evaluated independently per
/// send/receive/accept in a fixed order (stall replay, disconnect,
/// half-close, stall trigger, zero write, short write).
struct TransportFaultProfile {
  std::string name = "none";

  /// send() forwards only part of the submitted bytes (at least one,
  /// strictly fewer than asked) — the classic partial write.
  double short_write_prob = 0.0;
  /// send() accepts nothing this op (would-block), one op at a time.
  double zero_write_prob = 0.0;

  /// receive() reports "nothing pending" even when bytes are queued,
  /// in bursts of `eagain_burst` consecutive ops per trigger.
  double recv_eagain_prob = 0.0;
  int eagain_burst = 2;

  /// The link dies mid-op, both directions, permanently: every later
  /// send/receive fails with kNotRunning. Healing means dialing a new
  /// connection — exactly what the reconnect machinery must do.
  double disconnect_prob = 0.0;

  /// One-way death: sends fail permanently but receives keep working,
  /// so the peer's frames still arrive while ours never leave.
  double half_close_prob = 0.0;

  /// Sustained zero-progress runs: a trigger forces the next
  /// `stall_ops` sends (or receives) to report no progress.
  double send_stall_prob = 0.0;
  double recv_stall_prob = 0.0;
  int stall_ops = 4;

  /// accept() defers a pending connection with kNotFound instead of
  /// handing it over (the connection is delayed one poll, never lost).
  double accept_fail_prob = 0.0;

  /// A named profile ("none", "short-write", "eagain-burst",
  /// "mid-frame-disconnect", "half-close", "stall", "accept-flaky",
  /// "trickle", "mixed"); kInvalidArgument for unknown names.
  static Expected<TransportFaultProfile> named(std::string_view name);
  /// All names accepted by named(), for CLI help text.
  static std::vector<std::string> profile_names();
};

class FaultyTransport {
 public:
  /// Per-link op ledger: what the link did and what was injected.
  struct LinkStats {
    std::uint64_t sends = 0;
    std::uint64_t receives = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t short_writes = 0;
    std::uint64_t zero_writes = 0;
    std::uint64_t recv_eagains = 0;
    std::uint64_t stall_ops_served = 0;
    std::uint64_t severs = 0;
    std::uint64_t half_closes = 0;
    bool open = true;

    std::uint64_t total_injected() const {
      return short_writes + zero_writes + recv_eagains + stall_ops_served +
             severs + half_closes;
    }
  };

  FaultyTransport(TransportFaultProfile profile, std::uint64_t seed)
      : profile_(std::move(profile)), seed_(seed) {}

  /// Decorate one endpoint. Links are indexed in wrap order (accepted
  /// connections wrap through the listener and count too); each link
  /// gets its own rng stream seeded from (seed, index) so fault
  /// schedules stay stable however ops interleave across links.
  std::unique_ptr<Connection> wrap(std::unique_ptr<Connection> inner);

  /// Decorate a listener. The wrapper is owned by this transport and
  /// returned non-owning (Daemon::add_listener style); `inner` must
  /// outlive the transport. Accepted connections come back pre-wrapped.
  Listener* wrap_listener(Listener* inner);

  /// Kill link `index` now, both directions — the scripted mid-frame
  /// disconnect. The underlying connection is closed, so a loopback
  /// peer observes a real writer-closed pipe. Healing requires a new
  /// connection; the severed link never recovers.
  void sever(std::size_t index);
  void sever_all();

  std::size_t link_count() const { return links_.size(); }
  const LinkStats& link_stats(std::size_t index) const {
    return links_[index]->stats;
  }
  /// Wrapped endpoints not yet closed — the transport-side leak oracle.
  std::size_t open_connection_count() const;
  /// Injected faults across every link plus deferred accepts.
  std::uint64_t total_injected() const;
  std::uint64_t accept_deferrals() const { return accept_deferrals_; }

  const TransportFaultProfile& profile() const { return profile_; }

 private:
  /// Shared between the transport (for sever()/ledger access) and the
  /// wrapped endpoint; outlives the endpoint so post-close stats reads
  /// are safe.
  struct LinkCtl {
    explicit LinkCtl(std::uint64_t seed) : rng(seed) {}
    Rng rng;
    LinkStats stats;
    bool severed = false;
    bool half_closed = false;
    int send_stall_remaining = 0;
    int recv_stall_remaining = 0;
    /// Raw view of the wrapped endpoint's inner connection while the
    /// endpoint is alive; cleared on close so sever() never dangles.
    Connection* inner_raw = nullptr;
  };

  /// Keeps the default notify_readable() (poll every time) on purpose:
  /// an injected EAGAIN or stall reports 0 while bytes are pending, and
  /// a forwarded edge-triggered hook would leave those bytes stranded.
  class FaultyConnection final : public Connection {
   public:
    FaultyConnection(TransportFaultProfile profile,
                     std::shared_ptr<LinkCtl> ctl,
                     std::unique_ptr<Connection> inner)
        : profile_(std::move(profile)),
          ctl_(std::move(ctl)),
          inner_(std::move(inner)) {
      ctl_->inner_raw = inner_.get();
    }
    ~FaultyConnection() override { close(); }

    Expected<std::size_t> send(const std::uint8_t* data,
                               std::size_t size) override;
    Expected<std::size_t> receive(std::vector<std::uint8_t>& out) override;
    void close() override;
    bool is_open() const override {
      return ctl_->stats.open && !ctl_->severed;
    }

   private:
    TransportFaultProfile profile_;
    std::shared_ptr<LinkCtl> ctl_;
    std::unique_ptr<Connection> inner_;
  };

  class FaultyListener final : public Listener {
   public:
    FaultyListener(FaultyTransport* transport, Listener* inner)
        : transport_(transport), inner_(inner) {}
    Expected<std::unique_ptr<Connection>> accept() override;

   private:
    FaultyTransport* transport_;
    Listener* inner_;
    /// Connections a triggered accept fault deferred; handed out (in
    /// order, no re-roll) before the inner listener is polled again.
    std::deque<std::unique_ptr<Connection>> delayed_;
  };

  std::shared_ptr<LinkCtl> new_link();

  TransportFaultProfile profile_;
  std::uint64_t seed_;
  /// Accept-fault decisions draw from their own stream so adding a
  /// link never perturbs the accept schedule.
  Rng accept_rng_{0};
  bool accept_rng_seeded_ = false;
  std::vector<std::shared_ptr<LinkCtl>> links_;  // in wrap order
  std::vector<std::unique_ptr<FaultyListener>> listeners_;
  std::uint64_t accept_deferrals_ = 0;
};

}  // namespace hetpapi::service
