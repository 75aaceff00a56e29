// The SIP proxy server.
//
// Functionally an OpenSER-alike: it routes requests by domain hierarchy,
// consults a location service at the exit hop, optionally verifies Digest
// credentials, and — per request — handles the transaction either
// *statefully* (server+client transaction pair, retransmission absorption,
// a locally generated 100 Trying) or *statelessly* (deterministic-branch
// Via push and blind forward). Which of the two happens per request is the
// StatePolicy's call: static policies model today's servers, the
// SERvartuka controller (src/core) implements the paper's algorithm.
//
// CPU is modelled explicitly: every message charges the calibrated cost
// model and is serviced through a FIFO CpuQueue, which only models service
// time. Admission is decided in one place: each new INVITE passes one
// overload::OverloadPolicy::admit call, after the state decision and the
// auth check. The default policy (ControlKind::kNone) refuses with 500
// Server Busy once the CPU backlog exceeds its queue-delay bound, exactly
// the saturation signature the paper reports; the overload controls refuse
// earlier, with 503.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_table.hpp"
#include "common/types.hpp"
#include "dialog/dialog.hpp"
#include "obs/metrics.hpp"
#include "overload/overload.hpp"
#include "profile/cost_model.hpp"
#include "profile/profiler.hpp"
#include "proxy/auth.hpp"
#include "proxy/host_registry.hpp"
#include "proxy/location.hpp"
#include "proxy/policy.hpp"
#include "proxy/routing.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"

namespace svk::proxy {

using SipNetwork = sim::Network<sip::MessagePtr>;

/// Header a SERvartuka node stamps on a request once some node has taken
/// state for it (the paper leaves the wire encoding unspecified).
inline constexpr std::string_view kStatefulMarkHeader = "X-Stateful";

/// Header carrying an overload control signal between neighbor proxies.
/// Value: "on;rate=<cps>" or "off;rate=0".
inline constexpr std::string_view kOverloadHeader = "X-Overload";

/// Header asking a neighbor to restate its current overload status. The
/// reply is a normal X-Overload OPTIONS sent straight back to the prober,
/// repairing lost "on"/"off" advertisements.
inline constexpr std::string_view kOverloadProbeHeader = "X-Overload-Probe";

struct ProxyConfig {
  std::string host;
  Address address;
  double cpu_capacity = profile::CpuCostModel::kCalibratedCapacity;
  /// Mode used when a request is handled statefully.
  profile::HandlingMode stateful_mode =
      profile::HandlingMode::kTransactionStateful;
  /// Mode used when a request is handled statelessly.
  profile::HandlingMode stateless_mode = profile::HandlingMode::kStateless;
  /// Verify Proxy-Authorization on INVITE/BYE requests.
  bool authenticate = false;
  /// kAll: verify every transaction-creating request (classic edge-proxy
  /// auth). kWhenStateful: verify only requests this node handles
  /// statefully — the paper's "distribute other functionality such as
  /// authentication" extension, where the accountable (stateful) node
  /// carries the verification cost.
  enum class AuthScope { kAll, kWhenStateful };
  AuthScope auth_scope = AuthScope::kAll;
  /// Digest realm/nonce; empty derives "<host>" / "nonce-<host>". Nodes
  /// sharing auth duty must share these.
  std::string auth_realm;
  std::string auth_nonce;
  txn::TimerConfig timers;
  /// Fraction of outgoing overload *advertisements* silently dropped before
  /// they reach the wire, realized deterministically by error diffusion
  /// (fault-ablation knob; probes and probe replies are never dropped here
  /// so they stay available as the repair channel).
  double overload_signal_loss = 0.0;
  /// Admission policy (src/overload). kNone refuses new INVITEs with 500
  /// past `overload.max_queue_delay` of CPU backlog; the other kinds shed
  /// earlier with 503 (local occupancy gate, optionally hop-by-hop rate
  /// feedback).
  overload::OverloadConfig overload;
  /// Early (unconfirmed) dialogs older than this are expired by a periodic
  /// sweep — they belong to calls that will never complete (lost finals,
  /// crashed endpoints) and would otherwise accumulate forever. Only
  /// consulted in dialog-stateful modes. Zero disables the sweep.
  SimTime dialog_ttl = SimTime::seconds(300);
  /// Test hook for the conformance mutation smoke: reintroduces the
  /// decrement-before-test Max-Forwards off-by-one (a request arriving
  /// with Max-Forwards 1 is wrongly rejected 483).
  bool debug_predecrement_max_forwards = false;
};

struct ProxyStats {
  std::uint64_t requests_in = 0;
  std::uint64_t responses_in = 0;
  std::uint64_t absorbed_retransmits = 0;
  std::uint64_t forwarded_stateful = 0;
  std::uint64_t forwarded_stateless = 0;
  std::uint64_t responses_forwarded = 0;
  std::uint64_t generated_100 = 0;
  std::uint64_t rejected_busy = 0;       // 500 Server Busy sent
  std::uint64_t dropped = 0;             // silently dropped at overload
  std::uint64_t auth_failures = 0;
  std::uint64_t route_failures = 0;
  std::uint64_t proxy_timeouts = 0;      // client transactions timed out
  std::uint64_t rejected_483 = 0;        // 483 Too Many Hops sent
  std::uint64_t dialogs_expired = 0;     // early dialogs reaped by the sweep
  std::uint64_t dialogs_abandoned = 0;   // early dialogs ended by failure
  std::uint64_t registrations = 0;       // REGISTER bindings accepted
  std::uint64_t overload_signals_sent = 0;
  std::uint64_t overload_signals_received = 0;
  std::uint64_t overload_signals_dropped = 0;  // shed by overload_signal_loss
  std::uint64_t overload_probes_sent = 0;
  std::uint64_t overload_probes_received = 0;
  std::uint64_t rejected_503 = 0;      // 503 sent by the local occupancy gate
  std::uint64_t throttled_503 = 0;     // 503 sent on a neighbor's behalf
  std::uint64_t downstream_503 = 0;    // bare 503s received from downstream
  std::uint64_t oc_advertisements = 0; // oc Via params read off responses
  /// Stateful decisions taken on traffic already marked stateful upstream.
  /// Legitimate under static all-stateful; must stay 0 under SERvartuka
  /// (Algorithm 1 forwards marked traffic statelessly) — the chaos
  /// harness's exactly-one-stateful invariant.
  std::uint64_t double_stateful = 0;
};

class ProxyServer {
 public:
  ProxyServer(sim::Simulator& sim, SipNetwork& network,
              const HostRegistry& registry,
              std::shared_ptr<LocationService> location, RouteTable routes,
              std::unique_ptr<StatePolicy> policy, ProxyConfig config);
  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  /// Proxies that may send us traffic; overload signals go to them.
  void set_upstream_proxies(std::vector<Address> upstream);

  [[nodiscard]] const ProxyStats& stats() const { return stats_; }
  [[nodiscard]] const profile::CpuProfiler& profiler() const {
    return profiler_;
  }
  [[nodiscard]] profile::CpuProfiler& profiler() { return profiler_; }
  [[nodiscard]] const sim::CpuQueue& cpu() const { return cpu_; }
  [[nodiscard]] sim::CpuQueue& cpu() { return cpu_; }
  [[nodiscard]] StatePolicy& policy() { return *policy_; }
  /// The admission policy (never null; ControlKind::kNone is the queue
  /// bound).
  [[nodiscard]] const overload::OverloadPolicy& overload_policy() const {
    return *overload_;
  }
  [[nodiscard]] DigestAuthenticator& authenticator() { return auth_; }
  [[nodiscard]] const ProxyConfig& config() const { return config_; }
  /// The simulator this proxy schedules on.
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const txn::TransactionManager& transactions() const {
    return txns_;
  }
  [[nodiscard]] const dialog::DialogManager& dialogs() const {
    return dialogs_;
  }

  /// Installs a conformance tap on this proxy's transaction manager (see
  /// txn/tap.hpp). Install before traffic flows; null disables.
  void set_conformance_tap(txn::ConformanceTap* tap) {
    txns_.set_conformance_tap(tap);
  }

 private:
  /// Network receive entry point: classifies, charges CPU, queues effects.
  void on_datagram(Address from, const sip::MessagePtr& msg);

  void admit_request(Address from, const sip::MessagePtr& msg);
  void admit_response(Address from, const sip::MessagePtr& msg);
  void handle_control(Address from, const sip::Message& msg);

  /// Routes and forwards a new transaction-creating request (decision made
  /// at admission; effects deferred `after` the CPU service completes).
  void plan_new_request(Address from, const sip::MessagePtr& msg);

  /// Registrar role (RFC 3261 10.3): accepts REGISTER for domains this
  /// proxy delivers locally, updating the location service.
  void handle_register(Address from, const sip::MessagePtr& msg);

  /// CANCEL handling (RFC 3261 16.10): answer the CANCEL, and either
  /// cancel our own downstream INVITE (stateful relay) or pass the CANCEL
  /// along statelessly (its deterministic branch matches the statelessly
  /// forwarded INVITE downstream).
  void handle_cancel(Address from, const sip::MessagePtr& msg);

  void execute_stateful_forward(Address from, sip::MessagePtr msg,
                                sip::MessagePtr fwd, Address target);
  void execute_stateless_forward(sip::MessagePtr msg, Address target);

  /// Builds and sends a locally generated response. Never shed: servers
  /// answer 500 even when saturated.
  void respond_urgent(const sip::Message& req, int code, Address to);

  /// Answers an INVITE the admission gate refused: 500 for the queue bound,
  /// 503 for the overload controls, with the matching stats and trace.
  void refuse(const sip::Message& req, Address from,
              overload::AdmitDecision verdict);

  /// Overload rejection: 503 (+ oc feedback when advertising). Retry-After
  /// goes only on local-gate rejections; throttled ones are already
  /// rate-metered by the token bucket (see the definition for why).
  void respond_overload_503(const sip::Message& req, Address to,
                            bool with_retry_after);

  /// Stamps this node's advertised rate as an `oc` param on the top Via of
  /// an outgoing response (the upstream neighbor's Via — it reads the param
  /// off its own Via on receipt). No-op when there is no restriction.
  void stamp_oc(sip::Message& response) const;

  /// Overload control tick: occupancy sample -> policy, audit, trace.
  void overload_tick();

  /// Forwards a response (our Via already popped) toward the previous hop.
  void forward_response_stateless(const sip::MessagePtr& msg);

  /// Sends a message, charging the transport cost to this node's CPU.
  void send_charged(Address to, const sip::MessagePtr& msg);
  /// A SendFn bound to a fixed destination, with transport charging.
  [[nodiscard]] txn::SendFn sender_to(Address to);

  struct LocalTarget {
    Address address;
    std::optional<sip::Uri> retarget;  // contact to rewrite the R-URI to
  };
  [[nodiscard]] std::optional<LocalTarget> resolve_local_target(
      const sip::Uri& uri);
  [[nodiscard]] profile::HandlingMode mode_for(StateDecision decision) const;
  [[nodiscard]] bool is_control(const sip::Message& msg) const;
  void send_overload_signal(bool on, double c_asf_rate);
  /// Sends an X-Overload-Probe OPTIONS to the next hop of `path_index`.
  void send_overload_probe(std::size_t path_index);
  /// Answers a probe: restates our current overload status to `to`.
  void send_overload_status(Address to);
  [[nodiscard]] sip::MessagePtr make_overload_options(
      std::string_view header, const std::string& value);
  void charge(const profile::CostVector& cost) { profiler_.charge(cost); }

  sim::Simulator& sim_;
  SipNetwork& network_;
  const HostRegistry& registry_;
  std::shared_ptr<LocationService> location_;
  RouteTable routes_;
  std::unique_ptr<StatePolicy> policy_;
  ProxyConfig config_;
  /// This proxy's host, interned once, the URI naming it (pushed as
  /// Record-Route) and the header text it stamps (X-Stateful, X-Stateful-At
  /// and the Retry-After of its 503s): the forward path copies these and
  /// never builds text.
  sip::Token host_;
  sip::Uri own_uri_;
  sip::SharedText host_text_;
  sip::SharedText retry_after_text_;

  sim::CpuQueue cpu_;
  txn::TransactionManager txns_;
  dialog::DialogManager dialogs_;
  profile::CpuProfiler profiler_;
  DigestAuthenticator auth_;
  sip::BranchGenerator branches_;
  std::unique_ptr<sim::PeriodicTimer> policy_timer_;
  std::unique_ptr<sim::UtilizationProbe> tick_probe_;
  /// The admission policy; the probe and timer are armed only for
  /// policies with a control period.
  std::unique_ptr<overload::OverloadPolicy> overload_;
  std::unique_ptr<sim::UtilizationProbe> overload_probe_;
  std::unique_ptr<sim::PeriodicTimer> overload_timer_;
  /// Early-dialog expiry sweep; only armed in dialog-stateful modes.
  std::unique_ptr<sim::PeriodicTimer> dialog_sweep_;
  /// Stateful INVITE relay: the upstream INVITE (whose top Via is the
  /// table key — key-inside-value, no owning key strings) plus the INVITE
  /// we forwarded downstream (needed to construct a matching CANCEL) and
  /// its destination. Entries are removed when the server transaction
  /// terminates.
  struct InviteRelay {
    sip::MessagePtr invite;
    sip::MessagePtr fwd;
    Address target;
  };
  /// Keyed by the upstream server-transaction key hash.
  common::FlatTable<InviteRelay> invite_relays_;
  std::vector<Address> upstream_proxies_;
  std::uint64_t overload_signal_seq_{0};
  /// Error-diffusion accumulator realizing overload_signal_loss.
  double signal_loss_acc_{0.0};
  /// Last advertised overload status, restated when a probe arrives.
  bool last_overload_on_{false};
  double last_overload_rate_{0.0};
  /// Pre-resolved hot-path instruments (one pointer compare per event
  /// instead of a name hash + map probe; see obs::CounterHandle).
  obs::CounterHandle rx_counter_{"proxy.rx"};
  obs::CounterHandle tx_counter_{"proxy.tx"};
  obs::CounterHandle rejected_503_counter_{"overload.rejected_503"};
  obs::CounterHandle rejected_busy_counter_{"proxy.rejected_busy"};
  obs::CounterHandle decision_stateful_counter_{"decision.stateful"};
  obs::CounterHandle decision_stateless_counter_{"decision.stateless"};
  obs::GaugeHandle dialogs_live_gauge_;  // name carries the host; see ctor
  ProxyStats stats_;
};

}  // namespace svk::proxy
