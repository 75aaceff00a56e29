#include "txn/manager.hpp"

#include <cassert>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace svk::txn {

namespace {

/// The stored key method of a server transaction: its retained request's
/// method, ACK-normalized like server_key (transactions are never created
/// from ACKs, but the normalization keeps lookup and creation symmetric).
sip::Method server_stored_method(const ServerTransaction& txn) {
  const sip::Method m = txn.request()->method();
  return m == sip::Method::kAck ? sip::Method::kInvite : m;
}

}  // namespace

TransactionManager::TransactionManager(sim::Simulator& sim,
                                       TimerConfig timers)
    : sim_(sim), timers_(timers) {}

Dispatch TransactionManager::dispatch(const sip::MessagePtr& msg) {
  assert(msg);
  if (msg->is_request()) {
    const sip::TxnProbe probe = sip::key_for_request(*msg);
    if (ServerTransaction* txn = find_server(probe)) {
      txn->receive_request(msg);
      return Dispatch::kHandledByServerTxn;
    }
    // Miss: the element core usually hands this same message straight back
    // to create_server — keep the probe so it is not recomputed.
    cache_probe(msg, probe);
    return Dispatch::kNewRequest;
  }
  const sip::TxnProbe probe = sip::key_for_response(*msg);
  if (ClientTransaction* txn = find_client(probe)) {
    txn->receive_response(msg);
    return Dispatch::kHandledByClientTxn;
  }
  return Dispatch::kStrayResponse;
}

ClientTransaction& TransactionManager::create_client(
    const sip::MessagePtr& request, SendFn send, ClientCallbacks callbacks,
    TxnHandle* out_handle) {
  // The response will arrive with our Via on top, so the client key is
  // derived from the request's current top Via. The transaction retains the
  // request for its whole lifetime, so the table entry needs no owning key:
  // hash once here, compare against the retained request on probe.
  const sip::Via& via = request->top_via();
  const sip::Method method = request->cseq().method;
  TxnHandle handle;
  handle.hash = sip::txn_key_hash(via.branch, via.sent_by, method);
  auto user_terminated = std::move(callbacks.on_terminated);
  handle.slot = client_slab_.emplace(
      sim_, timers_, method == sip::Method::kInvite, request, std::move(send),
      std::move(callbacks));
  ClientTransaction& ref = *client_slab_.get(handle.slot);
  // The removal wrapper needs the handle, which exists only now.
  ref.set_on_terminated(
      [this, handle, user_terminated = std::move(user_terminated)] {
        if (user_terminated) user_terminated();
        schedule_client_removal(handle);
      });
  ++created_;
  clients_.insert(handle.hash, handle.slot);
  client_created_.inc(sim_.obs().metrics);
  note_active();
  if (tap_ != nullptr) {
    ref.set_tap(tap_);
    tap_->on_client_created(
        &ref, sip::TransactionKey{via.branch.str(), via.sent_by.str(), method},
        timers_);
  }
  if (out_handle != nullptr) *out_handle = handle;
  ref.start();
  return ref;
}

ServerTransaction& TransactionManager::create_server(
    const sip::MessagePtr& request, SendFn send, ServerCallbacks callbacks,
    TxnHandle* out_handle) {
  const sip::TxnProbe probe = request_probe(request);
  TxnHandle handle;
  handle.hash = probe.hash;
  auto user_terminated = std::move(callbacks.on_terminated);
  handle.slot = server_slab_.emplace(
      sim_, timers_, request->method() == sip::Method::kInvite, request,
      std::move(send), std::move(callbacks));
  ServerTransaction& ref = *server_slab_.get(handle.slot);
  ref.set_on_terminated(
      [this, handle, user_terminated = std::move(user_terminated)] {
        if (user_terminated) user_terminated();
        schedule_server_removal(handle);
      });
  ++created_;
  servers_.insert(handle.hash, handle.slot);
  server_created_.inc(sim_.obs().metrics);
  note_active();
  if (tap_ != nullptr) {
    ref.set_tap(tap_);
    tap_->on_server_created(&ref, sip::server_key(*request), timers_);
  }
  if (out_handle != nullptr) *out_handle = handle;
  return ref;
}

ServerTransaction* TransactionManager::find_server(
    const sip::TxnProbe& probe) {
  common::SlabHandle* slot =
      servers_.find(probe.hash, [&](const common::SlabHandle& h) {
        const ServerTransaction* txn = server_slab_.get(h);
        const sip::Via& via = txn->request()->top_via();
        return probe.matches(via.branch, via.sent_by,
                             server_stored_method(*txn));
      });
  return slot != nullptr ? server_slab_.get(*slot) : nullptr;
}

ClientTransaction* TransactionManager::find_client(
    const sip::TxnProbe& probe) {
  common::SlabHandle* slot =
      clients_.find(probe.hash, [&](const common::SlabHandle& h) {
        const ClientTransaction* txn = client_slab_.get(h);
        const sip::Via& via = txn->request()->top_via();
        return probe.matches(via.branch, via.sent_by,
                             txn->request()->cseq().method);
      });
  return slot != nullptr ? client_slab_.get(*slot) : nullptr;
}

ServerTransaction* TransactionManager::find_server(const sip::Message& msg) {
  return find_server(sip::key_for_request(msg));
}

ClientTransaction* TransactionManager::find_client(const sip::Message& msg) {
  return find_client(sip::key_for_response(msg));
}

sip::TxnProbe TransactionManager::request_probe(const sip::MessagePtr& msg) {
  if (probe_anchor_ == msg) return cached_probe_;
  return sip::key_for_request(*msg);
}

void TransactionManager::schedule_client_removal(TxnHandle handle) {
  // Removal is deferred to a fresh event so the transaction's member
  // functions can safely finish executing on the current stack. A stale
  // handle (slot generation moved on) means the entry is already gone.
  sim_.schedule(SimTime{}, [this, handle] {
    if (ClientTransaction* txn = client_slab_.get(handle.slot)) {
      if (tap_ != nullptr) tap_->on_client_removed(txn);
      clients_.erase(handle.hash, [&](const common::SlabHandle& h) {
        return h == handle.slot;
      });
      client_slab_.erase(handle.slot);
    }
    note_active();
  });
}

void TransactionManager::schedule_server_removal(TxnHandle handle) {
  sim_.schedule(SimTime{}, [this, handle] {
    if (ServerTransaction* txn = server_slab_.get(handle.slot)) {
      if (tap_ != nullptr) tap_->on_server_removed(txn);
      servers_.erase(handle.hash, [&](const common::SlabHandle& h) {
        return h == handle.slot;
      });
      server_slab_.erase(handle.slot);
    }
    note_active();
  });
}

void TransactionManager::note_active() {
  if (const obs::Sinks& obs = sim_.obs(); obs.tracer != nullptr) {
    obs.tracer->counter("active_txns", sim_.now(), trace_tid_, "count",
                        static_cast<double>(active_count()));
  }
}

}  // namespace svk::txn
