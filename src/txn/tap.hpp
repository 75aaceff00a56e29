// Conformance tap: a read-only observer interface the checking subsystem
// (src/check) implements to shadow the production transaction machines.
//
// The interface lives in svk_txn so the transaction layer carries no
// dependency on the checker; the tap pointer is null by default and every
// notification site is guarded by a single branch, which keeps the
// disabled-path cost to a well-predicted never-taken test (the
// zero-cost-when-disabled guarantee DESIGN.md section 10 documents).
//
// Protocol: the manager announces creations and (post-termination)
// removals; each transaction announces every wire send it performs and, at
// the END of every externally visible event (API call or timer fire), the
// event kind. An observer therefore sees, per event: the sends it caused,
// then the event itself — at which point the transaction's public state has
// settled and can be compared against a reference machine.
#pragma once

#include "sip/message.hpp"
#include "txn/timers.hpp"

namespace svk::txn {

class ClientTransaction;
class ServerTransaction;

/// Externally visible events of a client transaction's life.
enum class ClientEvent {
  kStart,            // start(): request sent, timers armed
  kRxResponse,       // receive_response()
  kTimerRetransmit,  // timer A/E fired
  kTimerTimeout,     // timer B/F/C fired
  kTimerLinger,      // timer D/K fired
};

enum class ServerEvent {
  kRxRequest,        // receive_request(): retransmission or ACK
  kRespond,          // respond(): TU supplied a response
  kTimerRetransmit,  // timer G fired
  kTimerTimeout,     // timer H fired
  kTimerLinger,      // timer I/J fired
};

class ConformanceTap {
 public:
  virtual ~ConformanceTap() = default;

  /// The transaction's key() is set; an observer that keeps it past the
  /// transaction must copy it.
  virtual void on_client_created(const ClientTransaction* txn,
                                 const TimerConfig& timers) = 0;
  virtual void on_client_send(const ClientTransaction* txn,
                              const sip::MessagePtr& msg) = 0;
  /// `msg` is the response for kRxResponse, null for timer events/start.
  virtual void on_client_event(const ClientTransaction* txn, ClientEvent event,
                               const sip::Message* msg) = 0;
  virtual void on_client_removed(const ClientTransaction* txn) = 0;

  virtual void on_server_created(const ServerTransaction* txn,
                                 const TimerConfig& timers) = 0;
  virtual void on_server_send(const ServerTransaction* txn,
                              const sip::MessagePtr& msg) = 0;
  /// `msg` is the request for kRxRequest, the response for kRespond, null
  /// for timer events.
  virtual void on_server_event(const ServerTransaction* txn, ServerEvent event,
                               const sip::Message* msg) = 0;
  virtual void on_server_removed(const ServerTransaction* txn) = 0;
};

}  // namespace svk::txn
