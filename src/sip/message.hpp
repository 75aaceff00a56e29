// SIP message model (RFC 3261 subset).
//
// Messages are built mutable, then shared immutably across the simulated
// network as MessagePtr (shared_ptr<const Message>). A proxy that needs to
// modify a message in flight (push a Via, decrement Max-Forwards) copies it
// first — copy-on-forward, matching how a real proxy re-serializes.
//
// The layout is tuned for that copy, which must cost pointer copies and
// refcount bumps only, and for the messages a server holds for a long time
// (a 200 to a BYE kept for Timer J). No field is a std::string. Header text
// comes in two tiers:
//   - Token (intern.hpp): bounded vocabularies — Via protocol and sent-by,
//     URI host, reason phrases (a static table holds the default phrase of
//     each status code) and extension-header names (the names elements
//     stamp are interned once). A copy is a pointer copy.
//   - SharedText (shared_text.hpp): per-call or per-transaction text that
//     never changes once built — Call-ID, Via branch, body, URI user and
//     parameters, display names, tags and extension-header values. A copy
//     is an atomic refcount increment; the blocks come from a thread-local
//     pool, so building one on a warm run touches no allocator.
// So a Uri is 32 bytes and a NameAddr 48.
//
// The fields split into a hot part and a cold block. The hot part holds
// what every message carries: the request and status lines, the Via stack,
// From, To, Call-ID, CSeq, Max-Forwards and the body, plus one pointer
// (at most 352 bytes; 368 with the shared_ptr control block in a pooled
// block, which takes a 384-byte malloc chunk). The cold block (ColdHeaders,
// at most 288 bytes) holds the headers most messages never carry: Contact,
// Route, Record-Route and extension headers. The pointer is null while all
// four are empty, so a 200 to a BYE — the message a lingering server
// transaction keeps for Timer J — has none. Copies share the cold block the
// way SharedText is shared, and an element that stamps the same cold
// headers on every message it sends (a UA's Contact, a proxy's
// X-Stateful-At) builds one block and lets each message adopt it. The
// first mutation of a shared block detaches it (copies it, or creates it),
// and only the mutators below do so: every read goes through a const
// accessor and never detaches. Values never depend on where the bytes
// live, so the split changes no behaviour and no digest.
//
// Header lists live in small-inline vectors (no malloc for the common 1–4
// entry counts), and the Via stack is stored bottom-first so
// push_via/pop_via — the per-hop operations — are O(1) at the back instead
// of O(n) front inserts. finish() allocates the shared block, and a
// mutation the cold block, from a freelist-backed pool (see
// message_pool.hpp), so a warm forward path creates and releases messages
// without the allocator.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/small_vector.hpp"
#include "sip/intern.hpp"
#include "sip/message_pool.hpp"
#include "sip/methods.hpp"
#include "sip/shared_text.hpp"
#include "sip/uri.hpp"

namespace svk::sip {

/// One Via header entry (RFC 3261 8.1.1.7 / 18.2.1): the response return
/// path. `sent_by` is the sender's host identity; `branch` the transaction
/// id token. Protocol and sent-by come from bounded vocabularies and are
/// interned; branch is per-transaction unique shared text.
struct Via {
  Via() = default;
  /// Hot-path form: Tokens the caller interned once, a branch built once.
  Via(Token protocol, Token sent_by, SharedText branch = {})
      : protocol(protocol), sent_by(sent_by), branch(std::move(branch)) {}
  /// Interns protocol and sent-by (a hash lookup each).
  Via(std::string_view protocol, std::string_view sent_by,
      SharedText branch = {})
      : protocol(protocol), sent_by(sent_by), branch(std::move(branch)) {}

  Token protocol = udp_protocol();
  Token sent_by;
  SharedText branch;
  /// RFC 7339-style overload-control feedback: the permitted request rate
  /// (cps) this hop advertises to its upstream neighbor, piggybacked on the
  /// Via it stamps onto responses. Negative = no advertisement.
  double oc_rate = -1.0;

  friend bool operator==(const Via&, const Via&) = default;
};

/// From/To/Contact value: optional display name, URI and optional tag.
/// Each tag is built once per dialog side and shared from then on.
struct NameAddr {
  SharedText display;
  Uri uri;
  SharedText tag;

  friend bool operator==(const NameAddr&, const NameAddr&) = default;
};

/// CSeq header (RFC 3261 8.1.1.5).
struct CSeq {
  std::uint32_t seq = 1;
  Method method = Method::kInvite;

  friend bool operator==(const CSeq&, const CSeq&) = default;
};

using RouteList = SmallVector<Uri, 2>;
using HeaderList = SmallVector<std::pair<Token, SharedText>, 2>;

/// The headers most messages never carry (see the file comment). Shared
/// between copies of a message; a Message holds none while all are empty.
struct ColdHeaders {
  std::optional<NameAddr> contact;
  RouteList routes;
  RouteList record_routes;
  HeaderList extra;

  [[nodiscard]] bool empty() const {
    return !contact && routes.empty() && record_routes.empty() &&
           extra.empty();
  }
};

/// A cold block built once and adopted by many messages (see adopt_cold).
using SharedColdHeaders = std::shared_ptr<const ColdHeaders>;

class Message;
using MessagePtr = std::shared_ptr<const Message>;

/// A SIP request or response.
class Message {
 public:
  /// Via stack, stored bottom-first: the *last* element is the top Via
  /// (most recent hop). Iteration order is bottom-to-top; to_wire() emits
  /// top-first as the wire format requires.
  using ViaList = SmallVector<Via, 4>;

  /// Creates a request with the mandatory header skeleton.
  [[nodiscard]] static Message request(Method method, Uri request_uri,
                                       NameAddr from, NameAddr to,
                                       SharedText call_id, CSeq cseq);

  /// Creates a response to `req` per RFC 3261 8.2.6: Vias, From, To,
  /// Call-ID and CSeq are copied from the request.
  [[nodiscard]] static Message response(const Message& req, int status_code,
                                        std::string_view reason = {});

  [[nodiscard]] bool is_request() const { return is_request_; }
  [[nodiscard]] bool is_response() const { return !is_request_; }

  // -- Request line --------------------------------------------------------
  [[nodiscard]] Method method() const { return method_; }
  [[nodiscard]] const Uri& request_uri() const { return request_uri_; }
  void set_request_uri(Uri uri) { request_uri_ = std::move(uri); }

  // -- Status line ---------------------------------------------------------
  [[nodiscard]] int status_code() const { return status_code_; }
  [[nodiscard]] const Token& reason() const { return reason_; }

  // -- Core headers --------------------------------------------------------
  /// The Via stack, bottom-first (top Via last — see ViaList).
  [[nodiscard]] const ViaList& vias() const { return vias_; }
  /// Top Via; precondition: at least one Via present.
  [[nodiscard]] const Via& top_via() const { return vias_.back(); }
  [[nodiscard]] Via& top_via() { return vias_.back(); }
  /// Pushes a new top Via. O(1).
  void push_via(Via via) { vias_.push_back(std::move(via)); }
  /// Pops the top Via. O(1).
  void pop_via() { vias_.pop_back(); }

  [[nodiscard]] const NameAddr& from() const { return from_; }
  [[nodiscard]] NameAddr& from() { return from_; }
  [[nodiscard]] const NameAddr& to() const { return to_; }
  [[nodiscard]] NameAddr& to() { return to_; }

  [[nodiscard]] const SharedText& call_id() const { return call_id_; }
  [[nodiscard]] const CSeq& cseq() const { return cseq_; }

  [[nodiscard]] const std::optional<NameAddr>& contact() const {
    return cold().contact;
  }
  void set_contact(NameAddr contact) {
    mutable_cold().contact = std::move(contact);
  }

  [[nodiscard]] int max_forwards() const { return max_forwards_; }
  void set_max_forwards(int mf) { max_forwards_ = mf; }
  void decrement_max_forwards() { --max_forwards_; }

  // -- Routing headers -----------------------------------------------------
  [[nodiscard]] const RouteList& routes() const { return cold().routes; }
  [[nodiscard]] const RouteList& record_routes() const {
    return cold().record_routes;
  }
  /// Replaces the Route set (an empty set makes no cold block).
  void set_routes(RouteList routes);
  /// Removes the first Route entry; precondition: routes() is not empty.
  void pop_route();
  /// Inserts a Record-Route entry at the top (RFC 3261 16.6 step 4).
  void prepend_record_route(Uri uri);

  // -- Extension headers ---------------------------------------------------
  /// First value of an extension header, if present.
  [[nodiscard]] std::optional<std::string_view> header(
      std::string_view name) const;
  /// Sets (replacing any existing value of) an extension header. The hot
  /// paths pass a name Token interned once.
  void set_header(Token name, SharedText value);
  /// Interns `name` (a hash lookup).
  void set_header(std::string_view name, SharedText value) {
    set_header(Token(name), std::move(value));
  }
  /// Removes every entry named `name`; detaches nothing when there is none.
  void remove_header(std::string_view name);
  [[nodiscard]] const HeaderList& extension_headers() const {
    return cold().extra;
  }

  /// The shared cold-header block, or null when the message carries none
  /// of its headers (tests pin the sharing and the null case).
  [[nodiscard]] const ColdHeaders* cold_headers() const { return cold_.get(); }

  /// Builds a cold block for many messages to adopt.
  [[nodiscard]] static SharedColdHeaders share_cold(ColdHeaders cold);
  /// Adopts a shared cold block instead of building one: the message
  /// carries exactly its headers. Precondition: the message carries no
  /// cold headers yet. A later mutation detaches as for any shared block.
  void adopt_cold(const SharedColdHeaders& block);

  // -- Body ----------------------------------------------------------------
  [[nodiscard]] const SharedText& body() const { return body_; }
  void set_body(SharedText body) { body_ = std::move(body); }

  /// Serializes to RFC 3261 wire format (CRLF line endings).
  [[nodiscard]] std::string to_wire() const;

  /// Number of header lines a stateless forwarder must at least touch;
  /// used by the cost model's lazy-parsing account.
  [[nodiscard]] std::size_t header_count() const;

  /// Shares this message immutably. The control block and payload come
  /// from the thread-local message pool in one allocation, recycled when
  /// the last MessagePtr drops.
  [[nodiscard]] MessagePtr finish() && {
    return std::allocate_shared<const Message>(MessagePoolAllocator<Message>{},
                                               std::move(*this));
  }

 private:
  bool is_request_ = true;
  Method method_ = Method::kInvite;
  Uri request_uri_;
  int status_code_ = 0;
  Token reason_;

  /// The cold headers, or an empty block when there are none.
  [[nodiscard]] const ColdHeaders& cold() const {
    return cold_ != nullptr ? *cold_ : no_cold_headers();
  }
  [[nodiscard]] static const ColdHeaders& no_cold_headers();
  /// The cold block, made unique to this message first: created when
  /// there is none, copied when another message shares it. Like
  /// shared_ptr::use_count, the uniqueness check synchronizes with no
  /// other thread, so a message whose block another thread's message
  /// shared must reach this thread through a happens-before edge (a run's
  /// messages never leave its thread).
  ColdHeaders& mutable_cold();
  /// Drops the cold block once a mutation has emptied it.
  void drop_cold_if_empty();

  ViaList vias_;  // bottom-first; top Via is vias_.back()
  NameAddr from_;
  NameAddr to_;
  SharedText call_id_;
  CSeq cseq_;
  int max_forwards_ = 70;
  SharedText body_;
  std::shared_ptr<ColdHeaders> cold_;  // null while every cold header is empty

  friend class Parser;
};

/// Copies a shared message for modification (copy-on-forward).
[[nodiscard]] inline Message clone(const Message& msg) { return msg; }

}  // namespace svk::sip
