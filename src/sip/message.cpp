#include "sip/message.hpp"

#include <cstdio>
#include <utility>

namespace svk::sip {
namespace {

void append_name_addr(std::string& out, std::string_view name,
                      const NameAddr& value) {
  out += name;
  out += ": ";
  if (!value.display.empty()) {
    out += '"';
    out += value.display;
    out += "\" ";
  }
  out += '<';
  out += value.uri.to_string();
  out += '>';
  if (!value.tag.empty()) {
    out += ";tag=";
    out += value.tag;
  }
  out += "\r\n";
}

}  // namespace

Message Message::request(Method method, Uri request_uri, NameAddr from,
                         NameAddr to, SharedText call_id, CSeq cseq) {
  Message msg;
  msg.is_request_ = true;
  msg.method_ = method;
  msg.request_uri_ = std::move(request_uri);
  msg.from_ = std::move(from);
  msg.to_ = std::move(to);
  msg.call_id_ = std::move(call_id);
  msg.cseq_ = cseq;
  return msg;
}

Message Message::response(const Message& req, int status_code,
                          std::string_view reason) {
  Message msg;
  msg.is_request_ = false;
  msg.status_code_ = status_code;
  msg.reason_ =
      std::string(reason.empty() ? reason_phrase(status_code) : reason);
  msg.vias_ = req.vias_;
  msg.from_ = req.from_;
  msg.to_ = req.to_;
  msg.call_id_ = req.call_id_;
  msg.cseq_ = req.cseq_;
  // Record-Route is mirrored into responses so the caller learns the
  // dialog route set (RFC 3261 16.7/12.1.1).
  if (!req.record_routes().empty()) {
    msg.mutable_cold().record_routes = req.record_routes();
  }
  return msg;
}

const ColdHeaders& Message::no_cold_headers() {
  static const ColdHeaders none;
  return none;
}

ColdHeaders& Message::mutable_cold() {
  if (cold_ == nullptr) {
    cold_ = std::allocate_shared<ColdHeaders>(
        MessagePoolAllocator<ColdHeaders>{});
  } else if (cold_.use_count() != 1) {
    cold_ = std::allocate_shared<ColdHeaders>(
        MessagePoolAllocator<ColdHeaders>{}, *cold_);
  }
  return *cold_;
}

void Message::drop_cold_if_empty() {
  if (cold_ != nullptr && cold_->empty()) cold_.reset();
}

void Message::set_routes(RouteList routes) {
  if (routes.empty() && cold_ == nullptr) return;
  mutable_cold().routes = std::move(routes);
  drop_cold_if_empty();
}

void Message::pop_route() {
  RouteList& routes = mutable_cold().routes;
  routes.erase(routes.begin());
  drop_cold_if_empty();
}

void Message::prepend_record_route(Uri uri) {
  RouteList& record_routes = mutable_cold().record_routes;
  record_routes.insert(record_routes.begin(), std::move(uri));
}

std::optional<std::string_view> Message::header(
    std::string_view name) const {
  for (const auto& [key, value] : extension_headers()) {
    if (key == name) return value.view();
  }
  return std::nullopt;
}

void Message::set_header(std::string name, SharedText value) {
  HeaderList& extra = mutable_cold().extra;
  for (auto& [key, existing] : extra) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  extra.emplace_back(std::move(name), std::move(value));
}

void Message::remove_header(std::string_view name) {
  if (!header(name)) return;
  HeaderList& extra = mutable_cold().extra;
  auto* keep = extra.begin();
  for (auto& entry : extra) {
    if (entry.first != name) {
      if (keep != &entry) *keep = std::move(entry);
      ++keep;
    }
  }
  while (extra.end() != keep) extra.pop_back();
  drop_cold_if_empty();
}

std::size_t Message::header_count() const {
  const ColdHeaders& cold = this->cold();
  std::size_t n = vias_.size() + 4;  // From, To, Call-ID, CSeq
  n += cold.routes.size() + cold.record_routes.size() + cold.extra.size();
  if (cold.contact) ++n;
  return n;
}

std::string Message::to_wire() const {
  const ColdHeaders& cold = this->cold();
  // Size the buffer once: per-header constants cover the literal parts
  // ("Via: ", ";branch=", CRLFs...), variable parts are summed exactly for
  // the repeated headers and estimated generously for the name-addr lines.
  std::size_t estimate = 192 + body_.size() + call_id_.size() +
                         reason_.size() + 96 * (2 + (cold.contact ? 1 : 0));
  for (const Via& via : vias_) {
    estimate += 16 + via.protocol.size() + via.sent_by.size() +
                via.branch.size() + (via.oc_rate >= 0.0 ? 24 : 0);
  }
  estimate += 64 * (cold.routes.size() + cold.record_routes.size());
  for (const auto& [key, value] : cold.extra) {
    estimate += key.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(estimate);

  if (is_request_) {
    out += to_string(method_);
    out += ' ';
    out += request_uri_.to_string();
    out += " SIP/2.0\r\n";
  } else {
    out += "SIP/2.0 ";
    out += std::to_string(status_code_);
    out += ' ';
    out += reason_;
    out += "\r\n";
  }

  // vias_ is stored bottom-first; the wire format lists the top Via first.
  for (auto it = vias_.rbegin(); it != vias_.rend(); ++it) {
    const Via& via = *it;
    out += "Via: ";
    out += via.protocol.view();
    out += ' ';
    out += via.sent_by.view();
    if (!via.branch.empty()) {
      out += ";branch=";
      out += via.branch;
    }
    if (via.oc_rate >= 0.0) {
      char oc[32];
      std::snprintf(oc, sizeof(oc), ";oc=%.3f", via.oc_rate);
      out += oc;
    }
    out += "\r\n";
  }
  for (const Uri& route : cold.record_routes) {
    out += "Record-Route: <";
    out += route.to_string();
    out += ">\r\n";
  }
  for (const Uri& route : cold.routes) {
    out += "Route: <";
    out += route.to_string();
    out += ">\r\n";
  }
  append_name_addr(out, "From", from_);
  append_name_addr(out, "To", to_);
  out += "Call-ID: ";
  out += call_id_;
  out += "\r\n";
  out += "CSeq: ";
  out += std::to_string(cseq_.seq);
  out += ' ';
  out += to_string(cseq_.method);
  out += "\r\n";
  if (cold.contact) {
    append_name_addr(out, "Contact", *cold.contact);
  }
  if (is_request_) {
    out += "Max-Forwards: ";
    out += std::to_string(max_forwards_);
    out += "\r\n";
  }
  for (const auto& [key, value] : cold.extra) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body_.size());
  out += "\r\n\r\n";
  out += body_;
  return out;
}

}  // namespace svk::sip
