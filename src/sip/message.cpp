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
  msg.record_routes_ = req.record_routes_;
  return msg;
}

std::optional<std::string_view> Message::header(
    std::string_view name) const {
  for (const auto& [key, value] : extra_) {
    if (key == name) return std::string_view(value);
  }
  return std::nullopt;
}

void Message::set_header(std::string name, std::string value) {
  for (auto& [key, existing] : extra_) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  extra_.emplace_back(std::move(name), std::move(value));
}

void Message::remove_header(std::string_view name) {
  auto* keep = extra_.begin();
  for (auto& entry : extra_) {
    if (entry.first != name) {
      if (keep != &entry) *keep = std::move(entry);
      ++keep;
    }
  }
  while (extra_.end() != keep) extra_.pop_back();
}

std::size_t Message::header_count() const {
  std::size_t n = vias_.size() + 4;  // From, To, Call-ID, CSeq
  n += routes_.size() + record_routes_.size() + extra_.size();
  if (contact_) ++n;
  return n;
}

std::string Message::to_wire() const {
  // Size the buffer once: per-header constants cover the literal parts
  // ("Via: ", ";branch=", CRLFs...), variable parts are summed exactly for
  // the repeated headers and estimated generously for the name-addr lines.
  std::size_t estimate = 192 + body_.size() + call_id_.size() +
                         reason_.size() + 96 * (2 + (contact_ ? 1 : 0));
  for (const Via& via : vias_) {
    estimate += 16 + via.protocol.size() + via.sent_by.size() +
                via.branch.size() + (via.oc_rate >= 0.0 ? 24 : 0);
  }
  estimate += 64 * (routes_.size() + record_routes_.size());
  for (const auto& [key, value] : extra_) {
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
  for (const Uri& route : record_routes_) {
    out += "Record-Route: <";
    out += route.to_string();
    out += ">\r\n";
  }
  for (const Uri& route : routes_) {
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
  if (contact_) {
    append_name_addr(out, "Contact", *contact_);
  }
  if (is_request_) {
    out += "Max-Forwards: ";
    out += std::to_string(max_forwards_);
    out += "\r\n";
  }
  for (const auto& [key, value] : extra_) {
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
