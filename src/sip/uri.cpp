#include "sip/uri.hpp"

#include <charconv>

namespace svk::sip {
namespace {

bool valid_port(int port) { return port > 0 && port <= 65535; }

/// Calls `f(name, value)` for each non-empty item of ";a=1;b;c=2" text.
template <typename F>
void for_each_param(std::string_view text, F&& f) {
  while (!text.empty()) {
    std::string_view item = text;
    if (const auto semi = text.find(';'); semi != std::string_view::npos) {
      item = text.substr(0, semi);
      text = text.substr(semi + 1);
    } else {
      text = {};
    }
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos) {
      f(item, std::string_view());
    } else {
      f(item.substr(0, eq), item.substr(eq + 1));
    }
  }
}

void append_param(std::string& out, std::string_view name,
                  std::string_view value) {
  out += ';';
  out += name;
  if (!value.empty()) {
    out += '=';
    out += value;
  }
}

}  // namespace

Result<Uri> Uri::parse(std::string_view text) {
  Uri uri;

  const auto colon = text.find(':');
  if (colon == std::string_view::npos) {
    return make_error("uri: missing scheme separator");
  }
  const std::string_view scheme = text.substr(0, colon);
  if (scheme != "sip" && scheme != "sips") {
    return make_error(std::string("uri: unsupported scheme '")
                          .append(scheme)
                          .append("'"));
  }
  uri.secure_ = scheme == "sips";
  std::string_view rest = text.substr(colon + 1);
  if (rest.empty()) return make_error("uri: empty body");

  // Strip ?headers (unsupported, tolerated).
  if (const auto q = rest.find('?'); q != std::string_view::npos) {
    rest = rest.substr(0, q);
  }

  // Split off ;params.
  std::string_view params;
  if (const auto semi = rest.find(';'); semi != std::string_view::npos) {
    params = rest.substr(semi + 1);
    rest = rest.substr(0, semi);
  }

  // user@host[:port] or host[:port].
  std::string_view hostport = rest;
  if (const auto at = rest.find('@'); at != std::string_view::npos) {
    if (at == 0) return make_error("uri: empty user before '@'");
    uri.user_ = SharedText(rest.substr(0, at));
    hostport = rest.substr(at + 1);
  }
  if (hostport.empty()) return make_error("uri: empty host");

  if (const auto pcolon = hostport.rfind(':');
      pcolon != std::string_view::npos) {
    const std::string_view port_text = hostport.substr(pcolon + 1);
    int port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        !valid_port(port)) {
      return make_error("uri: bad port '" + std::string(port_text) + "'");
    }
    uri.port_ = static_cast<std::uint16_t>(port);
    hostport = hostport.substr(0, pcolon);
    if (hostport.empty()) return make_error("uri: empty host before port");
  }
  uri.host_ = Token(hostport);

  // Kept in canonical form: empty items dropped, "name=" written as a flag.
  std::string canonical;
  for_each_param(params, [&](std::string_view name, std::string_view value) {
    append_param(canonical, name, value);
  });
  uri.params_ = SharedText(canonical);
  return uri;
}

std::optional<std::string_view> Uri::param(std::string_view name) const {
  std::optional<std::string_view> found;
  for_each_param(params_.view(), [&](std::string_view key,
                                     std::string_view value) {
    if (!found && key == name) found = value;
  });
  return found;
}

void Uri::set_param(std::string_view name, std::string_view value) {
  std::string out;
  bool replaced = false;
  for_each_param(params_.view(), [&](std::string_view key,
                                     std::string_view existing) {
    const bool first_match = !replaced && key == name;
    append_param(out, key, first_match ? value : existing);
    replaced = replaced || first_match;
  });
  if (!replaced) append_param(out, name, value);
  params_ = SharedText(out);
}

std::vector<std::pair<std::string_view, std::string_view>> Uri::params()
    const {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  for_each_param(params_.view(), [&](std::string_view key,
                                     std::string_view value) {
    out.emplace_back(key, value);
  });
  return out;
}

std::string Uri::aor() const {
  if (user_.empty()) return host_.str();
  std::string out;
  out.reserve(user_.size() + 1 + host_.size());
  out += user_.view();
  out += '@';
  out += host_.view();
  return out;
}

std::string Uri::to_string() const {
  std::string out(scheme().view());
  out += ':';
  if (!user_.empty()) {
    out += user_.view();
    out += '@';
  }
  out += host_.view();
  if (port_ != 0) {
    out += ':';
    out += std::to_string(port_);
  }
  out += params_.view();
  return out;
}

}  // namespace svk::sip
