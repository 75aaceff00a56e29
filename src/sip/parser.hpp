// SIP wire-format parser (RFC 3261 subset matching Message::to_wire).
#pragma once

#include <string_view>

#include "common/result.hpp"
#include "sip/message.hpp"

namespace svk::sip {

/// Trusted input only: the parser interns (intern.hpp) every URI host,
/// reason phrase and extension-header name it reads, and the intern table
/// never shrinks. Only tests call it today, on Message::to_wire output; a
/// front end for datagrams from outside would first have to keep such text
/// out of the table.
class Parser {
 public:
  /// Parses a complete datagram into a Message. Returns an Error for
  /// malformed input (never throws for bad wire data — peer input is an
  /// expected failure source, not a logic error).
  [[nodiscard]] static Result<Message> parse(std::string_view wire);
};

/// Parses a "name-addr" header value: ["display"] <uri> [;tag=x] or a bare
/// URI with optional ;tag.
[[nodiscard]] Result<NameAddr> parse_name_addr(std::string_view text);

}  // namespace svk::sip
