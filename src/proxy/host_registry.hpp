// Host-name to network-address resolution — the DNS of the simulated
// testbed. Every element (proxy, UAC, UAS) registers its hostname; Via
// sent-by values and contact hosts resolve through here.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/types.hpp"

namespace svk::proxy {

class HostRegistry {
 public:
  /// Binds a hostname to its network address (replacing any previous one).
  void add(std::string host, Address address) {
    hosts_[std::move(host)] = address;
  }

  /// Resolves a hostname; nullopt when unknown. Looks the view up as is:
  /// hosts outgrow std::string's inline buffer, so a key temporary would
  /// cost a malloc per resolve on the response path.
  [[nodiscard]] std::optional<Address> resolve(std::string_view host) const {
    const auto it = hosts_.find(host);
    if (it == hosts_.end()) return std::nullopt;
    return it->second;
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, Address, Hash, std::equal_to<>> hosts_;
};

}  // namespace svk::proxy
