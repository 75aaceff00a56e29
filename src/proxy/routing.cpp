#include "proxy/routing.hpp"

#include <algorithm>
#include <cassert>

namespace svk::proxy {

bool RouteTable::suffix_matches(const std::string& host,
                                const std::string& suffix) {
  if (host.size() < suffix.size()) return false;
  if (host.size() == suffix.size()) return host == suffix;
  // Proper suffix must align on a label boundary: "cc.gatech.edu" matches
  // suffix "gatech.edu" but "notgatech.edu" does not.
  const std::size_t offset = host.size() - suffix.size();
  return host.compare(offset, suffix.size(), suffix) == 0 &&
         host[offset - 1] == '.';
}

std::size_t RouteTable::path_for(Address next_hop) {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].delegable && paths_[i].next_hop == next_hop) return i;
  }
  paths_.push_back(PathInfo{true, next_hop});
  return paths_.size() - 1;
}

std::size_t RouteTable::local_path() {
  if (!local_path_) {
    paths_.push_back(PathInfo{false, Address{}});
    local_path_ = paths_.size() - 1;
  }
  return *local_path_;
}

void RouteTable::add_route(std::string domain_suffix,
                           std::vector<Address> next_hops) {
  assert(!next_hops.empty());
  Entry entry;
  entry.suffix = std::move(domain_suffix);
  entry.local = false;
  for (const Address hop : next_hops) {
    entry.path_indices.push_back(path_for(hop));
  }
  entries_.push_back(std::move(entry));
}

void RouteTable::add_local(std::string domain_suffix) {
  Entry entry;
  entry.suffix = std::move(domain_suffix);
  entry.local = true;
  entry.path_indices.push_back(local_path());
  entries_.push_back(std::move(entry));
}

std::optional<RouteDecision> RouteTable::route(const sip::Uri& uri) {
  Entry* best = nullptr;
  for (Entry& entry : entries_) {
    if (!suffix_matches(uri.host().str(), entry.suffix)) continue;
    if (!best || entry.suffix.size() > best->suffix.size()) best = &entry;
  }
  if (!best) return std::nullopt;

  const std::size_t choice =
      best->path_indices[best->rr_counter++ % best->path_indices.size()];
  RouteDecision decision;
  decision.path_index = choice;
  decision.local = !paths_[choice].delegable;
  if (!decision.local) decision.next_hop = paths_[choice].next_hop;
  return decision;
}

std::optional<std::size_t> RouteTable::path_of(Address neighbor) const {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].delegable && paths_[i].next_hop == neighbor) return i;
  }
  return std::nullopt;
}

}  // namespace svk::proxy
