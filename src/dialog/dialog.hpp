// Dialog-layer state (RFC 3261 12), as kept by a dialog-stateful proxy.
//
// A dialog ties the INVITE transaction to later in-dialog transactions
// (re-INVITE, BYE). The paper's "Dialog Stateful" mode keeps one of these
// records per call for the whole call duration — the costliest mode in its
// Figure 3 profile.
//
// Records live in a Slab (stable addresses, freelist reuse); the table is a
// FlatTable of (precomputed id hash, slab handle). The only owning strings
// are inside the Dialog record itself (its id — the key-inside-value
// layout of DESIGN.md §11); lookups hash Call-ID + tags straight off the
// message into a DialogProbe and compare views, so the in-dialog hot path
// (match on every BYE, confirm on every 2xx) allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/flat_table.hpp"
#include "common/sim_time.hpp"
#include "common/slab.hpp"
#include "sip/message.hpp"

namespace svk::dialog {

/// Dialog identifier: Call-ID plus the two tags. Proxies can see a dialog
/// from either direction (caller's BYE vs callee's BYE), so the key
/// normalizes tag order.
struct DialogId {
  sip::SharedText call_id;  // shares the message's Call-ID block
  std::string tag_a;  // lexicographically smaller tag
  std::string tag_b;

  [[nodiscard]] static DialogId make(sip::SharedText call_id,
                                     std::string tag1, std::string tag2);

  friend bool operator==(const DialogId&, const DialogId&) = default;
};

struct DialogIdHash {
  std::size_t operator()(const DialogId& id) const noexcept;
};

/// Non-owning dialog lookup key: the precomputed id hash plus views of the
/// normalized (call_id, tag_a, tag_b) triple. Views borrow from the probed
/// message; a probe must not outlive it.
struct DialogProbe {
  std::uint64_t hash = 0;
  std::string_view call_id;
  std::string_view tag_a;
  std::string_view tag_b;

  /// Builds a probe, normalizing tag order exactly like DialogId::make.
  [[nodiscard]] static DialogProbe make(std::string_view call_id,
                                        std::string_view tag1,
                                        std::string_view tag2);

  [[nodiscard]] bool matches(const DialogId& id) const noexcept {
    return call_id == id.call_id && tag_a == id.tag_a && tag_b == id.tag_b;
  }
};

/// The hash DialogProbe and DialogIdHash share.
[[nodiscard]] std::uint64_t dialog_id_hash(std::string_view call_id,
                                           std::string_view tag_a,
                                           std::string_view tag_b) noexcept;

enum class DialogState { kEarly, kConfirmed, kTerminated };

/// One dialog record.
struct Dialog {
  DialogId id;
  DialogState state = DialogState::kEarly;
  SimTime created_at;
  std::uint32_t transactions_seen = 1;
};

/// The dialog table of one element.
class DialogManager {
 public:
  /// Creates an early dialog from a forwarded INVITE (From tag known, To
  /// tag still empty). The early key uses the empty To tag.
  Dialog& create_early(const sip::Message& invite, SimTime now);

  /// Promotes an early dialog to confirmed when the 2xx arrives carrying
  /// the UAS tag; re-keys the record (in place — the record's address is
  /// slab-stable). Returns the confirmed dialog, or nullptr when no early
  /// dialog matches.
  Dialog* confirm(const sip::Message& response_2xx);

  /// Finds the dialog an in-dialog request (e.g. BYE) belongs to.
  [[nodiscard]] Dialog* match(const sip::Message& request);

  /// Removes a dialog (after the BYE transaction completes).
  void terminate(const DialogProbe& probe);
  void terminate(const DialogId& id) {
    terminate(DialogProbe::make(id.call_id, id.tag_a, id.tag_b));
  }

  /// Removes the early dialog a failed INVITE belongs to (non-2xx final or
  /// transaction timeout — the call will never confirm). Keyed like
  /// create_early: Call-ID + From tag + empty To tag. Returns true when an
  /// early dialog was removed.
  bool abandon_early(const sip::Message& msg);

  /// Reaps early dialogs older than `ttl` (lost finals, crashed endpoints —
  /// calls that will never complete and whose failure this element never
  /// saw). Returns the number removed. Confirmed dialogs are never expired:
  /// an established call legitimately lasts arbitrarily long.
  std::size_t expire_early(SimTime now, SimTime ttl);

  [[nodiscard]] std::size_t active_count() const { return slab_.size(); }
  [[nodiscard]] std::uint64_t created_count() const { return created_; }
  [[nodiscard]] std::uint64_t expired_count() const { return expired_; }
  [[nodiscard]] std::uint64_t abandoned_count() const { return abandoned_; }

  /// Allocation events ever made by the store (perf-gate counter).
  [[nodiscard]] std::uint64_t store_allocs() const {
    return slab_.stats().chunk_allocs + table_.stats().grows;
  }

 private:
  [[nodiscard]] Dialog* find(const DialogProbe& probe);
  void erase(const Dialog& dialog, common::SlabHandle slot);

  common::Slab<Dialog> slab_;
  common::FlatTable<common::SlabHandle> table_;
  std::uint64_t created_{0};
  std::uint64_t expired_{0};
  std::uint64_t abandoned_{0};
};

}  // namespace svk::dialog
