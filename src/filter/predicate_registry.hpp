#pragma once

/// \file
/// Predicate interning with per-predicate leaf reference counts for the
/// counting matcher.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "subscription/predicate.hpp"

namespace dbsp {

/// Interns predicates and counts the subscription leaves that reference
/// each one.
///
/// Structurally equal predicates across all subscriptions share one
/// PredicateId, so each distinct condition is evaluated at most once per
/// event. A predicate lives while at least one leaf references it; its id
/// is recycled after the last release. Every call costs one hash lookup at
/// most: the registry keeps no per-predicate subscriber list. Which
/// subscription uses which predicate is recorded in the matcher's compiled
/// programs, and the matcher counts (predicate, subscription) associations
/// from them.
///
/// Not thread-safe; owned and serialized by its matcher.
class PredicateRegistry {
 public:
  struct AddResult {
    PredicateId id;
    bool new_predicate = false;  ///< predicate was not interned before (index it)
  };

  /// Interns `pred` and records one leaf reference to it.
  AddResult add_reference(const Predicate& pred);

  /// Releases one leaf reference of `pred_id`. When that was the last one,
  /// returns the predicate so the caller can remove it from attribute
  /// indexes (its id is already recycled at that point); otherwise null.
  /// Throws std::logic_error for a recycled id.
  std::unique_ptr<Predicate> release_reference(PredicateId pred_id);

  /// The interned predicate. The reference stays valid until the
  /// predicate's last reference is released (heap-allocated storage), so
  /// indexes may hold it across registry growth.
  [[nodiscard]] const Predicate& predicate(PredicateId id) const;
  /// Leaves currently referencing the predicate; 0 once its id is recycled.
  [[nodiscard]] std::uint64_t references(PredicateId id) const;

  /// Number of live distinct predicates.
  [[nodiscard]] std::size_t live_predicates() const { return live_predicates_; }
  /// Upper bound over all ids ever issued (dense array sizing).
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  [[nodiscard]] std::optional<PredicateId> find(const Predicate& pred) const;

 private:
  struct Entry {
    std::unique_ptr<Predicate> pred;  // null once recycled; heap for address stability
    std::uint64_t references = 0;
  };

  std::vector<Entry> entries_;
  std::vector<PredicateId> free_ids_;
  std::unordered_map<Predicate, PredicateId> intern_;
  std::size_t live_predicates_ = 0;
};

}  // namespace dbsp
