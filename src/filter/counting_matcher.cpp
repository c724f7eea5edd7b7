#include "filter/counting_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dbsp {

namespace {

// A program is the tree in pre-order, one 32-bit op per node: the top
// three bits hold the node kind and the low 29 bits its operand. A leaf's
// operand is its predicate id. An And/Or's operand is the length in ops of
// its children's code, so short-circuiting jumps straight past the rest.
// Not, True and False take none; Not's child follows it.
enum OpKind : std::uint32_t { kLeaf, kAnd, kOr, kNot, kTrue, kFalse };
constexpr unsigned kKindShift = 29;
constexpr std::uint32_t kOperandMask = (std::uint32_t{1} << kKindShift) - 1;

std::uint32_t encode(OpKind kind, std::size_t operand) {
  if (operand > kOperandMask) throw std::length_error("matcher: program operand overflow");
  return (static_cast<std::uint32_t>(kind) << kKindShift) | static_cast<std::uint32_t>(operand);
}

}  // namespace

CountingMatcher::CountingMatcher(const Schema& schema) : schema_(&schema) {
  attr_index_.resize(schema.attribute_count());
}

std::uint32_t CountingMatcher::slot_of(SubscriptionId id) const {
  auto it = slot_by_id_.find(id.value());
  if (it == slot_by_id_.end()) throw std::out_of_range("matcher: unknown subscription");
  return it->second;
}

bool CountingMatcher::contains(SubscriptionId id) const {
  return slot_by_id_.count(id.value()) != 0;
}

void CountingMatcher::grow_predicate_arrays() {
  const std::size_t needed = registry_.capacity();
  if (pred_slots_.size() < needed) {
    pred_slots_.resize(needed);
    fulfilled_.resize((needed + 63) / 64, 0);
  }
}

void CountingMatcher::index_tree(Node& node, SubscriptionId id, std::uint32_t slot,
                                 std::vector<std::uint32_t>& program) {
  switch (node.kind()) {
    case NodeKind::Leaf: {
      const auto result = registry_.add_reference(node.predicate(), id);
      node.set_predicate_id(result.id);
      grow_predicate_arrays();
      if (result.new_predicate) {
        const auto attr = registry_.predicate(result.id).attribute();
        if (attr.value() >= attr_index_.size()) {
          throw std::out_of_range("matcher: predicate on attribute outside schema");
        }
        attr_index_[attr.value()].insert(result.id, registry_.predicate(result.id));
        pred_slots_[result.id.value()].clear();
      }
      auto& assoc = pred_slots_[result.id.value()];
      if (result.new_association) {
        assoc.push_back({slot, 1});
      } else {
        // Rare: the same predicate in another leaf of the same subscription.
        auto entry = std::find_if(assoc.begin(), assoc.end(),
                                  [&](const PredSub& p) { return p.slot == slot; });
        assert(entry != assoc.end());
        ++entry->leaf_refs;
      }
      program.push_back(encode(kLeaf, result.id.value()));
      return;
    }
    case NodeKind::And:
    case NodeKind::Or: {
      const std::size_t header = program.size();
      program.push_back(0);
      for (auto& child : node.children()) index_tree(*child, id, slot, program);
      program[header] = encode(node.kind() == NodeKind::And ? kAnd : kOr,
                               program.size() - header - 1);
      return;
    }
    case NodeKind::Not:
      program.push_back(encode(kNot, 0));
      index_tree(*node.children()[0], id, slot, program);
      return;
    case NodeKind::True: program.push_back(encode(kTrue, 0)); return;
    case NodeKind::False: program.push_back(encode(kFalse, 0)); return;
  }
}

void CountingMatcher::release_program(SubscriptionId id, std::uint32_t slot,
                                      const std::vector<std::uint32_t>& program) {
  for (const std::uint32_t op : program) {
    if (op >> kKindShift != kLeaf) continue;
    const PredicateId pid(op & kOperandMask);
    auto result = registry_.release_reference(pid, id);
    auto& assoc = pred_slots_[pid.value()];
    auto it = std::find_if(assoc.begin(), assoc.end(),
                           [&](const PredSub& p) { return p.slot == slot; });
    assert(it != assoc.end());
    if (result.association_removed) {
      *it = assoc.back();
      assoc.pop_back();
    } else {
      --it->leaf_refs;
    }
    if (result.removed_predicate) {
      const auto attr = result.removed_predicate->attribute();
      attr_index_[attr.value()].remove(pid, *result.removed_predicate);
    }
  }
}

void CountingMatcher::set_pmin(std::uint32_t slot, std::uint32_t pmin) {
  const std::uint32_t old = hot_[slot].pmin;
  hot_[slot].pmin = pmin;
  const bool was_always = slots_[slot].sub != nullptr && old == 0;
  const bool is_always = pmin == 0;
  if (was_always == is_always) return;
  if (is_always) {
    always_eval_.push_back(slot);
  } else {
    auto it = std::find(always_eval_.begin(), always_eval_.end(), slot);
    if (it != always_eval_.end()) {
      *it = always_eval_.back();
      always_eval_.pop_back();
    }
  }
}

void CountingMatcher::add(Subscription& sub) {
  if (contains(sub.id())) throw std::invalid_argument("matcher: duplicate subscription id");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    hot_.emplace_back();
  }
  slot_by_id_.emplace(sub.id().value(), slot);
  slots_[slot].sub = &sub;
  scratch_program_.clear();
  index_tree(sub.root(), sub.id(), slot, scratch_program_);
  // Copied rather than compiled in place so the allocation is exact.
  slots_[slot].program.assign(scratch_program_.begin(), scratch_program_.end());
  hot_[slot] = Hot{};
  hot_[slot].pmin = 1;  // placeholder != 0 so set_pmin tracks the always list
  set_pmin(slot, sub.root().pmin());
  ++live_subs_;
}

void CountingMatcher::remove(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  // Pull the slot out of the always-eval list before releasing references.
  set_pmin(slot, 1);
  release_program(sub.id(), slot, slots_[slot].program);
  slot_by_id_.erase(sub.id().value());
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_subs_;
}

void CountingMatcher::remove(SubscriptionId id) { remove(*slots_[slot_of(id)].sub); }

void CountingMatcher::reindex(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  // Index the new tree first so predicates shared between old and new trees
  // never drop to zero references (which would thrash the attribute index).
  scratch_program_.clear();
  index_tree(sub.root(), sub.id(), slot, scratch_program_);
  release_program(sub.id(), slot, slots_[slot].program);
  // Pruning only shrinks trees, so this reuses the program's capacity.
  slots_[slot].program.assign(scratch_program_.begin(), scratch_program_.end());
  set_pmin(slot, sub.root().pmin());
}

bool CountingMatcher::run(const std::uint32_t*& pc) const {
  const std::uint32_t op = *pc++;
  const std::uint32_t operand = op & kOperandMask;
  switch (op >> kKindShift) {
    case kLeaf: return ((fulfilled_[operand >> 6] >> (operand & 63)) & 1) != 0;
    case kAnd:
    case kOr: {
      // The first child equal to `decisive` (false for And, true for Or)
      // decides the node; the rest of its children are skipped.
      const bool decisive = op >> kKindShift == kOr;
      const std::uint32_t* end = pc + operand;
      while (pc != end) {
        if (run(pc) == decisive) {
          pc = end;
          return decisive;
        }
      }
      return !decisive;
    }
    case kNot: return !run(pc);
    case kTrue: return true;
    default: return false;
  }
}

void CountingMatcher::match(const Event& event, std::vector<SubscriptionId>& out) {
  ++epoch_;
  ++counters_.events;
  scratch_preds_.clear();
  scratch_candidates_.clear();

  for (const auto& [attr, value] : event.pairs()) {
    if (attr.value() >= attr_index_.size()) continue;
    attr_index_[attr.value()].collect(value, scratch_preds_);
  }
  counters_.predicate_hits += scratch_preds_.size();
  for (const PredicateId pid : scratch_preds_) {
    fulfilled_[pid.value() >> 6] |= std::uint64_t{1} << (pid.value() & 63);
  }

  if (pmin_trigger_) {
    for (const PredicateId pid : scratch_preds_) {
      const std::vector<PredSub>& assoc = pred_slots_[pid.value()];
      counters_.counter_increments += assoc.size();
      for (const PredSub& entry : assoc) {
        Hot& h = hot_[entry.slot];
        if (h.epoch != epoch_) {
          h.epoch = epoch_;
          h.count = 0;
        }
        const std::uint32_t before = h.count;
        h.count = before + entry.leaf_refs;
        if (before < h.pmin && h.count >= h.pmin) scratch_candidates_.push_back(entry.slot);
      }
    }
    for (const std::uint32_t slot : always_eval_) scratch_candidates_.push_back(slot);
  } else {
    // Ablation mode: evaluate everything.
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].sub != nullptr) scratch_candidates_.push_back(slot);
    }
  }

  const std::size_t candidates = scratch_candidates_.size();
  counters_.tree_evaluations += candidates;
  // Candidates are scattered over the slot table and each program lives
  // in its own allocation: prefetch a slot, then its program, a few
  // candidates ahead so those misses overlap with evaluation.
  for (std::size_t i = 0; i < candidates; ++i) {
    if (i + 16 < candidates) __builtin_prefetch(&slots_[scratch_candidates_[i + 16]]);
    if (i + 8 < candidates) __builtin_prefetch(slots_[scratch_candidates_[i + 8]].program.data());
    const Slot& s = slots_[scratch_candidates_[i]];
    const std::uint32_t* pc = s.program.data();
    if (run(pc)) {
      ++counters_.matches;
      out.push_back(s.sub->id());
    }
  }

  for (const PredicateId pid : scratch_preds_) fulfilled_[pid.value() >> 6] = 0;
}

std::size_t CountingMatcher::associations_of(SubscriptionId id) const {
  std::vector<std::uint32_t> preds;
  for (const std::uint32_t op : slots_[slot_of(id)].program) {
    if (op >> kKindShift == kLeaf) preds.push_back(op & kOperandMask);
  }
  std::sort(preds.begin(), preds.end());
  return static_cast<std::size_t>(std::unique(preds.begin(), preds.end()) - preds.begin());
}

}  // namespace dbsp
