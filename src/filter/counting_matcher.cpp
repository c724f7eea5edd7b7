#include "filter/counting_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dbsp {

namespace {

// A program is the tree in pre-order, one 32-bit op per node: the top
// three bits hold the node kind and the low 29 bits its operand. A leaf's
// operand is its predicate id; kAccess is a leaf that feeds the counter
// (an access leaf). An And/Or's operand is the length in ops of its
// children's code, so short-circuiting jumps straight past the rest.
// Not, True and False take none; Not's child follows it.
enum OpKind : std::uint32_t { kLeaf, kAnd, kOr, kNot, kTrue, kFalse, kAccess };
constexpr unsigned kKindShift = 29;
constexpr std::uint32_t kOperandMask = (std::uint32_t{1} << kKindShift) - 1;

std::uint32_t encode(OpKind kind, std::size_t operand) {
  if (operand > kOperandMask) throw std::length_error("matcher: program operand overflow");
  return (static_cast<std::uint32_t>(kind) << kKindShift) | static_cast<std::uint32_t>(operand);
}

OpKind kind_of(std::uint32_t op) { return static_cast<OpKind>(op >> kKindShift); }

bool is_leaf(std::uint32_t op) { return kind_of(op) == kLeaf || kind_of(op) == kAccess; }

// Turns the access leaves in [begin, end) back into plain leaves.
void clear_access(std::uint32_t* begin, const std::uint32_t* end) {
  for (; begin != end; ++begin) {
    if (kind_of(*begin) == kAccess) *begin = encode(kLeaf, *begin & kOperandMask);
  }
}

// Leaves `pc` just past the code of the node at `pc`.
void skip(const std::uint32_t*& pc) {
  const std::uint32_t op = *pc++;
  switch (kind_of(op)) {
    case kAnd:
    case kOr: pc += op & kOperandMask; return;
    case kNot: skip(pc); return;
    default: return;
  }
}

// pmin_A of the node at `pc`: Node::pmin's recursion with plain leaves
// counted as 0. Leaves `pc` just past the node's code.
std::uint32_t access_pmin(const std::uint32_t*& pc) {
  constexpr std::uint32_t kNever = Node::kPminUnsatisfiable;
  const std::uint32_t op = *pc++;
  switch (kind_of(op)) {
    case kAccess: return 1;
    case kAnd:
    case kOr: {
      const bool is_and = kind_of(op) == kAnd;
      const std::uint32_t* end = pc + (op & kOperandMask);
      std::uint64_t acc = is_and ? 0 : kNever;
      while (pc != end) {
        const std::uint64_t child = access_pmin(pc);
        acc = is_and ? std::min<std::uint64_t>(acc + child, kNever) : std::min(acc, child);
      }
      return static_cast<std::uint32_t>(acc);
    }
    case kNot: skip(pc); return 0;
    case kFalse: return kNever;
    default: return 0;  // kLeaf, kTrue
  }
}

// The leaf predicate ids of `program` — its access leaves only when
// `access_only` — sorted into `out`.
void sorted_leaf_ids(const std::vector<std::uint32_t>& program, bool access_only,
                     std::vector<std::uint32_t>& out) {
  out.clear();
  for (const std::uint32_t op : program) {
    if (access_only ? kind_of(op) == kAccess : is_leaf(op)) out.push_back(op & kOperandMask);
  }
  std::sort(out.begin(), out.end());
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
    pred_stats_.resize(needed);
    fulfilled_.resize((needed + 63) / 64, 0);
  }
}

void CountingMatcher::compile(Node& node, std::vector<std::uint32_t>& program) {
  switch (node.kind()) {
    case NodeKind::Leaf: {
      const auto result = registry_.add_reference(node.predicate());
      node.set_predicate_id(result.id);
      if (result.new_predicate) {
        grow_predicate_arrays();
        const auto attr = registry_.predicate(result.id).attribute();
        if (attr.value() >= attr_index_.size()) {
          throw std::out_of_range("matcher: predicate on attribute outside schema");
        }
        attr_index_[attr.value()].insert(result.id, registry_.predicate(result.id));
        assert(pred_slots_[result.id.value()].empty());
        pred_stats_[result.id.value()] = PredStats{epoch_, 0};
      }
      program.push_back(encode(kLeaf, result.id.value()));
      return;
    }
    case NodeKind::And:
    case NodeKind::Or: {
      const std::size_t header = program.size();
      program.push_back(0);
      for (auto& child : node.children()) compile(*child, program);
      program[header] = encode(node.kind() == NodeKind::And ? kAnd : kOr,
                               program.size() - header - 1);
      return;
    }
    case NodeKind::Not:
      program.push_back(encode(kNot, 0));
      compile(*node.children()[0], program);
      return;
    case NodeKind::True: program.push_back(encode(kTrue, 0)); return;
    case NodeKind::False: program.push_back(encode(kFalse, 0)); return;
  }
}

void CountingMatcher::release(const std::vector<std::uint32_t>& program) {
  for (const std::uint32_t op : program) {
    if (!is_leaf(op)) continue;
    const PredicateId pid(op & kOperandMask);
    if (auto gone = registry_.release_reference(pid)) {
      attr_index_[gone->attribute().value()].remove(pid, *gone);
    }
  }
}

double CountingMatcher::hit_rate(std::uint32_t pred) const {
  const PredStats& s = pred_stats_[pred];
  const std::uint64_t seen = epoch_ - s.born;
  if (seen < kWarmupEvents) return 1.0;
  // Add-one smoothing: a predicate no event fulfilled still costs a little,
  // and less the longer it has been watched.
  return (static_cast<double>(s.hits) + 1.0) / (static_cast<double>(seen) + 2.0);
}

CountingMatcher::Plan CountingMatcher::plan_node(std::uint32_t*& pc) {
  std::uint32_t* const node = pc++;
  const std::uint32_t operand = *node & kOperandMask;
  switch (kind_of(*node)) {
    case kLeaf:
    case kAccess:
      *node = encode(kAccess, operand);
      return {hit_rate(operand), registry_.references(PredicateId(operand)), true};
    case kAnd: {
      // Keep the cheapest child that bounds the count; unmark the rest.
      const std::uint32_t* const end = pc + operand;
      Plan best;
      std::uint32_t* best_begin = nullptr;
      std::uint32_t* best_end = nullptr;
      while (pc != end) {
        std::uint32_t* const begin = pc;
        const Plan child = plan_node(pc);
        const bool better =
            child.bounded &&
            (!best.bounded || child.hits < best.hits ||
             (child.hits == best.hits && child.references < best.references));
        if (!better) {
          clear_access(begin, pc);
          continue;
        }
        if (best.bounded) clear_access(best_begin, best_end);
        best = child;
        best_begin = begin;
        best_end = pc;
      }
      return best;
    }
    case kOr: {
      std::uint32_t* const begin = pc;
      const std::uint32_t* const end = pc + operand;
      Plan all{0, 0, true};
      while (pc != end) {
        const Plan child = plan_node(pc);
        all.hits += child.hits;
        all.references += child.references;
        all.bounded = all.bounded && child.bounded;
      }
      if (all.bounded) return all;
      clear_access(begin, end);  // pmin_A is 0 whatever the Or indexes
      return {};
    }
    case kNot: {
      std::uint32_t* const begin = pc;
      const std::uint32_t* end = pc;
      skip(end);
      clear_access(begin, end);
      pc += end - begin;
      return {};
    }
    case kFalse: return {0, 0, true};  // never true: nothing needs counting
    default: return {};                 // kTrue
  }
}

void CountingMatcher::plan(std::uint32_t slot) {
  std::vector<std::uint32_t>& program = slots_[slot].program;
  if (epoch_ < kWarmupEvents) {
    for (std::uint32_t& op : program) {
      if (is_leaf(op)) op = encode(kAccess, op & kOperandMask);
    }
  } else {
    std::uint32_t* pc = program.data();
    plan_node(pc);
  }
  const std::uint32_t* pc = program.data();
  set_pmin(slot, access_pmin(pc));
}

void CountingMatcher::link(std::uint32_t slot) {
  sorted_leaf_ids(slots_[slot].program, /*access_only=*/true, scratch_ids_);
  for (std::size_t i = 0; i < scratch_ids_.size();) {
    std::size_t j = i + 1;
    while (j < scratch_ids_.size() && scratch_ids_[j] == scratch_ids_[i]) ++j;
    pred_slots_[scratch_ids_[i]].push_back({slot, static_cast<std::uint32_t>(j - i)});
    i = j;
  }
}

void CountingMatcher::unlink(std::uint32_t slot) {
  sorted_leaf_ids(slots_[slot].program, /*access_only=*/true, scratch_ids_);
  for (std::size_t i = 0; i < scratch_ids_.size(); ++i) {
    if (i > 0 && scratch_ids_[i] == scratch_ids_[i - 1]) continue;
    auto& list = pred_slots_[scratch_ids_[i]];
    auto it = std::find_if(list.begin(), list.end(),
                           [&](const PredSub& p) { return p.slot == slot; });
    assert(it != list.end());
    *it = list.back();
    list.pop_back();
  }
}

void CountingMatcher::replan() {
  for (auto& list : pred_slots_) list.clear();  // keeps each list's capacity
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].sub == nullptr) continue;
    plan(slot);
    link(slot);
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
  compile(sub.root(), scratch_program_);
  // Copied rather than compiled in place so the allocation is exact.
  slots_[slot].program.assign(scratch_program_.begin(), scratch_program_.end());
  hot_[slot] = Hot{};
  hot_[slot].pmin = 1;  // placeholder != 0 so set_pmin tracks the always list
  plan(slot);
  link(slot);
  association_count_ += associations_of(sub.id());
  ++live_subs_;
}

void CountingMatcher::remove(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  // Pull the slot out of the always-eval list before releasing references.
  set_pmin(slot, 1);
  association_count_ -= associations_of(sub.id());
  unlink(slot);
  release(slots_[slot].program);
  slot_by_id_.erase(sub.id().value());
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_subs_;
}

void CountingMatcher::remove(SubscriptionId id) { remove(*slots_[slot_of(id)].sub); }

void CountingMatcher::reindex(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  association_count_ -= associations_of(sub.id());
  unlink(slot);
  // Compile the new tree before releasing the old one so predicates shared
  // between them never drop to zero references (which would thrash the
  // attribute index).
  scratch_program_.clear();
  compile(sub.root(), scratch_program_);
  release(slots_[slot].program);
  // Pruning only shrinks trees, so this reuses the program's capacity.
  slots_[slot].program.assign(scratch_program_.begin(), scratch_program_.end());
  plan(slot);
  link(slot);
  association_count_ += associations_of(sub.id());
}

bool CountingMatcher::run(const std::uint32_t*& pc) const {
  const std::uint32_t op = *pc++;
  const std::uint32_t operand = op & kOperandMask;
  switch (op >> kKindShift) {
    case kLeaf:
    case kAccess: return ((fulfilled_[operand >> 6] >> (operand & 63)) & 1) != 0;
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
    ++pred_stats_[pid.value()].hits;
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
  if (epoch_ == next_plan_) {
    replan();
    next_plan_ *= 2;
  }
}

std::size_t CountingMatcher::associations_of(SubscriptionId id) const {
  std::vector<std::uint32_t> preds;
  sorted_leaf_ids(slots_[slot_of(id)].program, /*access_only=*/false, preds);
  return static_cast<std::size_t>(std::unique(preds.begin(), preds.end()) - preds.begin());
}

}  // namespace dbsp
