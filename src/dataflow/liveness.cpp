#include "dataflow/liveness.hpp"

#include <algorithm>

#include "dataflow/summaries.hpp"
#include "obs/metrics.hpp"

namespace rvdyn::dataflow {

namespace {

using isa::RegSet;
using parse::Block;
using parse::EdgeType;

// Resolved call/tail-call target of `b`'s terminator, or 0.
std::uint64_t resolved_callee(const Block* b) {
  for (const parse::Edge& e : b->succs())
    if ((e.type == EdgeType::Call || e.type == EdgeType::TailCall) && e.target)
      return e.target;
  return 0;
}

// Registers dead given the live set: x0, sp, gp and tp never are.
RegSet dead_of(RegSet live) {
  RegSet dead = ~live;
  dead.remove(isa::zero);
  dead.remove(isa::sp);
  dead.remove(isa::gp);
  dead.remove(isa::tp);
  return dead;
}

}  // namespace

RegSet Liveness::abi_live_at_return() {
  static const RegSet s = [] {
    // Callee-saved registers the function must preserve, plus the
    // potential return values.
    RegSet s;
    for (isa::Reg r : {isa::sp, isa::gp, isa::tp, isa::s0, isa::s1, isa::a0,
                       isa::a1})
      s.add(r);
    for (std::uint8_t n = 18; n <= 27; ++n) s.add(isa::x(n));  // s2-s11
    for (std::uint8_t n : {8, 9, 10, 11}) s.add(isa::f(n));  // fs0-1, fa0-1
    for (std::uint8_t n = 18; n <= 27; ++n) s.add(isa::f(n));  // fs2-fs11
    return s;
  }();
  return s;
}

RegSet Liveness::call_uses() {
  static const RegSet s = [] {
    RegSet s;
    for (std::uint8_t n = 10; n <= 17; ++n) s.add(isa::x(n));  // a0-a7
    for (std::uint8_t n = 10; n <= 17; ++n) s.add(isa::f(n));  // fa0-fa7
    s.add(isa::sp);
    return s;
  }();
  return s;
}

RegSet Liveness::call_defs() {
  static const RegSet s = [] {
    RegSet s;
    for (unsigned i = 0; i < isa::kNumRegs; ++i)
      if (isa::is_caller_saved(isa::Reg::from_index(i)))
        s.add(isa::Reg::from_index(i));
    return s;
  }();
  return s;
}

Liveness::Effect Liveness::effect(const parse::ParsedInsn& pi,
                                  std::uint64_t callee) const {
  const isa::Instruction& insn = pi.insn;
  const bool is_call =
      (insn.is_jal() || insn.is_jalr()) && !(insn.link_reg() == isa::zero);
  if (is_call) {
    // Default (ABI) model: a call defines the caller-saved set and uses
    // the argument registers. With an interprocedural summary, use the
    // callee's actual (may-use, must-def) sets instead. The call itself
    // writes the link register and reads an indirect call's target.
    RegSet uses = call_uses();
    RegSet kills = call_defs();
    if (summaries_ && callee) {
      if (const FuncSummary* s = summaries_->lookup(callee)) {
        uses = s->may_use;
        kills = s->must_def;
      }
    }
    return {kills | insn.regs_written(), uses | insn.regs_read()};
  }
  if (insn.has_flag(isa::F_ECALL)) {
    // A syscall reads its arguments a0-a7 and returns in a0/a1.
    static const Effect syscall = [] {
      RegSet rets, args;
      rets.add(isa::a0);
      rets.add(isa::a1);
      for (std::uint8_t n = 10; n <= 17; ++n) args.add(isa::x(n));
      return Effect{rets, args};
    }();
    return syscall;
  }
  return {insn.regs_written(), insn.regs_read()};
}

Liveness::Liveness(const parse::Function& f, const Summaries* summaries,
                   ReturnBoundary boundary)
    : summaries_(summaries), num_(f) {
  RVDYN_OBS_COUNT("rvdyn.dataflow.liveness.runs");
  const std::size_t n = num_.size();

  // Per-instruction effects, folded into one (kill, use) pair per block;
  // successor lists as indices; the constant part of each live-out that
  // interprocedural and unknown edges contribute.
  const RegSet at_return =
      boundary == ReturnBoundary::Abi ? abi_live_at_return() : RegSet();
  std::vector<Effect> effects(num_.first(n));
  std::vector<Effect> block_effect(n);
  std::vector<RegSet> base_out(n);
  std::vector<std::uint32_t> succ_first(n + 1, 0);
  std::vector<std::uint32_t> succs;
  for (std::size_t i = 0; i < n; ++i) {
    const Block* b = num_.block(i);
    const auto& insns = b->insns();
    const std::uint64_t callee = resolved_callee(b);
    RegSet kill, use;
    for (std::size_t k = insns.size(); k-- > 0;) {
      const Effect e = effect(insns[k], k + 1 == insns.size() ? callee : 0);
      effects[num_.first(i) + k] = e;
      use = (use - e.first) | e.second;
      kill |= e.first;
    }
    block_effect[i] = {kill, use};

    for (const parse::Edge& e : b->succs()) {
      switch (e.type) {
        case EdgeType::Return:
          base_out[i] |= at_return;
          break;
        case EdgeType::TailCall: {
          const FuncSummary* s =
              summaries_ && e.target ? summaries_->lookup(e.target) : nullptr;
          base_out[i] |= s ? s->may_use : call_uses();
          break;
        }
        case EdgeType::Unresolved:
          base_out[i] = ~RegSet();  // unknown flow: assume everything is read
          break;
        case EdgeType::Call:
          break;  // interprocedural; handled by the call transfer itself
        default: {
          const std::ptrdiff_t t = num_.index_at(e.target);
          if (t >= 0) succs.push_back(static_cast<std::uint32_t>(t));
          break;
        }
      }
    }
    succ_first[i + 1] = static_cast<std::uint32_t>(succs.size());
  }
  auto out_of = [&](std::size_t i, const std::vector<RegSet>& in) {
    RegSet out = base_out[i];
    for (std::uint32_t s = succ_first[i]; s < succ_first[i + 1]; ++s)
      out |= in[succs[s]];
    return out;
  };

  // Least fixpoint by reverse sweeps in address order (exits first) until
  // no block's live-in changes.
  std::vector<RegSet> in(n);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = n; i-- > 0;) {
      const RegSet next =
          (out_of(i, in) - block_effect[i].first) | block_effect[i].second;
      if (next == in[i]) continue;
      in[i] = next;
      changed = true;
    }
  }

  // Materialize every instruction's live-before set once.
  live_.resize(num_.first(n));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t at = num_.first(i + 1) - 1;
    RegSet live = out_of(i, in);
    live_[at] = live;
    while (at-- > num_.first(i)) {
      live = (live - effects[at].first) | effects[at].second;
      live_[at] = live;
    }
  }
}

RegSet Liveness::live_out(const Block* block) const {
  const std::ptrdiff_t i = num_.index_of(block);
  return i < 0 ? ~RegSet() : live_[num_.first(i + 1) - 1];
}

RegSet Liveness::live_in(const Block* block) const {
  const std::ptrdiff_t i = num_.index_of(block);
  return i < 0 ? ~RegSet() : live_[num_.first(i)];
}

RegSet Liveness::live_before(const Block* block, std::size_t index) const {
  const auto& insns = block->insns();
  index = std::min(index, insns.size());
  const std::ptrdiff_t i = num_.index_of(block);
  if (i >= 0) return live_[num_.first(i) + index];
  RegSet live = ~RegSet();
  const std::uint64_t callee = resolved_callee(block);
  for (std::size_t k = insns.size(); k > index; --k) {
    const Effect e = effect(insns[k - 1], k == insns.size() ? callee : 0);
    live = (live - e.first) | e.second;
  }
  return live;
}

RegSet Liveness::dead_before(const Block* block, std::size_t index) const {
  return dead_of(live_before(block, index));
}

RegSet Liveness::dead_at(std::uint64_t addr) const {
  const std::ptrdiff_t p = num_.point_at(addr);
  return p < 0 ? RegSet() : dead_of(live_[p]);
}

}  // namespace rvdyn::dataflow
