#include "dataflow/stack_height.hpp"

#include <algorithm>
#include <deque>

#include "parse/loops.hpp"

namespace rvdyn::dataflow {

namespace {

using parse::Block;
using parse::EdgeType;

bool is_intraproc(EdgeType t) {
  switch (t) {
    case EdgeType::Fallthrough:
    case EdgeType::Taken:
    case EdgeType::NotTaken:
    case EdgeType::Jump:
    case EdgeType::IndirectJump:
    case EdgeType::CallFallthrough:
      return true;
    default:
      return false;
  }
}

/// Decompose a register-copy-plus-constant: `addi rd, rs, imm`,
/// `add rd, rs, x0` or `add rd, x0, rs` — the forms compilers emit for
/// frame setup/teardown (c.mv expands to the add forms). Returns
/// (source register, constant) when the instruction is one of them.
struct SrcAdjust {
  isa::Reg src;
  std::int64_t imm;
};
std::optional<SrcAdjust> adjust_src(const isa::Instruction& insn) {
  if (insn.mnemonic() == isa::Mnemonic::addi && insn.num_operands() == 3)
    return SrcAdjust{insn.operand(1).reg, insn.operand(2).imm};
  if (insn.mnemonic() == isa::Mnemonic::add && insn.num_operands() == 3) {
    if (insn.operand(2).reg == isa::zero)
      return SrcAdjust{insn.operand(1).reg, 0};
    if (insn.operand(1).reg == isa::zero)
      return SrcAdjust{insn.operand(2).reg, 0};
  }
  return std::nullopt;
}

/// For every block, whether block `s` dominates it (reflexively), given
/// each block's immediate dominator (the entry's is itself, -1 marks an
/// unreached block). Each answer is settled once: a walk up the dominator
/// tree stops at the first block already settled.
std::vector<std::int8_t> dominated_by(std::ptrdiff_t s,
                                      const std::vector<std::ptrdiff_t>& idom) {
  std::vector<std::int8_t> dom(idom.size(), -1);  // -1: not settled yet
  std::vector<std::size_t> chain;
  for (std::size_t i = 0; i < idom.size(); ++i) {
    std::size_t b = i;
    while (dom[b] < 0 && static_cast<std::ptrdiff_t>(b) != s && idom[b] >= 0 &&
           static_cast<std::size_t>(idom[b]) != b) {
      chain.push_back(b);
      b = static_cast<std::size_t>(idom[b]);
    }
    if (dom[b] < 0) dom[b] = static_cast<std::ptrdiff_t>(b) == s;
    for (const std::size_t c : chain) dom[c] = dom[b];
    chain.clear();
  }
  return dom;
}

}  // namespace

HeightState StackHeightAnalysis::apply(const parse::ParsedInsn& pi,
                                       HeightState s) {
  const isa::Instruction& insn = pi.insn;
  const bool writes_sp = insn.regs_written().contains(isa::sp);
  const bool writes_fp = insn.regs_written().contains(isa::fp);
  if (!writes_sp && !writes_fp) return s;

  const auto adj = adjust_src(insn);
  if (writes_sp) {
    // sp from sp: standard prologue/epilogue (covers c.addi16sp). sp from
    // fp: the frame-pointer epilogue `addi sp, s0, imm` — height stays
    // known when fp's offset is tracked.
    if (adj && adj->src == isa::sp && s.sp)
      s.sp = *s.sp + adj->imm;
    else if (adj && adj->src == isa::fp && s.fp)
      s.sp = *s.fp + adj->imm;
    else
      s.sp = std::nullopt;  // sp escapes the model
  }
  if (writes_fp) {
    s.fp_original = false;
    if (adj && adj->src == isa::sp && s.sp)
      s.fp = *s.sp + adj->imm;  // fp setup: addi s0, sp, frame
    else if (adj && adj->src == isa::fp && s.fp)
      s.fp = *s.fp + adj->imm;
    else
      s.fp = std::nullopt;  // fp reload / arbitrary write
  }
  return s;
}

HeightState StackHeightAnalysis::merge(const HeightState& a,
                                       const HeightState& b) {
  HeightState m;
  m.sp = (a.sp && b.sp && *a.sp == *b.sp) ? a.sp : std::nullopt;
  m.fp = (a.fp && b.fp && *a.fp == *b.fp) ? a.fp : std::nullopt;
  m.fp_original = a.fp_original && b.fp_original;
  return m;
}

StackHeightAnalysis::StackHeightAnalysis(const parse::Function& f)
    : num_(f) {
  const std::size_t n = num_.size();
  points_.resize(num_.first(n));
  const std::ptrdiff_t entry = num_.index_at(f.entry());
  if (entry < 0) return;

  // Forward worklist over block indices; the first edge to reach a block
  // sets its in-state, later ones merge components to "unknown" on
  // conflict.
  std::vector<HeightState> in(n);
  std::vector<bool> reached(n, false);
  std::deque<std::size_t> work{static_cast<std::size_t>(entry)};
  in[entry] = HeightState{0, std::nullopt, true};
  reached[entry] = true;
  while (!work.empty()) {
    const std::size_t b = work.front();
    work.pop_front();
    HeightState s = in[b];
    for (const auto& pi : num_.block(b)->insns()) s = apply(pi, s);
    for (const parse::Edge& e : num_.block(b)->succs()) {
      if (!is_intraproc(e.type)) continue;
      const std::ptrdiff_t t = num_.index_at(e.target);
      if (t < 0) continue;
      if (!reached[t]) {
        in[t] = s;
        reached[t] = true;
      } else {
        const HeightState m = merge(in[t], s);
        if (m == in[t]) continue;
        in[t] = m;
      }
      work.push_back(static_cast<std::size_t>(t));
    }
  }

  // Store every reached point's state. Then discover the frame allocation
  // and the ra/fp save slots from the first reachable occurrences at known
  // heights. Functions with fast leaf paths (recursion base cases)
  // allocate/save outside the entry block, so every reachable block is
  // scanned. The fp spill only identifies the *caller's* fp while x8
  // provably still holds its entry value.
  std::size_t ra_index = 0, fp_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!reached[i]) continue;
    const auto& insns = num_.block(i)->insns();
    HeightState s = in[i];
    for (std::size_t k = 0; k < insns.size(); ++k) {
      points_[num_.first(i) + k].state = s;
      const isa::Instruction& insn = insns[k].insn;
      if (!frame_size_ && s.sp == StackHeight(0) &&
          insn.mnemonic() == isa::Mnemonic::addi &&
          insn.num_operands() == 3 && insn.operand(0).reg == isa::sp &&
          insn.operand(1).reg == isa::sp && insn.operand(2).imm < 0)
        frame_size_ = -insn.operand(2).imm;
      if (insn.mnemonic() == isa::Mnemonic::sd && insn.num_operands() == 2 &&
          insn.operand(1).reg == isa::sp && s.sp.has_value()) {
        if (ra_block_ < 0 && insn.operand(0).reg == isa::ra) {
          ra_slot_ = *s.sp + insn.operand(1).imm;  // relative to entry sp
          ra_block_ = static_cast<std::ptrdiff_t>(i);
          ra_index = k;
        }
        if (fp_block_ < 0 && insn.operand(0).reg == isa::fp &&
            s.fp_original) {
          fp_slot_ = *s.sp + insn.operand(1).imm;
          fp_block_ = static_cast<std::ptrdiff_t>(i);
          fp_index = k;
        }
      }
      if (insn.regs_written().contains(isa::fp)) fp_clobbered_ = true;
      s = apply(insns[k], s);
    }
    points_[num_.first(i + 1) - 1].state = s;
  }
  if (ra_block_ < 0 && fp_block_ < 0) return;

  // A save has provably executed past it in its own block, and anywhere in
  // the blocks its block dominates.
  std::vector<std::ptrdiff_t> idom(n, -1);
  for (const auto& [b, d] : parse::immediate_dominators(f))
    idom[num_.index_at(b)] = num_.index_at(d);
  const auto mark = [&](std::ptrdiff_t save, std::size_t save_index,
                        bool HeightPoint::*bit) {
    if (save < 0) return;
    const std::vector<std::int8_t> dom = dominated_by(save, idom);
    for (std::size_t i = 0; i < n; ++i) {
      if (dom[i] != 1) continue;
      std::size_t p = num_.first(i);
      if (static_cast<std::ptrdiff_t>(i) == save) p += save_index + 1;
      for (; p < num_.first(i + 1); ++p) points_[p].*bit = true;
    }
  };
  mark(ra_block_, ra_index, &HeightPoint::ra_saved);
  mark(fp_block_, fp_index, &HeightPoint::fp_saved);
}

const HeightPoint* StackHeightAnalysis::point(const Block* block,
                                              std::size_t index) const {
  const std::ptrdiff_t i = num_.index_of(block);
  if (i < 0) return nullptr;
  const std::size_t lo = num_.first(i), last = num_.first(i + 1) - 1;
  return &points_[lo + std::min(index, last - lo)];
}

const HeightPoint* StackHeightAnalysis::point_at(std::uint64_t pc) const {
  const std::ptrdiff_t p = num_.point_containing(pc);
  return p < 0 ? nullptr : &points_[p];
}

bool StackHeightAnalysis::saved_by_start(const Block* block,
                                         std::ptrdiff_t save_block,
                                         bool HeightPoint::*bit) const {
  if (save_block < 0) return false;
  const std::ptrdiff_t j = num_.index_at(block->start());
  return j >= 0 && (j == save_block || points_[num_.first(j)].*bit);
}

bool StackHeightAnalysis::ra_saved_at(const Block* block,
                                      std::size_t index) const {
  const HeightPoint* p = point(block, index);
  return p ? p->ra_saved
           : saved_by_start(block, ra_block_, &HeightPoint::ra_saved);
}

bool StackHeightAnalysis::fp_saved_at(const Block* block,
                                      std::size_t index) const {
  const HeightPoint* p = point(block, index);
  return p ? p->fp_saved
           : saved_by_start(block, fp_block_, &HeightPoint::fp_saved);
}

HeightState StackHeightAnalysis::state_before(const Block* block,
                                              std::size_t index) const {
  const HeightPoint* p = point(block, index);
  return p ? p->state : HeightState{};
}

StackHeight StackHeightAnalysis::height_in(const Block* block) const {
  return state_before(block, 0).sp;
}

StackHeight StackHeightAnalysis::height_out(const Block* block) const {
  return state_before(block, block->insns().size()).sp;
}

StackHeight StackHeightAnalysis::height_before(const Block* block,
                                               std::size_t index) const {
  return state_before(block, index).sp;
}

StackHeight StackHeightAnalysis::fp_height_before(const Block* block,
                                                  std::size_t index) const {
  return state_before(block, index).fp;
}

}  // namespace rvdyn::dataflow
