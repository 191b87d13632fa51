#include "dataflow/summaries.hpp"

#include <algorithm>
#include <vector>

#include "dataflow/liveness.hpp"
#include "obs/trace.hpp"

namespace rvdyn::dataflow {

namespace {

using isa::RegSet;
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

// Forward must-analysis: registers written on every path from the entry to
// each exit. Uses already-computed callee summaries (via `lookup`) for the
// definite writes of resolved calls; missing summaries contribute nothing.
// Blocks are numbered in address order; a block's transfer is one def set,
// `out = in | defs`.
RegSet compute_must_def(const parse::Function& f,
                        const Summaries& summaries) {
  const Block* entry = f.entry_block();
  if (!entry) return RegSet();

  const std::size_t n = f.blocks().size();
  std::vector<std::uint64_t> starts;
  starts.reserve(n);
  for (const auto& [a, b] : f.blocks()) starts.push_back(a);

  std::vector<RegSet> defs(n);
  std::vector<std::uint32_t> succ_first(n + 1, 0);
  std::vector<std::uint32_t> succs;
  std::vector<char> exits(n, 0);
  std::size_t i = 0;
  for (const auto& [a, b] : f.blocks()) {
    std::uint64_t callee = 0;
    for (const parse::Edge& e : b->succs()) {
      if ((e.type == EdgeType::Call || e.type == EdgeType::TailCall) &&
          e.target)
        callee = e.target;
      if (e.type == EdgeType::Return || e.type == EdgeType::TailCall)
        exits[i] = 1;
      if (!is_intraproc(e.type)) continue;
      auto it = std::lower_bound(starts.begin(), starts.end(), e.target);
      if (it != starts.end() && *it == e.target)
        succs.push_back(static_cast<std::uint32_t>(it - starts.begin()));
    }
    succ_first[i + 1] = static_cast<std::uint32_t>(succs.size());
    const auto& insns = b->insns();
    for (std::size_t k = 0; k < insns.size(); ++k) {
      const auto& insn = insns[k].insn;
      defs[i] |= insn.regs_written();
      const bool is_call = (insn.is_jal() || insn.is_jalr()) &&
                           !(insn.link_reg() == isa::zero);
      if (is_call && k + 1 == insns.size() && callee)
        if (const FuncSummary* s = summaries.lookup(callee))
          defs[i] |= s->must_def;
    }
    ++i;
  }

  // Greatest fixpoint of the intersection meet by forward sweeps in
  // address order: an unreached block counts as "everything defined", and
  // the entry starts with nothing defined.
  const std::size_t e0 = static_cast<std::size_t>(
      std::lower_bound(starts.begin(), starts.end(), entry->start()) -
      starts.begin());
  std::vector<RegSet> in(n);
  std::vector<char> reached(n, 0);
  reached[e0] = 1;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (!reached[b]) continue;
      const RegSet out = in[b] | defs[b];
      for (std::uint32_t s = succ_first[b]; s < succ_first[b + 1]; ++s) {
        const std::uint32_t t = succs[s];
        const RegSet met = reached[t] ? in[t] & out : out;
        if (reached[t] && met == in[t]) continue;
        reached[t] = 1;
        in[t] = met;
        changed = true;
      }
    }
  }

  // Exits: Return blocks intersect their outs; a tail call exits through
  // the callee (its must-defs were already folded into the block's defs).
  bool any_exit = false;
  RegSet result = ~RegSet();
  for (std::size_t b = 0; b < n; ++b) {
    if (!reached[b] || !exits[b]) continue;  // unreachable or not an exit
    any_exit = true;
    result &= in[b] | defs[b];
  }
  // A function with no returns never resumes its caller: every register may
  // be treated as killed on the (non-existent) fallthrough path.
  return any_exit ? result : ~RegSet();
}

}  // namespace

Summaries::Summaries(const parse::CodeObject& co) {
  RVDYN_OBS_SPAN("rvdyn.dataflow.summaries");
  const parse::CallGraph cg(co);
  for (std::uint64_t entry : cg.bottom_up_order()) {
    const parse::Function* f = co.function_at(entry);
    if (!f || !f->entry_block()) continue;

    FuncSummary summary;
    // May-use: liveness at the function entry, computed with the summaries
    // of already-finished callees (intra-SCC callees fall back to the ABI
    // model inside Liveness — sound, just less precise).
    // ReturnBoundary::None: a register the function never touches is a
    // pass-through, not a use — the caller-side transfer already keeps it
    // live when it is live after the call.
    Liveness live(*f, this, Liveness::ReturnBoundary::None);
    summary.may_use = live.live_before(f->entry_block(), 0);
    summary.must_def = compute_must_def(*f, *this);
    // x0 is never meaningfully defined.
    summary.must_def.remove(isa::zero);

    summary.precise = f->stats().n_unresolved == 0 &&
                      !cg.has_unknown_callees().count(entry);
    if (!summary.precise) {
      // Unknown flow inside: be maximally conservative.
      summary.may_use |= Liveness::call_uses();
      summary.must_def = RegSet();
    }
    summaries_[entry] = summary;
  }
}

}  // namespace rvdyn::dataflow
