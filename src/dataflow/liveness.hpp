// Register liveness analysis (DataflowAPI, paper §2.1).
//
// Backward may-analysis over a function's CFG. Its headline consumer is
// CodeGenAPI's *dead-register optimization* (paper §4.3): instrumentation
// that needs scratch registers first asks for registers that are dead at
// the instrumentation point, avoiding spills entirely when some exist.
//
// The solver runs on flat data: blocks are numbered in address order, each
// instruction's transfer is one (kill, use) pair folded into one pair per
// block, and the fixpoint is bit operations over index vectors. Once it
// converges, the live-before set of every instruction is stored, so every
// query is a lookup.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dataflow/block_numbering.hpp"
#include "parse/cfg.hpp"

namespace rvdyn::dataflow {

class Summaries;

class Liveness {
 public:
  /// What a Return edge contributes to live-out. `Abi` models the caller's
  /// perspective (return values + callee-saved registers live). `None`
  /// computes pure upward-exposed uses — what Summaries needs for may-use,
  /// where untouched pass-through registers must not count as reads.
  enum class ReturnBoundary { Abi, None };

  /// Computes liveness for every instruction of `f`. With `summaries`,
  /// calls to resolved callees use their interprocedural (may-use,
  /// must-def) sets instead of the full ABI clobber model, exposing more
  /// dead registers at call boundaries.
  explicit Liveness(const parse::Function& f,
                    const Summaries* summaries = nullptr,
                    ReturnBoundary boundary = ReturnBoundary::Abi);

  /// Registers live immediately before instruction `index` of `block`
  /// (i.e. whose current values may still be read on some path). A block
  /// that is not one of the function's own is analysed from an all-live
  /// exit.
  isa::RegSet live_before(const parse::Block* block, std::size_t index) const;

  /// Registers live after the last instruction of `block`.
  isa::RegSet live_out(const parse::Block* block) const;
  /// Registers live at the start of `block`.
  isa::RegSet live_in(const parse::Block* block) const;

  /// Registers provably dead before instruction `index` of `block` —
  /// available to instrumentation without a save/restore. x0 and sp are
  /// never reported dead.
  isa::RegSet dead_before(const parse::Block* block, std::size_t index) const;

  /// Point-granularity convenience for PatchAPI: the dead set immediately
  /// before the instruction at `addr` (instrumentation points are
  /// addresses). Empty — i.e. nothing usable without a spill — when `addr`
  /// is not an instruction boundary of this function.
  isa::RegSet dead_at(std::uint64_t addr) const;

  /// ABI register sets used at analysis boundaries (exposed for tests).
  static isa::RegSet abi_live_at_return();
  static isa::RegSet call_uses();
  static isa::RegSet call_defs();

 private:
  /// One instruction's transfer: live-before = (live-after - kill) | use.
  using Effect = std::pair<isa::RegSet, isa::RegSet>;

  /// `callee`: the resolved target of a call terminator, else 0.
  Effect effect(const parse::ParsedInsn& pi, std::uint64_t callee) const;

  const Summaries* summaries_ = nullptr;
  BlockNumbering num_;
  /// One set per point of num_: the live-before set of each instruction,
  /// then the block's live-out.
  std::vector<isa::RegSet> live_;
};

}  // namespace rvdyn::dataflow
