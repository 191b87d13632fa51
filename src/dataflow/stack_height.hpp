// Stack-height analysis (DataflowAPI, paper §2.1).
//
// Forward dataflow tracking the stack pointer's offset from its value at
// function entry. StackwalkerAPI's SP-based frame stepper (paper §3.2.7)
// uses this to walk frames of functions that, as most RISC-V compilers do,
// omit the frame pointer and address everything off sp.
//
// The analysis additionally tracks frame-pointer provenance: where x8 (s0)
// is set up from sp (`addi s0, sp, imm`), fp-relative sp restores
// (`addi sp, s0, imm` — the frame-pointer epilogue) keep the height known
// instead of demoting it, and the slot where the *caller's* fp is spilled
// (`sd s0, off(sp)` before x8 is first written) is discovered so the
// walker can recover it.
//
// Like Liveness, the solver runs over the address-order block numbering,
// and once it converges every program point's facts — the lattice state
// and whether the ra / fp spills have provably executed (a per-block bit
// from one dominator pass) — are stored, so every query is a lookup. A
// stack walker resolves a pc to its point once per frame (point_at).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dataflow/block_numbering.hpp"
#include "parse/cfg.hpp"

namespace rvdyn::dataflow {

/// Height lattice value: known delta (sp - sp_at_entry, in bytes, usually
/// negative) or unknown (sp modified in a non-constant way / conflicting
/// paths).
using StackHeight = std::optional<std::int64_t>;

/// Per-program-point lattice state: sp and fp offsets from the entry sp,
/// plus whether x8 provably still holds the value it had on entry (so a
/// `sd s0, off(sp)` spills the *caller's* frame pointer).
struct HeightState {
  StackHeight sp;
  StackHeight fp;            ///< x8 - entry_sp, known only after fp setup
  bool fp_original = false;  ///< x8 unmodified since function entry
  bool operator==(const HeightState&) const = default;
};

/// Everything known at one program point.
struct HeightPoint {
  HeightState state;
  bool ra_saved = false;  ///< the `sd ra` save has provably executed
  bool fp_saved = false;  ///< the caller-fp spill has provably executed
};

class StackHeightAnalysis {
 public:
  explicit StackHeightAnalysis(const parse::Function& f);

  /// The point before the instruction containing `pc` (the last
  /// instruction boundary at or below `pc` in the block containing it), or
  /// nullptr when no block of the function contains `pc`. The pointer
  /// lives as long as the analysis. A pc between boundaries (an async stop
  /// inside a patched region, a misaligned probe) maps to the instruction
  /// containing it: falling back to the block start would rewind the
  /// height across an sp adjustment earlier in the block.
  const HeightPoint* point_at(std::uint64_t pc) const;

  /// Height on entry to `block` (0 at the function entry block).
  StackHeight height_in(const parse::Block* block) const;

  /// Height immediately before instruction `index` of `block`.
  StackHeight height_before(const parse::Block* block,
                            std::size_t index) const;

  /// Height after the last instruction of `block`.
  StackHeight height_out(const parse::Block* block) const;

  /// Full lattice state immediately before instruction `index` of `block`.
  /// Unreached blocks report all-unknown / not-original.
  HeightState state_before(const parse::Block* block,
                           std::size_t index) const;

  /// fp's offset from the entry sp immediately before instruction `index`
  /// (known only after an `addi s0, sp, imm` at known height).
  StackHeight fp_height_before(const parse::Block* block,
                               std::size_t index) const;

  /// The fixed frame size when the function follows the standard pattern
  /// (one `addi sp, sp, -N` allocating from height 0): N, else nullopt.
  std::optional<std::int64_t> frame_size() const { return frame_size_; }

  /// The stack slot (relative to the entry sp) where the return address is
  /// saved, discovered from the first reachable `sd ra, off(sp)` at a
  /// known height. nullopt for leaf functions. Note that functions with a
  /// fast leaf path (e.g. a recursion base case) save ra on the slow path
  /// only — use ra_saved_at() to test a specific program point.
  std::optional<std::int64_t> ra_save_slot() const { return ra_slot_; }

  /// True when the `sd ra` save has provably executed by the time control
  /// is before instruction `index` of `block` (same block past the save,
  /// or a block dominated by the save's block).
  bool ra_saved_at(const parse::Block* block, std::size_t index) const;

  /// The stack slot (relative to the entry sp) holding the caller's frame
  /// pointer: the first reachable `sd s0, off(sp)` at a known height while
  /// x8 still holds its entry value. nullopt when the function never spills
  /// fp (or only after clobbering it).
  std::optional<std::int64_t> fp_save_slot() const { return fp_slot_; }

  /// True when the fp spill has provably executed before instruction
  /// `index` of `block` (same dominator rule as ra_saved_at).
  bool fp_saved_at(const parse::Block* block, std::size_t index) const;

  /// True when x8 provably still holds the caller's value immediately
  /// before instruction `index` of `block` (no write to x8 on any path
  /// from entry).
  bool fp_preserved_at(const parse::Block* block, std::size_t index) const {
    return state_before(block, index).fp_original;
  }

  /// True when any reached instruction of the function writes x8 (the
  /// register cannot be trusted to carry the caller's fp on exit paths).
  bool fp_clobbered() const { return fp_clobbered_; }

 private:
  static HeightState apply(const parse::ParsedInsn& pi, HeightState s);
  static HeightState merge(const HeightState& a, const HeightState& b);

  /// The stored point for (`block`, `index`), the index clamped to the
  /// block's end; nullptr when `block` is not one of the function's.
  const HeightPoint* point(const parse::Block* block, std::size_t index) const;
  /// A saved-bit query on a block of another function answers for the
  /// function's own block with the same start, as a dominance test by
  /// address would: the save's block itself, or the block's stored bit.
  bool saved_by_start(const parse::Block* block, std::ptrdiff_t save_block,
                      bool HeightPoint::*bit) const;

  BlockNumbering num_;
  std::vector<HeightPoint> points_;  ///< one per point of num_
  std::optional<std::int64_t> ra_slot_;
  std::optional<std::int64_t> fp_slot_;
  std::optional<std::int64_t> frame_size_;
  std::ptrdiff_t ra_block_ = -1;  ///< block index of the `sd ra` save
  std::ptrdiff_t fp_block_ = -1;  ///< block index of the caller-fp spill
  bool fp_clobbered_ = false;
};

}  // namespace rvdyn::dataflow
