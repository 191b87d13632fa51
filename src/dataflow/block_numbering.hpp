// Address-order block numbering for the flat dataflow analyses.
//
// Liveness and StackHeightAnalysis store their per-program-point results
// in one vector per function: block i (blocks numbered in address order)
// owns the points [first(i), first(i + 1)) — one before each of its
// instructions, then one after the last. This helper holds that numbering
// and the lookups from a block, a block start or a code address into it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parse/cfg.hpp"

namespace rvdyn::dataflow {

class BlockNumbering {
 public:
  explicit BlockNumbering(const parse::Function& f) {
    const std::size_t n = f.blocks().size();
    starts_.reserve(n);
    blocks_.reserve(n);
    first_.reserve(n + 1);
    first_.push_back(0);
    for (const auto& [a, b] : f.blocks()) {
      starts_.push_back(a);
      blocks_.push_back(b.get());
      first_.push_back(first_.back() +
                       static_cast<std::uint32_t>(b->insns().size() + 1));
    }
  }

  std::size_t size() const { return blocks_.size(); }
  const parse::Block* block(std::size_t i) const { return blocks_[i]; }
  /// Block i's first point; first(size()) is the number of points.
  std::uint32_t first(std::size_t i) const { return first_[i]; }

  /// Index of the block starting at `a`, or -1.
  std::ptrdiff_t index_at(std::uint64_t a) const {
    auto it = std::lower_bound(starts_.begin(), starts_.end(), a);
    return it != starts_.end() && *it == a ? it - starts_.begin() : -1;
  }
  /// Index of `b`, or -1 when `b` is not one of the function's blocks.
  std::ptrdiff_t index_of(const parse::Block* b) const {
    const std::ptrdiff_t i = index_at(b->start());
    return i >= 0 && blocks_[i] == b ? i : -1;
  }

  /// Point before the instruction at `addr`, or -1 when `addr` is not an
  /// instruction boundary of the function.
  std::ptrdiff_t point_at(std::uint64_t addr) const {
    const Position p = position_of(addr);
    if (p.block < 0 || blocks_[p.block]->insns()[p.insn].addr != addr)
      return -1;
    return static_cast<std::ptrdiff_t>(first_[p.block] + p.insn);
  }
  /// Point before the instruction containing `pc`: the last instruction
  /// boundary at or below `pc` in the block containing it, or -1 when no
  /// block contains `pc`.
  std::ptrdiff_t point_containing(std::uint64_t pc) const {
    const Position p = position_of(pc);
    return p.block < 0
               ? -1
               : static_cast<std::ptrdiff_t>(first_[p.block] + p.insn);
  }

 private:
  /// The block containing `pc` and the position of the last instruction
  /// starting at or below it; block -1 when no block contains `pc`.
  struct Position {
    std::ptrdiff_t block = -1;
    std::size_t insn = 0;
  };
  Position position_of(std::uint64_t pc) const {
    auto it = std::upper_bound(starts_.begin(), starts_.end(), pc);
    if (it == starts_.begin()) return {};
    const std::size_t i = static_cast<std::size_t>(it - starts_.begin()) - 1;
    if (!blocks_[i]->contains(pc)) return {};
    const auto& insns = blocks_[i]->insns();
    auto at = std::upper_bound(insns.begin(), insns.end(), pc,
                               [](std::uint64_t a, const parse::ParsedInsn& i) {
                                 return a < i.addr;
                               });
    return {static_cast<std::ptrdiff_t>(i),
            static_cast<std::size_t>(at - insns.begin()) - 1};
  }

  std::vector<std::uint64_t> starts_;        ///< block starts, ascending
  std::vector<const parse::Block*> blocks_;  ///< parallel to starts_
  std::vector<std::uint32_t> first_;         ///< size() + 1 entries
};

}  // namespace rvdyn::dataflow
