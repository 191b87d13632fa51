// Coverage weaving + the campaign-global novelty filter.
#include <cstring>

#include "codegen/snippet.hpp"
#include "fuzz/fuzz.hpp"
#include "patch/point.hpp"

namespace rvdyn::fuzz {

namespace cg = rvdyn::codegen;

namespace {

/// The per-block edge snippet. `cur` is this block's compile-time id.
///
///   slot  = kMapBase + (prev ^ cur)          // prev is stored pre-shifted
///   if (map[slot] == 0) new_edges += 1       // first hit by this worker
///   map[slot] = (map[slot] + 2) | 1          // lit bit + 7-bit hit count
///   prev = cur >> 1
///
/// A lit byte is always odd: bit 0 marks the slot lit and bits 7..1 hold
/// the hit count mod 128, so a counter that wraps lands on 1, never on 0.
/// A plain `+= 1` counter wraps 255 -> 0 on a campaign-long map, and the
/// next hit on that slot would count as a first hit again. This form costs
/// one constant and one `or` more than `+= 1`; NeverZero or saturating
/// forms would need a second slot evaluation and load, since codegen
/// re-evaluates every subtree.
///
/// Order matters: the first-hit test must run before the increment, and the
/// slot expression must be evaluated before `prev` is updated — codegen
/// re-evaluates every occurrence of a subtree, so nothing here may depend
/// on a value an earlier statement in the same snippet changed.
cg::SnippetPtr edge_snippet(std::uint16_t cur) {
  const cg::Variable prev{kPrevAddr, 8, "fuzz_prev"};
  const cg::Variable new_edges{kNewEdgesAddr, 8, "fuzz_new_edges"};
  const auto slot = cg::binary(
      cg::BinOp::Add, cg::constant(static_cast<std::int64_t>(kMapBase)),
      cg::binary(cg::BinOp::Xor, cg::var_expr(prev), cg::constant(cur)));
  return cg::sequence({
      cg::if_then(cg::binary(cg::BinOp::Eq, cg::load(slot, 1), cg::constant(0)),
                  cg::increment(new_edges)),
      cg::store(slot,
                cg::binary(cg::BinOp::Or,
                           cg::binary(cg::BinOp::Add, cg::load(slot, 1),
                                      cg::constant(2)),
                           cg::constant(1)),
                1),
      cg::assign(prev, cg::constant(cur >> 1)),
  });
}

}  // namespace

WovenTarget weave_coverage(const symtab::Symtab& binary) {
  WovenTarget t;
  t.editor = std::make_unique<patch::BinaryEditor>(binary);
  for (const auto& [entry, func] : t.editor->code().functions()) {
    for (const auto& p :
         patch::find_points(*func, patch::PointType::BlockEntry)) {
      t.editor->insert(p, edge_snippet(block_id(p.block)));
      ++t.blocks_woven;
    }
  }
  t.binary = t.editor->commit();
  t.trap_entries = static_cast<unsigned>(t.editor->trap_table().size());
  return t;
}

void attach_coverage(emu::Machine& m, const WovenTarget& t) {
  m.load(t.binary);
  m.memory().set_dirty_exempt(kMapBase, kExemptSize);
  m.memory().write(kPrevAddr, 0, 8);
  m.memory().write(kNewEdgesAddr, 0, 8);
}

void read_map(emu::Machine& m, std::uint8_t* out) {
  m.memory().read_bytes(kMapBase, out, kMapSize);
}

unsigned GlobalCoverage::merge(const std::uint8_t* map) {
  std::lock_guard lock(mu_);
  unsigned fresh = 0;
  for (std::uint64_t i = 0; i < kMapSize; ++i) {
    if (map[i] != 0 && seen_[i] == 0) {
      seen_[i] = 1;
      ++fresh;
    }
  }
  count_ += fresh;
  return fresh;
}

unsigned GlobalCoverage::edges_seen() const {
  std::lock_guard lock(mu_);
  return count_;
}

}  // namespace rvdyn::fuzz
