// PatchAPI: snippet insertion and binary rewriting (paper §2.2, §3.3).
//
// BinaryEditor drives the pass-based relocation engine (patch/reloc/):
// instrumented functions are lowered to the widget IR, snippets are woven
// in, relocated code is RVC re-compressed and branch-relaxed to a fixed
// point, and the laid-out bytes land in a patch area (`.rvdyn.text`). Each
// original entry is overwritten with the cheapest in-range jump to the
// relocated version (paper §3.1.2's displacement ladder:
// c.j -> jal -> auipc+jalr -> trap).
//
// Commit semantics: the engine builds one immutable PatchPlan per editor
// session, then applies it through the AddressSpace interface —
// SymtabSpace for static rewriting, proccontrol::ProcessSpace for a live
// process. commit_to()/revert_from() may target any number of spaces (the
// plan is built once and reused); the symtab-returning commit() is a
// one-shot convenience whose second call fails with a Status error.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/codegen.hpp"
#include "parse/cfg.hpp"
#include "patch/address_space.hpp"
#include "patch/point.hpp"
#include "patch/reloc/mover.hpp"
#include "symtab/symtab.hpp"

namespace rvdyn::patch {

/// Counters for the rewrite, including the displacement-strategy ladder
/// (ablation A1) and dead-register usage (ablation A2).
#define RVDYN_PATCH_REWRITE_STATS(X)                            \
  X(relocated_functions, "rvdyn.patch.relocated_functions")     \
  X(snippets_inserted, "rvdyn.patch.snippets_inserted")         \
  /* entries patched with a 2-byte c.j, a 4-byte jal, an 8-byte \
     auipc+jalr, and a 2/4-byte trap plus trap-table entry */   \
  X(entry_cj, "rvdyn.patch.entry_cj")                           \
  X(entry_jal, "rvdyn.patch.entry_jal")                         \
  X(entry_auipc_jalr, "rvdyn.patch.entry_auipc_jalr")           \
  X(entry_trap, "rvdyn.patch.entry_trap")
struct RewriteStats {
  RVDYN_STATS(RewriteStats, RVDYN_PATCH_REWRITE_STATS)
  /// gen.n_insns, under the name perfbench and the example tools read;
  /// exported once, through gen.
  std::uint64_t snippet_insns = 0;
  codegen::GenStats gen;    ///< code generation, summed over every snippet
  reloc::RelocStats reloc;  ///< pass-pipeline accounting
};

/// The complete, immutable product of one relocation session: everything a
/// backend needs to install (or remove) the instrumentation.
struct PatchPlan {
  MappedRegion text;  ///< .rvdyn.text (absent when bytes are empty)
  MappedRegion data;  ///< .rvdyn.data
  std::vector<RegionSymbol> symbols;

  struct SpringboardWrite {
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> bytes;     ///< the springboard encoding
    std::vector<std::uint8_t> original;  ///< pre-patch bytes, for removal
  };
  std::vector<SpringboardWrite> springboards;
  std::vector<TrapEntry> traps;

  /// Where each springboarded original address lands in the patch area
  /// (debuggers use this to map original to relocated pcs).
  std::map<std::uint64_t, std::uint64_t> relocated_entry;
};

class BinaryEditor {
 public:
  /// Takes a copy of the binary; parses it immediately.
  explicit BinaryEditor(symtab::Symtab binary,
                        parse::ParseOptions popts = {});

  parse::CodeObject& code() { return *co_; }
  const parse::CodeObject& code() const { return *co_; }
  const symtab::Symtab& original() const { return binary_; }

  /// Allocate an instrumentation variable in the patch data area.
  codegen::Variable alloc_var(const std::string& name, std::uint8_t size = 8,
                              std::uint64_t initial = 0);

  /// Queue the paper's basic operation: insert snippet AST at point P.
  /// Multiple snippets at one point run in insertion order. Throws once a
  /// plan has been built (the session's insertion set is frozen).
  void insert(const Point& p, codegen::SnippetPtr snippet);

  /// Convenience: insert at every point of `type` in function `func_entry`.
  void insert_at(std::uint64_t func_entry, PointType type,
                 codegen::SnippetPtr snippet);

  /// Whether to use liveness-guided dead-register allocation (default on;
  /// off reproduces the always-spill baseline of the paper's Table 1 x86
  /// column).
  void set_use_dead_registers(bool v) { use_dead_regs_ = v; }

  /// Base address for the relocation area (default 1 MiB above text, in
  /// jal range; ablations move it out of range to force auipc+jalr).
  void set_patch_base(std::uint64_t text_base, std::uint64_t data_base) {
    patch_text_base_ = text_base;
    patch_data_base_ = data_base;
  }

  /// Apply the session's PatchPlan to `space` (built on first use). May
  /// target any number of address spaces — e.g. a static rewrite and a
  /// live process receive the identical plan. Returns a Status for
  /// contract errors; internal relocation failures still throw Error.
  Status commit_to(AddressSpace& space);

  /// Remove the instrumentation from `space`: restores every springboard's
  /// original bytes and uninstalls the trap redirects (the patch area
  /// itself stays mapped but becomes unreachable). Errors when no plan has
  /// been committed yet.
  Status revert_from(AddressSpace& space);

  /// One-shot static-rewrite convenience: returns a new binary model with
  /// the plan applied. A second call is a contract violation and throws
  /// the Status error (use commit_to() for multi-target sessions).
  symtab::Symtab commit();

  const RewriteStats& stats() const { return stats_; }
  const std::vector<TrapEntry>& trap_table() const { return traps_; }

  /// The session's plan, or nullptr before the first commit.
  const PatchPlan* plan() const { return plan_.get(); }

  /// Parse a .rvdyn.traps section payload (used by the dynamic runtime).
  static std::vector<TrapEntry> parse_trap_section(
      const std::vector<std::uint8_t>& data);

 private:
  void build_plan();

  symtab::Symtab binary_;
  std::unique_ptr<parse::CodeObject> co_;
  std::map<Point, std::vector<codegen::SnippetPtr>> insertions_;
  std::vector<std::uint8_t> var_data_;
  std::vector<std::pair<std::string, codegen::Variable>> vars_;
  bool use_dead_regs_ = true;
  std::uint64_t patch_text_base_ = 0x100000;
  std::uint64_t patch_data_base_ = 0x200000;
  RewriteStats stats_;
  std::vector<TrapEntry> traps_;
  std::unique_ptr<PatchPlan> plan_;
  bool static_committed_ = false;
};

}  // namespace rvdyn::patch
