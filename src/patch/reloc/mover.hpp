// CodeMover: the relocation engine (Dyninst's relocation architecture,
// paper §3.1).
//
// Each instrumented function is lowered into the widget IR, then a fixed
// pipeline of passes transforms the module:
//   lower   CFG blocks -> widgets (labels bound, control flow symbolic);
//           every label reference is then resolved once to a dense id,
//           within the referencing function first
//   weave   generate snippet code into the snippet anchors, scratch
//           registers chosen from the function's DataflowAPI dead sets
//   rvc     re-compress relocated 4-byte encodings to their C forms
//           (profile-gated; relocation otherwise inflates RVC code)
//   relax   iterative branch-reach relaxation to a fixed point: every
//           control transfer starts in its smallest form and grows only
//           when the laid-out displacement demands it — replacing the old
//           one-shot pessimistic size estimate
//   emit    serialize widgets at their final layout
// Each pass is a plain function over MoverModule (mover.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "codegen/codegen.hpp"
#include "dataflow/liveness.hpp"
#include "parse/cfg.hpp"
#include "patch/reloc/widget.hpp"

namespace rvdyn::dataflow {
class Summaries;
}

namespace rvdyn::patch::reloc {

/// The snippets to weave into one function, keyed by anchor kind exactly
/// as the lowering walks the CFG.
struct WeaveSpec {
  std::map<std::uint64_t, std::vector<codegen::SnippetPtr>> at_block_entry;
  /// Before the block's terminator instruction (FuncExit / CallSite).
  std::map<std::uint64_t, std::vector<codegen::SnippetPtr>> before_term;
  /// Before one specific instruction address.
  std::map<std::uint64_t, std::vector<codegen::SnippetPtr>> before_insn;
  /// On a CFG edge (source block start, target) via an edge trampoline.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<codegen::SnippetPtr>>
      on_edge;

  bool has_edge(std::uint64_t block, std::uint64_t target) const {
    return on_edge.count({block, target}) != 0;
  }
};

/// One pending weave: which snippet anchor to fill and where the
/// instrumentation point lives for the liveness query.
struct WeaveItem {
  std::size_t widget_index = 0;
  const std::vector<codegen::SnippetPtr>* snippets = nullptr;  ///< in spec
  const parse::Block* live_block = nullptr;  ///< nullptr: no liveness info
  std::size_t live_index = 0;
  std::uint64_t anchor_addr = 0;  ///< nonzero: point-granularity dead_at()
};

/// One function lowered into widget form.
struct FunctionImage {
  const parse::Function* func = nullptr;
  WeaveSpec spec;
  std::unique_ptr<const dataflow::Liveness> live;
  std::vector<Widget> widgets;
  /// Label ids bound in this function, sorted by key. A label binds
  /// immediately before its widget.
  std::vector<std::pair<LabelKey, std::uint32_t>> labels;
  /// Keys referenced by this function's CondBranch/Jump widgets while
  /// lowering (Widget::label indexes it until labels are resolved).
  std::vector<LabelKey> refs;
  /// Layout result: widget i starts at widget_addr[i]; the extra last
  /// entry is the function's end.
  std::vector<std::uint64_t> widget_addr;
  std::vector<WeaveItem> weave_items;
};

/// Relocation accounting, aggregated across the module by the passes.
struct RelocStats {
  unsigned relax_iterations = 0;
  unsigned branch_c2 = 0;    ///< cond branches emitted as c.beqz/c.bnez
  unsigned branch_near = 0;  ///< 4-byte B-type
  unsigned branch_long = 0;  ///< widened: inverted branch over jal
  unsigned jump_c2 = 0;      ///< c.j
  unsigned jump_near = 0;    ///< jal
  unsigned transfer_jal = 0;
  unsigned transfer_auipc_jalr = 0;
  unsigned rvc_recompressed = 0;  ///< relocated insns shrunk to C forms
  std::uint64_t bytes_before_rvc = 0;
  std::uint64_t bytes_after_rvc = 0;
  unsigned snippet_insns = 0;
  codegen::GenStats gen;
};

/// Shared pass state: the functions under relocation plus module-level
/// configuration and outputs.
struct MoverModule {
  std::uint64_t base = 0;  ///< patch-area text base address
  bool rvc = false;        ///< mutatee profile has the C extension
  codegen::CodeGenerator* gen = nullptr;
  const dataflow::Summaries* summaries = nullptr;
  std::vector<FunctionImage> funcs;
  InsnPool pool;
  /// Label id -> (function index, widget index it binds before).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> labels;
  std::vector<std::uint64_t> label_addr;  ///< layout result, by label id
  std::vector<std::uint8_t> text;  ///< emission output
  RelocStats stats;
};

class CodeMover {
 public:
  /// `add_function` index meaning "no function": label lookups go
  /// straight to the module-wide binding.
  static constexpr std::size_t kAnyFunction = static_cast<std::size_t>(-1);

  CodeMover(std::uint64_t base, bool rvc, codegen::CodeGenerator* gen,
            const dataflow::Summaries* summaries);

  /// Queue `f` for relocation with `spec` woven in. Returns the function's
  /// liveness, computed once here and shared by the weave pass and the
  /// caller (valid for the mover's lifetime).
  const dataflow::Liveness& add_function(const parse::Function* f,
                                         WeaveSpec spec);

  /// Run the pipeline; returns the relocated text. Each pass gets an obs
  /// trace span and a rvdyn.patch.pass.<name>.ns gauge.
  const std::vector<std::uint8_t>& run();

  const RelocStats& stats() const { return module_.stats; }
  const MoverModule& module() const { return module_; }

  /// Relocated address of an original block (valid after run()). With
  /// `func` — the block's function, by add_function order — that
  /// function's own copy wins over other functions sharing the block.
  std::uint64_t label_addr(std::uint64_t block,
                           std::size_t func = kAnyFunction) const;

 private:
  MoverModule module_;
};

}  // namespace rvdyn::patch::reloc
