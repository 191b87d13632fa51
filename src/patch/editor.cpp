#include "patch/editor.hpp"

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/summaries.hpp"
#include "isa/encoder.hpp"
#include "isa/imm_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvdyn::patch {

namespace {

using codegen::SnippetPtr;
using isa::Instruction;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;
using parse::Block;
using parse::EdgeType;
using parse::Function;

Operand W(Reg r) { return Instruction::reg_op(r, Operand::kWrite); }
Operand R(Reg r) { return Instruction::reg_op(r, Operand::kRead); }

// Pick an integer caller-saved register from `dead`, or x0 when none.
Reg pick_dead_scratch(isa::RegSet dead) {
  static constexpr std::uint8_t kOrder[] = {5,  6,  7,  28, 29, 30, 31, 17,
                                            16, 15, 14, 13, 12, 11, 10};
  for (std::uint8_t n : kOrder)
    if (dead.contains(isa::x(n))) return isa::x(n);
  return isa::zero;
}

void append_raw(const Instruction& insn, std::vector<std::uint8_t>* out) {
  const std::uint32_t w = insn.raw();
  for (unsigned i = 0; i < insn.length(); ++i)
    out->push_back(static_cast<std::uint8_t>(w >> (8 * i)));
}

}  // namespace

BinaryEditor::BinaryEditor(symtab::Symtab binary, parse::ParseOptions popts)
    : binary_(std::move(binary)) {
  co_ = std::make_unique<parse::CodeObject>(binary_);
  co_->parse(popts);
  // Default patch area: 1 MiB region above the image (jal-reachable from
  // typical text bases, exercising the cheap strategies first).
  std::uint64_t top = 0;
  for (const auto& s : binary_.sections())
    if (s.is_alloc()) top = std::max(top, s.addr + s.size());
  patch_text_base_ = align_up(top + 0x10000, 0x1000);
  patch_data_base_ = patch_text_base_ + 0x100000;
}

codegen::Variable BinaryEditor::alloc_var(const std::string& name,
                                          std::uint8_t size,
                                          std::uint64_t initial) {
  if (plan_) throw Error("patch: cannot allocate after commit");
  var_data_.resize(align_up(var_data_.size(), size));
  codegen::Variable v;
  v.addr = patch_data_base_ + var_data_.size();
  v.size = size;
  v.name = name;
  for (unsigned i = 0; i < size; ++i)
    var_data_.push_back(static_cast<std::uint8_t>(initial >> (8 * i)));
  vars_.emplace_back(name, v);
  return v;
}

void BinaryEditor::insert(const Point& p, SnippetPtr snippet) {
  if (plan_) throw Error("patch: cannot insert after commit");
  insertions_[p].push_back(std::move(snippet));
  ++stats_.snippets_inserted;
}

void BinaryEditor::insert_at(std::uint64_t func_entry, PointType type,
                             SnippetPtr snippet) {
  const Function* f = co_->function_at(func_entry);
  if (!f) throw Error("patch: no function at the given entry");
  for (const Point& p : find_points(*f, type)) insert(p, snippet);
}

std::vector<TrapEntry> BinaryEditor::parse_trap_section(
    const std::vector<std::uint8_t>& data) {
  return patch::parse_trap_section(data);
}

void BinaryEditor::build_plan() {
  if (plan_) return;
  RVDYN_OBS_SPAN("rvdyn.patch.commit");
  auto plan = std::make_unique<PatchPlan>();

  const isa::ExtensionSet exts = binary_.extensions();
  const bool rvc = exts.has(isa::Extension::C);
  codegen::GenOptions gopts;
  gopts.extensions = exts;
  gopts.extensions.remove(isa::Extension::C);  // generator emits 4-byte forms
  gopts.use_dead_registers = use_dead_regs_;
  codegen::CodeGenerator gen(gopts);

  // Interprocedural register summaries sharpen liveness at call
  // boundaries: callees that ignore argument registers leave them dead for
  // the instrumentation to use.
  const dataflow::Summaries summaries(*co_);

  reloc::CodeMover mover(patch_text_base_, rvc, &gen, &summaries);

  struct Springboard {
    std::uint64_t at;      // original address to patch
    std::uint64_t budget;  // overwritable bytes
    std::size_t func;      // the block's function, by add_function order
    const Block* block;    // the block it enters
    const dataflow::Liveness* live;  // dead registers at the original point
  };
  std::vector<Springboard> boards;

  // insertions_ is ordered by Point, whose first key is the function: each
  // function's points form one run.
  std::size_t func_index = 0;
  for (auto run = insertions_.begin(); run != insertions_.end();
       ++func_index) {
    const Function* f = co_->function_at(run->first.func);
    if (!f) throw Error("patch: unknown function in insertion set");
    ++stats_.relocated_functions;

    // Sort snippets by anchor kind for the lowering pass.
    reloc::WeaveSpec spec;
    for (; run != insertions_.end() && run->first.func == f->entry(); ++run) {
      const Point& p = run->first;
      std::vector<SnippetPtr>* into = nullptr;
      switch (p.type) {
        case PointType::FuncEntry:
          into = &spec.at_block_entry[f->entry()];
          break;
        case PointType::BlockEntry:
          into = &spec.at_block_entry[p.block];
          break;
        case PointType::FuncExit:
        case PointType::CallSite:
          into = &spec.before_term[p.block];
          break;
        case PointType::Instruction:
          into = &spec.before_insn[p.aux];
          break;
        case PointType::Edge:
        case PointType::LoopEntry:
        case PointType::LoopBackedge:
          into = &spec.on_edge[{p.block, p.aux}];
          break;
      }
      into->insert(into->end(), run->second.begin(), run->second.end());
    }
    const dataflow::Liveness& live = mover.add_function(f, std::move(spec));

    // ---- springboards: function entry + indirect-jump targets ----
    // After relocation the original function body is dead except at the
    // springboarded addresses themselves, so each springboard may overwrite
    // everything up to the next springboard (or the function's extent end),
    // not just its own basic block. This lets 2-byte entry blocks take a
    // full jal/auipc+jalr instead of degrading to a trap.
    std::set<std::uint64_t> boarded{f->entry()};
    for (const auto& [a, b] : f->blocks())
      for (const parse::Edge& e : b->succs())
        if (e.type == EdgeType::IndirectJump && f->block_at(e.target))
          boarded.insert(e.target);
    const std::uint64_t extent_end = f->extent_end();
    for (auto it = boarded.begin(); it != boarded.end(); ++it) {
      const Block* blk = f->block_at(*it);
      if (!blk) continue;
      auto next = std::next(it);
      const std::uint64_t limit = next != boarded.end() ? *next : extent_end;
      const std::uint64_t budget =
          limit > *it ? limit - *it : blk->end() - blk->start();
      boards.push_back({*it, budget, func_index, blk, &live});
    }
  }

  // ---- run the relocation pipeline ----
  const std::vector<std::uint8_t>& text = mover.run();
  stats_.reloc = mover.stats();
  stats_.gen = stats_.reloc.gen;
  stats_.snippet_insns = stats_.reloc.snippet_insns;

  // ---- springboard ladder: c.j -> jal -> auipc+jalr -> trap ----
  for (const Springboard& sb : boards) {
    const std::uint64_t target = mover.label_addr(sb.at, sb.func);
    plan->relocated_entry[sb.at] = target;
    const std::int64_t delta = static_cast<std::int64_t>(target) -
                               static_cast<std::int64_t>(sb.at);
    std::vector<std::uint8_t> bytes;
    if (rvc && sb.budget >= 2 && fits_signed(delta, 12)) {
      const Instruction j = isa::assemble(
          Mnemonic::jal, {W(isa::zero), Instruction::pcrel_op(delta)});
      const auto half = isa::compress(j);
      if (half) {
        bytes = {static_cast<std::uint8_t>(*half & 0xff),
                 static_cast<std::uint8_t>(*half >> 8)};
        ++stats_.entry_cj;
      }
    }
    if (bytes.empty() && sb.budget >= 4 && fits_signed(delta, 21)) {
      append_raw(isa::assemble(Mnemonic::jal,
                               {W(isa::zero), Instruction::pcrel_op(delta)}),
                 &bytes);
      ++stats_.entry_jal;
    }
    if (bytes.empty() && sb.budget >= 8) {
      const Reg scratch =
          pick_dead_scratch(sb.live->dead_before(sb.block, 0));
      std::int64_t hi, lo;
      if (!(scratch == isa::zero) && isa::split_hi_lo(delta, &hi, &lo)) {
        append_raw(isa::assemble(Mnemonic::auipc,
                                 {W(scratch), Instruction::imm_op(hi)}),
                   &bytes);
        append_raw(isa::assemble(Mnemonic::jalr, {W(isa::zero), R(scratch),
                                                  Instruction::imm_op(lo)}),
                   &bytes);
        ++stats_.entry_auipc_jalr;
      }
    }
    if (bytes.empty()) {
      // Worst case (paper §3.1.2): a trap instruction plus a trap-table
      // entry the runtime uses to redirect control.
      if (rvc && sb.budget >= 2) {
        bytes = {0x02, 0x90};  // c.ebreak
      } else if (sb.budget >= 4) {
        bytes = {0x73, 0x00, 0x10, 0x00};  // ebreak
      } else {
        throw Error("patch: function too small for any springboard");
      }
      plan->traps.push_back({sb.at, target});
      ++stats_.entry_trap;
    }

    PatchPlan::SpringboardWrite write;
    write.addr = sb.at;
    const symtab::Section* sec = binary_.section_containing(sb.at);
    if (!sec || sec->type == symtab::SHT_NOBITS)
      throw Error("patch: springboard address not in a section");
    const std::uint8_t* at = sec->data.data() + (sb.at - sec->addr);
    write.original.assign(at, at + bytes.size());
    write.bytes = std::move(bytes);
    plan->springboards.push_back(std::move(write));
  }

  // ---- patch regions ----
  plan->text.name = ".rvdyn.text";
  plan->text.addr = patch_text_base_;
  plan->text.bytes = text;
  plan->text.executable = true;
  plan->data.name = ".rvdyn.data";
  plan->data.addr = patch_data_base_;
  plan->data.bytes = var_data_;
  plan->data.writable = true;
  for (const auto& [name, v] : vars_)
    plan->symbols.push_back({name, v.addr, v.size});

  traps_ = plan->traps;
  plan_ = std::move(plan);

#if RVDYN_OBS_ENABLED
  RVDYN_OBS_COUNT_N("rvdyn.patch.snippets_inserted", stats_.snippets_inserted);
  RVDYN_OBS_COUNT_N("rvdyn.patch.snippet_insns", stats_.snippet_insns);
  RVDYN_OBS_COUNT_N("rvdyn.patch.relocated_functions",
                    stats_.relocated_functions);
  RVDYN_OBS_COUNT_N("rvdyn.patch.entry_cj", stats_.entry_cj);
  RVDYN_OBS_COUNT_N("rvdyn.patch.entry_jal", stats_.entry_jal);
  RVDYN_OBS_COUNT_N("rvdyn.patch.entry_auipc_jalr", stats_.entry_auipc_jalr);
  RVDYN_OBS_COUNT_N("rvdyn.patch.entry_trap", stats_.entry_trap);
  RVDYN_OBS_COUNT_N("rvdyn.patch.scratch_from_dead",
                    stats_.gen.scratch_from_dead);
  RVDYN_OBS_COUNT_N("rvdyn.patch.scratch_spilled", stats_.gen.scratch_spilled);
  RVDYN_OBS_COUNT_N("rvdyn.patch.relax_iterations",
                    stats_.reloc.relax_iterations);
  RVDYN_OBS_COUNT_N("rvdyn.patch.rvc_recompressed",
                    stats_.reloc.rvc_recompressed);
  RVDYN_OBS_COUNT_N("rvdyn.patch.branch_long", stats_.reloc.branch_long);
  if (stats_.snippets_inserted)
    RVDYN_OBS_HIST("rvdyn.patch.snippet_size",
                   stats_.snippet_insns / stats_.snippets_inserted);
  RVDYN_OBS_GAUGE("rvdyn.patch.text_bytes", plan_->text.bytes.size());
  RVDYN_OBS_GAUGE("rvdyn.patch.data_bytes", plan_->data.bytes.size());
  RVDYN_OBS_GAUGE("rvdyn.patch.text_bytes_before_rvc",
                  stats_.reloc.bytes_before_rvc);
#endif
}

Status BinaryEditor::commit_to(AddressSpace& space) {
  build_plan();
  RVDYN_OBS_SPAN("rvdyn.patch.apply");
  RVDYN_OBS_COUNT("rvdyn.patch.commits");
  if (!plan_->text.bytes.empty()) space.map_region(plan_->text);
  if (!plan_->data.bytes.empty()) {
    space.map_region(plan_->data);
    for (const RegionSymbol& s : plan_->symbols) space.define_symbol(s);
  }
  for (const PatchPlan::SpringboardWrite& sb : plan_->springboards)
    space.write_code(sb.addr, sb.bytes.data(), sb.bytes.size());
  if (!plan_->traps.empty()) space.install_traps(plan_->traps);
  return Status::ok();
}

Status BinaryEditor::revert_from(AddressSpace& space) {
  if (!plan_)
    return Status::error("patch: revert_from() before any commit");
  RVDYN_OBS_SPAN("rvdyn.patch.revert");
  RVDYN_OBS_COUNT("rvdyn.patch.reverts");
  for (const PatchPlan::SpringboardWrite& sb : plan_->springboards)
    space.write_code(sb.addr, sb.original.data(), sb.original.size());
  if (!plan_->traps.empty()) space.remove_traps(plan_->traps);
  return Status::ok();
}

symtab::Symtab BinaryEditor::commit() {
  if (static_committed_)
    Status::error(
        "patch: commit() already called — the static commit is one-shot; "
        "use commit_to() to apply the plan to further address spaces")
        .throw_if_error();
  static_committed_ = true;
  symtab::Symtab out = binary_;
  SymtabSpace space(&out);
  commit_to(space).throw_if_error();
  return out;
}

}  // namespace rvdyn::patch
