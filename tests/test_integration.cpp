// Whole-stack integration scenarios: every toolkit in one flow —
// assemble -> rewrite (multiple point kinds) -> serialize -> reload ->
// run under ProcControl with breakpoints -> walk stacks of the
// *instrumented* process -> verify counters and behaviour.
#include <gtest/gtest.h>

#include <optional>

#include "assembler/assembler.hpp"
#include "parse/cfg.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "stackwalk/stackwalker.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using proccontrol::Event;
using proccontrol::Process;

TEST(Integration, FullPipelineOverSortWorkload) {
  // 1. Build the mutatee.
  const auto original = assembler::assemble(workloads::sort_program(32));
  emu::Machine base;
  base.load(original);
  ASSERT_EQ(static_cast<int>(base.run(10'000'000)),
            static_cast<int>(emu::StopReason::Exited));
  ASSERT_EQ(base.exit_code(), 0);

  // 2. Instrument three point kinds in one editor.
  patch::BinaryEditor editor(original);
  const auto entries = editor.alloc_var("entries");
  const auto backedges = editor.alloc_var("backedges");
  const auto sifts = editor.alloc_var("sifts");
  for (const auto& [entry, f] : editor.code().functions())
    editor.insert_at(entry, patch::PointType::FuncEntry,
                     codegen::increment(entries));
  const auto* isort = editor.code().function_named("isort");
  ASSERT_NE(isort, nullptr);
  editor.insert_at(isort->entry(), patch::PointType::LoopBackedge,
                   codegen::increment(backedges));
  // Instruction point on the sift-loop's element copy (the sd inside).
  std::uint64_t sd_addr = 0;
  for (const auto& [a, b] : isort->blocks())
    for (const auto& pi : b->insns())
      if (pi.insn.mnemonic() == isa::Mnemonic::sd && sd_addr == 0)
        sd_addr = pi.addr;
  ASSERT_NE(sd_addr, 0u);
  editor.insert(patch::insn_point(*isort, sd_addr),
                codegen::increment(sifts));

  // 3. Serialize to an ELF image and reload (the on-disk path).
  const auto rewritten = editor.commit();
  const auto reloaded = symtab::Symtab::read(rewritten.write());

  // 4. Run under the debugger with a breakpoint on `check`.
  auto proc = Process::launch(reloaded);
  proc->install_trap_table(editor.trap_table());
  const auto* check = reloaded.find_symbol("check");
  ASSERT_NE(check, nullptr);
  proc->insert_breakpoint(check->value);
  const Event stop = proc->continue_run();
  ASSERT_EQ(static_cast<int>(stop.kind),
            static_cast<int>(Event::Kind::Stopped));
  // By the time check() runs, fill and isort already executed.
  EXPECT_GE(proc->read_mem(entries.addr, 8), 3u);
  EXPECT_GT(proc->read_mem(backedges.addr, 8), 0u);
  EXPECT_GT(proc->read_mem(sifts.addr, 8), 0u);

  // 5. Finish; behaviour preserved.
  const Event done = proc->continue_run();
  ASSERT_EQ(static_cast<int>(done.kind),
            static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(done.exit_code, 0);
  EXPECT_EQ(proc->read_mem(entries.addr, 8), 4u);  // _start,fill,isort,check
}

TEST(Integration, StackWalkInsideInstrumentedProcess) {
  // Stop inside the *relocated* body of an instrumented callee and walk
  // the stack: frames must resolve through the patched control flow.
  const auto original = assembler::assemble(R"(
    .globl _start
    .globl outer
    .globl inner
_start:
    li a0, 3
    call outer
    li a7, 93
    ecall
outer:
    addi sp, sp, -16
    sd ra, 8(sp)
    call inner
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
inner:
    addi a0, a0, 10
    ret
)");

  patch::BinaryEditor editor(original);
  const auto c = editor.alloc_var("c");
  editor.insert_at(editor.code().function_named("inner")->entry(),
                   patch::PointType::FuncEntry, codegen::increment(c));
  const auto rewritten = editor.commit();

  // Parse the REWRITTEN binary: the walker needs CFG info that includes
  // the relocated code in .rvdyn.text.
  parse::CodeObject co(rewritten);
  co.parse();

  auto proc = Process::launch(rewritten);
  proc->install_trap_table(editor.trap_table());
  // Break at inner's ORIGINAL entry: execution arrives via the springboard
  // only... the springboard overwrote it. Break instead inside relocated
  // code: find inner's relocated home via the parsed CFG of the rewritten
  // binary (the springboard jump target).
  const auto* inner_sym = rewritten.find_symbol("inner");
  ASSERT_NE(inner_sym, nullptr);
  // Follow the springboard: decode the jal at the original entry.
  std::uint8_t buf[4];
  for (int i = 0; i < 4; ++i)
    buf[i] = static_cast<std::uint8_t>(
        *rewritten.read_addr(inner_sym->value + i, 1));
  isa::Decoder dec;
  isa::Instruction jump;
  ASSERT_GT(dec.decode(buf, 4, &jump), 0u);
  ASSERT_TRUE(jump.is_jal());
  const std::uint64_t relocated =
      inner_sym->value + static_cast<std::uint64_t>(jump.branch_offset());

  proc->insert_breakpoint(relocated);
  const Event stop = proc->continue_run();
  ASSERT_EQ(static_cast<int>(stop.kind),
            static_cast<int>(Event::Kind::Stopped));

  stackwalk::StackWalker walker(*proc, co);
  const auto frames = walker.walk();
  ASSERT_GE(frames.size(), 3u);
  // Innermost frame is in the relocated region; callers resolve to the
  // original outer/_start functions.
  std::vector<std::string> names;
  for (const auto& f : frames) names.emplace_back(f.func_name);
  EXPECT_EQ(names[1], "outer");
  EXPECT_EQ(names[2], "_start");

  const Event done = proc->continue_run();
  ASSERT_EQ(static_cast<int>(done.kind),
            static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(done.exit_code, 13);
  EXPECT_EQ(proc->read_mem(c.addr, 8), 1u);
}

// A tool instruments a live process it has already walked: it commits the
// editor's plan into the stopped process, re-parses the instrumented image
// into the CodeObject its walker reads, and calls invalidate_analyses().
// The next walk must answer from the new code, also for the caller pcs the
// walker resolved against the old CodeObject.
TEST(Integration, WalkAfterReinstrumentationAnswersFromNewCode) {
  const auto original = assembler::assemble(R"(
    .globl _start
    .globl outer
    .globl inner
_start:
    li a0, 3
    call outer
    li a7, 93
    ecall
outer:
    addi sp, sp, -16
    sd ra, 8(sp)
    call inner
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
inner:
    addi a0, a0, 10
    ret
)");
  std::optional<parse::CodeObject> code;  // the image the walker reads
  code.emplace(original);
  code->parse();
  auto proc = Process::launch(original);
  stackwalk::StackWalker walker(*proc, *code);

  const std::uint64_t inner = original.find_symbol("inner")->value;
  proc->insert_breakpoint(inner);
  ASSERT_EQ(static_cast<int>(proc->continue_run().kind),
            static_cast<int>(Event::Kind::Stopped));
  const auto before = walker.walk();
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before[0].func_name, "inner");
  EXPECT_EQ(before[1].func_name, "outer");
  EXPECT_EQ(before[2].func_name, "_start");
  proc->remove_breakpoint(inner);

  // The live process gets the plan the static rewrite gets, so `rewritten`
  // describes the code it now runs. `before`'s names die with the old
  // CodeObject; only its pcs and sps are read below.
  patch::BinaryEditor editor(original);
  const auto c = editor.alloc_var("c");
  editor.insert_at(inner, patch::PointType::FuncEntry,
                   codegen::increment(c));
  const auto rewritten = editor.commit();
  proc->apply_patch(editor);
  code.emplace(rewritten);
  code->parse();
  walker.invalidate_analyses();

  // The pc is on inner's springboard now: continuing enters the copy.
  const std::uint64_t relocated = editor.plan()->relocated_entry.at(inner);
  proc->insert_breakpoint(relocated);
  ASSERT_EQ(static_cast<int>(proc->continue_run().kind),
            static_cast<int>(Event::Kind::Stopped));
  const auto after = walker.walk();
  ASSERT_EQ(after.size(), 3u);
  const parse::Function* copy = code->function_containing(relocated);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(after[0].pc, relocated);
  EXPECT_EQ(after[0].func_entry, copy->entry());
  EXPECT_EQ(after[0].func_name.data(), copy->name().data());
  // The callers stop at the pcs of the first walk and resolve in the
  // re-parsed CodeObject.
  for (std::size_t k = 1; k < after.size(); ++k) {
    EXPECT_EQ(after[k].pc, before[k].pc) << k;
    EXPECT_EQ(after[k].sp, before[k].sp) << k;
    const parse::Function* fn = code->function_containing(after[k].pc);
    ASSERT_NE(fn, nullptr) << k;
    EXPECT_EQ(after[k].func_name.data(), fn->name().data()) << k;
    EXPECT_EQ(after[k].func_entry, fn->entry()) << k;
  }
  EXPECT_EQ(after[1].func_name, "outer");
  EXPECT_EQ(after[2].func_name, "_start");

  proc->remove_breakpoint(relocated);
  const Event done = proc->continue_run();
  ASSERT_EQ(static_cast<int>(done.kind),
            static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(done.exit_code, 13);
  EXPECT_EQ(proc->read_mem(c.addr, 8), 1u);
}

TEST(Integration, WatchpointPlusInstrumentationCoexist) {
  // A watchpoint on the instrumentation counter itself fires on every
  // snippet execution — debugger and patcher composing.
  const auto original = assembler::assemble(workloads::call_churn_program(4));
  patch::BinaryEditor editor(original);
  const auto c = editor.alloc_var("c");
  editor.insert_at(editor.code().function_named("leaf")->entry(),
                   patch::PointType::FuncEntry, codegen::increment(c));
  const auto rewritten = editor.commit();

  auto proc = Process::launch(rewritten);
  proc->install_trap_table(editor.trap_table());
  proc->set_watchpoint(c.addr, 8);

  int snippet_fires = 0;
  while (true) {
    const Event ev = proc->continue_run();
    if (ev.kind == Event::Kind::Exited) break;
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(Event::Kind::WatchHit));
    ++snippet_fires;
    // The writing instruction lives in the relocated patch area.
    const auto* patch_text = rewritten.find_section(".rvdyn.text");
    ASSERT_NE(patch_text, nullptr);
    EXPECT_TRUE(patch_text->contains(ev.addr));
  }
  EXPECT_EQ(snippet_fires, 4);
  EXPECT_EQ(proc->read_mem(c.addr, 8), 4u);
}

}  // namespace
