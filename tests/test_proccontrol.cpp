// ProcControlAPI tests: breakpoints, native and breakpoint-emulated
// single-stepping (paper §3.2.6), and dynamic instrumentation of a live
// process (attach-and-instrument, Figure 1).
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"

namespace {

using namespace rvdyn;
using proccontrol::Event;
using proccontrol::Process;

constexpr const char* kProgram = R"(
    .globl _start
    .globl work
_start:
    li s0, 0
    li s1, 5
loop:
    mv a0, s0
    call work
    addi s0, s0, 1
    blt s0, s1, loop
    mv a0, s2
    li a7, 93
    ecall
work:
    addi sp, sp, -16
    sd ra, 8(sp)
    add s2, s2, a0
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";
// s2 = 0+1+2+3+4 = 10

TEST(ProcControl, RunToExit) {
  auto st = assembler::assemble(kProgram);
  auto proc = Process::launch(st);
  const Event ev = proc->continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(ev.exit_code, 10);
}

TEST(ProcControl, BreakpointHitCountAndResume) {
  auto st = assembler::assemble(kProgram);
  const auto* sym = st.find_symbol("work");
  ASSERT_NE(sym, nullptr);
  auto proc = Process::launch(st);
  proc->insert_breakpoint(sym->value);

  int hits = 0;
  while (true) {
    const Event ev = proc->continue_run();
    if (ev.kind == Event::Kind::Exited) {
      EXPECT_EQ(ev.exit_code, 10);
      break;
    }
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(Event::Kind::Stopped));
    EXPECT_EQ(ev.addr, sym->value);
    // Inspect the argument register at each hit: a0 == iteration count.
    EXPECT_EQ(proc->get_reg(isa::a0), static_cast<std::uint64_t>(hits));
    ++hits;
  }
  EXPECT_EQ(hits, 5);
}

TEST(ProcControl, BreakpointOnCompressedInstruction) {
  auto st = assembler::assemble(kProgram);
  const auto* sym = st.find_symbol("work");
  // work's first insn is c.addi16sp (2 bytes): the trap must be c.ebreak
  // so the following instruction is not corrupted.
  auto proc = Process::launch(st);
  proc->insert_breakpoint(sym->value);
  const Event ev = proc->continue_run();
  ASSERT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Stopped));
  proc->remove_breakpoint(sym->value);
  const Event done = proc->continue_run();
  EXPECT_EQ(static_cast<int>(done.kind), static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(done.exit_code, 10);
}

TEST(ProcControl, RegisterAndMemoryAccess) {
  auto st = assembler::assemble(kProgram);
  const auto* sym = st.find_symbol("work");
  auto proc = Process::launch(st);
  proc->insert_breakpoint(sym->value);
  proc->continue_run();
  // Debugger-style state tampering: force a0 = 100 for this call.
  proc->set_reg(isa::a0, 100);
  proc->remove_breakpoint(sym->value);
  const Event ev = proc->continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(ev.exit_code, 100 + 1 + 2 + 3 + 4);
}

TEST(ProcControl, NativeSingleStepWalksInstructions) {
  auto st = assembler::assemble(kProgram);
  auto proc = Process::launch(st);
  const std::uint64_t start_pc = proc->pc();
  const Event e1 = proc->step_native();
  EXPECT_EQ(static_cast<int>(e1.kind), static_cast<int>(Event::Kind::Stepped));
  EXPECT_NE(proc->pc(), start_pc);
  EXPECT_EQ(proc->machine().instret(), 1u);
}

TEST(ProcControl, EmulatedStepMatchesNativeStep) {
  // Run two identical processes, one stepping natively and one with
  // breakpoint-emulated stepping: their pc traces must match exactly.
  auto st = assembler::assemble(kProgram);
  auto native = Process::launch(st);
  auto emulated = Process::launch(st);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(native->pc(), emulated->pc()) << "diverged at step " << i;
    const Event a = native->step_native();
    const Event b = emulated->step_emulated();
    if (a.kind == Event::Kind::Exited) {
      EXPECT_EQ(static_cast<int>(b.kind),
                static_cast<int>(Event::Kind::Exited));
      EXPECT_EQ(a.exit_code, b.exit_code);
      return;
    }
    ASSERT_EQ(static_cast<int>(a.kind),
              static_cast<int>(Event::Kind::Stepped));
    ASSERT_EQ(static_cast<int>(b.kind),
              static_cast<int>(Event::Kind::Stepped));
  }
}

TEST(ProcControl, EmulatedStepCostsMoreInstructionsOfWork) {
  // The paper's observation: software-emulated stepping is slower. Here
  // the cost shows up as breakpoint bookkeeping; both must still agree on
  // the architectural state.
  auto st = assembler::assemble(kProgram);
  auto proc = Process::launch(st);
  for (int i = 0; i < 50; ++i) {
    const Event ev = proc->step_emulated();
    if (ev.kind == Event::Kind::Exited) break;
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(Event::Kind::Stepped));
  }
  SUCCEED();
}

TEST(ProcControl, DynamicInstrumentationOfRunningProcess) {
  auto st = assembler::assemble(kProgram);
  auto proc = Process::launch(st);

  // Let the process run into the loop (2 calls done), then attach-style
  // instrument the remaining execution.
  const auto* work = st.find_symbol("work");
  ASSERT_NE(work, nullptr);
  proc->insert_breakpoint(work->value);
  proc->continue_run();
  proc->continue_run();  // two hits: two calls under way
  proc->remove_breakpoint(work->value);

  patch::BinaryEditor editor(st);
  const auto counter = editor.alloc_var("live_calls");
  editor.insert_at(editor.code().function_named("work")->entry(),
                   patch::PointType::FuncEntry, codegen::increment(counter));
  editor.commit();
  proc->apply_patch(editor);

  const Event ev = proc->continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Exited));
  EXPECT_EQ(ev.exit_code, 10);  // behaviour preserved
  // The process was stopped *at* work's entry for call #2 when the
  // springboard was installed, so calls 2..5 are counted: 4 of 5.
  EXPECT_EQ(proc->read_mem(counter.addr, 8), 4u);
}

TEST(ProcControl, CrashReported) {
  const char* src = R"(
    .globl _start
_start:
    li t0, 0x99999000
    jr t0
)";
  auto st = assembler::assemble(src);
  auto proc = Process::launch(st);
  const Event ev = proc->continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Crashed));
}

TEST(ProcControl, LimitReached) {
  const char* src = R"(
    .globl _start
_start:
spin:
    j spin
)";
  auto st = assembler::assemble(src);
  auto proc = Process::launch(st);
  const Event ev = proc->continue_run(1000);
  EXPECT_EQ(static_cast<int>(ev.kind),
            static_cast<int>(Event::Kind::LimitReached));
}

// Step-over semantics, pinned: continuing from a breakpoint executes the
// original instruction once, whatever kind it is, and leaves the ebreak
// planted without writing code. The expected register, instret and cycle
// values are those of the restore / native-step / re-plant sequence
// ptrace-based debuggers use.
constexpr const char* kStepOverProgram = R"(
    .globl _start
_start:
    li s1, 3
    li a0, 0
rvc:
    addi s1, s1, 1        # c.addi
pcrel:
    auipc t1, 0
    li t2, 5
branch:
    blt s1, t2, taken     # taken: 4 < 5
    li a0, 99
taken:
    addi a0, a0, 7
callsite:
    jal ra, fn
back:
    add a0, a0, s1
    li a7, 93
exitcall:
    ecall
fn:
    slli a0, a0, 1
    ret
)";

TEST(ProcControl, StepOverBreakpointPinned) {
  struct Case {
    const char* at;    ///< breakpoint continued from
    const char* land;  ///< second breakpoint the continue stops at, or
                       ///< nullptr when the stepped ecall exits
    unsigned width;    ///< bytes of the planted trap
    // State after the second continue.
    std::uint64_t instret, cycles, a0, s1;
    const char* t1;  ///< symbol t1 holds, or nullptr for 0
    const char* ra;  ///< symbol ra holds, or nullptr for 0
  };
  const Case cases[] = {
      {"rvc", "pcrel", 2, 3, 3, 0, 4, nullptr, nullptr},
      {"pcrel", "branch", 4, 5, 5, 0, 4, "pcrel", nullptr},
      {"branch", "taken", 4, 6, 7, 0, 4, "pcrel", nullptr},
      {"callsite", "fn", 4, 8, 10, 7, 4, "pcrel", "back"},
      {"exitcall", nullptr, 4, 13, 16, 18, 4, "pcrel", "back"},
  };
  const auto st = assembler::assemble(kStepOverProgram);
  const auto sym = [&](const char* name) -> std::uint64_t {
    return name ? st.find_symbol(name)->value : 0;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.at);
    const std::uint64_t at = sym(c.at);
    auto proc = Process::launch(st);
    proc->insert_breakpoint(at);
    if (c.land) proc->insert_breakpoint(sym(c.land));
    Event ev = proc->continue_run();
    ASSERT_EQ(static_cast<int>(ev.kind),
              static_cast<int>(Event::Kind::Stopped));
    ASSERT_EQ(ev.addr, at);

    const emu::Machine& m = proc->machine();
    const std::uint64_t bcache_evicts = m.cache_stats().evict_write_code;
#if RVDYN_JIT_ENABLED
    const std::uint64_t jit_evicts = m.jit_stats().evict_write_code;
#endif
    ev = proc->continue_run();
    if (c.land) {
      EXPECT_EQ(static_cast<int>(ev.kind),
                static_cast<int>(Event::Kind::Stopped));
      EXPECT_EQ(ev.addr, sym(c.land));
      EXPECT_EQ(m.pc(), sym(c.land));
    } else {
      EXPECT_EQ(static_cast<int>(ev.kind),
                static_cast<int>(Event::Kind::Exited));
      EXPECT_EQ(ev.exit_code, 18);
      EXPECT_EQ(m.pc(), at);  // an exiting ecall leaves pc on itself
    }
    EXPECT_EQ(m.instret(), c.instret);
    EXPECT_EQ(m.cycles(), c.cycles);
    EXPECT_EQ(m.get_reg(isa::a0), c.a0);
    EXPECT_EQ(m.get_reg(isa::s1), c.s1);
    EXPECT_EQ(m.get_reg(isa::t1), sym(c.t1));
    EXPECT_EQ(m.get_reg(isa::ra), sym(c.ra));

    // The step-over wrote no code and the trap is still planted.
    EXPECT_EQ(m.cache_stats().evict_write_code, bcache_evicts);
#if RVDYN_JIT_ENABLED
    EXPECT_EQ(m.jit_stats().evict_write_code, jit_evicts);
#endif
    EXPECT_TRUE(proc->has_breakpoint(at));
    EXPECT_EQ(proc->read_mem(at, c.width),
              c.width == 2 ? 0x9002u : 0x00100073u);
  }
}

}  // namespace
