// StackwalkerAPI tests: walking call stacks of stopped emulated processes
// through the plugin steppers — sp-height (fp-less frames, the RISC-V
// common case), frame-pointer chains, and top-frame ra.
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "stackwalk/stackwalker.hpp"

namespace {

using namespace rvdyn;
using proccontrol::Event;
using proccontrol::Process;
using stackwalk::Frame;
using stackwalk::StackWalker;

struct Setup {
  symtab::Symtab st;
  std::unique_ptr<parse::CodeObject> co;
  std::unique_ptr<Process> proc;
};

Setup stop_at(const std::string& src, const std::string& symbol) {
  Setup s{assembler::assemble(src), nullptr, nullptr};
  s.co = std::make_unique<parse::CodeObject>(s.st);
  s.co->parse();
  s.proc = Process::launch(s.st);
  const auto* sym = s.st.find_symbol(symbol);
  EXPECT_NE(sym, nullptr) << symbol;
  s.proc->insert_breakpoint(sym->value);
  const Event ev = s.proc->continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind), static_cast<int>(Event::Kind::Stopped));
  return s;
}

std::vector<std::string> frame_names(const std::vector<Frame>& frames) {
  std::vector<std::string> out;
  for (const auto& f : frames) out.push_back(f.func_name);
  return out;
}

// Three-deep fp-less call chain (the common RISC-V shape, §3.2.7).
constexpr const char* kSpChain = R"(
    .globl _start
    .globl level1
    .globl level2
    .globl leafpoint
_start:
    li a0, 1
    call level1
    li a7, 93
    ecall
level1:
    addi sp, sp, -32
    sd ra, 24(sp)
    call level2
    ld ra, 24(sp)
    addi sp, sp, 32
    ret
level2:
    addi sp, sp, -16
    sd ra, 8(sp)
    call leafpoint
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
leafpoint:
    nop
    ret
)";

TEST(StackWalk, SpHeightChainThreeDeep) {
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(names[0], "leafpoint");
  EXPECT_EQ(names[1], "level2");
  EXPECT_EQ(names[2], "level1");
  EXPECT_EQ(names[3], "_start");
}

TEST(StackWalk, TopLeafFrameUsesRa) {
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  ASSERT_GE(frames.size(), 2u);
  // leafpoint has no frame: the walk out of it must use the ra register.
  EXPECT_STREQ(frames[0].stepper, "leaf-ra");
  // level2 has a frame: walked by stack-height analysis.
  EXPECT_STREQ(frames[1].stepper, "sp-height");
}

TEST(StackWalk, MidFunctionStop) {
  // Stop inside level2 (after its prologue) rather than at an entry.
  auto st = assembler::assemble(kSpChain);
  auto co = std::make_unique<parse::CodeObject>(st);
  co->parse();
  auto proc = Process::launch(st);
  // Address of the `call leafpoint` inside level2: entry + 4 bytes
  // (c.addi16sp 2B + sd 2B? use the parsed CFG to find the call insn).
  const auto* f = co->function_named("level2");
  ASSERT_NE(f, nullptr);
  std::uint64_t call_addr = 0;
  for (const auto& [a, b] : f->blocks())
    for (const auto& e : b->succs())
      if (e.type == parse::EdgeType::Call) call_addr = b->last().addr;
  ASSERT_NE(call_addr, 0u);
  proc->insert_breakpoint(call_addr);
  ASSERT_EQ(static_cast<int>(proc->continue_run().kind),
            static_cast<int>(Event::Kind::Stopped));

  StackWalker walker(*proc, *co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(names[0], "level2");
  EXPECT_EQ(names[1], "level1");
  EXPECT_EQ(names[2], "_start");
}

TEST(StackWalk, FramePointerChain) {
  // A program maintaining the ABI fp chain: prologue saves ra at fp-8 and
  // caller fp at fp-16, then sets fp = sp + frame.
  const char* src = R"(
    .globl _start
    .globl fpfunc
    .globl fpleaf
_start:
    li s0, 0          # terminate the fp chain
    call fpfunc
    li a7, 93
    ecall
fpfunc:
    li t0, 32
    sub sp, sp, t0    # register-sized frame: defeats stack-height analysis
    sd ra, 24(sp)
    sd s0, 16(sp)
    addi s0, sp, 32   # fp = entry sp
    call fpleaf
    ld ra, 24(sp)
    ld s0, 16(sp)
    addi sp, sp, 32
    ret
fpleaf:
    nop
    ret
)";
  auto s = stop_at(src, "fpleaf");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(names[0], "fpleaf");
  EXPECT_EQ(names[1], "fpfunc");
  EXPECT_EQ(names[2], "_start");
  // The fpfunc frame is only walkable via the fp chain (its frame size is
  // register-determined, so the sp-height stepper must have declined).
  EXPECT_STREQ(frames[1].stepper, "frame-pointer");
}

TEST(StackWalk, RecursiveStack) {
  const char* src = R"(
    .globl _start
    .globl recurse
    .globl bottom
_start:
    li a0, 4
    call recurse
    li a7, 93
    ecall
recurse:
    addi sp, sp, -16
    sd ra, 8(sp)
    beqz a0, base
    addi a0, a0, -1
    call recurse
    j out
base:
    call bottom
out:
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
bottom:
    nop
    ret
)";
  auto s = stop_at(src, "bottom");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  // bottom + 5 recurse frames (a0=4..0) + _start.
  ASSERT_EQ(frames.size(), 7u);
  EXPECT_EQ(names[0], "bottom");
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(names[i], "recurse") << i;
  EXPECT_EQ(names[6], "_start");
}

TEST(StackWalk, WalkDepthLimit) {
  const char* src = R"(
    .globl _start
    .globl recurse
    .globl bottom
_start:
    li a0, 30
    call recurse
    li a7, 93
    ecall
recurse:
    addi sp, sp, -16
    sd ra, 8(sp)
    beqz a0, base
    addi a0, a0, -1
    call recurse
    j out
base:
    call bottom
out:
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
bottom:
    ret
)";
  auto s = stop_at(src, "bottom");
  StackWalker walker(*s.proc, *s.co);
  EXPECT_EQ(walker.walk(8).size(), 8u);
}

TEST(StackWalk, CustomStepperPluginTakesPriority) {
  struct NullStepper : stackwalk::FrameStepper {
    const char* name() const override { return "null"; }
    std::optional<Frame> step(stackwalk::WalkContext&,
                              const Frame&) override {
      return std::nullopt;  // always declines; defaults still work
    }
  };
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  walker.add_stepper(std::make_unique<NullStepper>());
  const auto frames = walker.walk();
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames[1].func_name, "level2");
}

TEST(StackWalk, FramesCarrySpOrdering) {
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  ASSERT_GE(frames.size(), 3u);
  // Outer frames live at higher stack addresses.
  for (std::size_t i = 1; i < frames.size(); ++i)
    EXPECT_GE(frames[i].sp, frames[i - 1].sp) << i;
}

// Regression (found by the shadow-stack oracle): a pc that falls between
// instruction boundaries — e.g. mid-patch, or a corrupted sample — used to
// make locate() fall back to height index 0 (function entry), walking as if
// no frame existed. It must snap to the last boundary at or below the pc.
TEST(StackWalk, MidInstructionPcSnapsToBoundary) {
  const char* src = R"(
    .globl _start
    .globl f
    .globl probe
_start:
    call f
    li a7, 93
    ecall
f:
    addi sp, sp, -2032
    sd ra, 2024(sp)
probe:
    addi t0, t0, 1000
    ld ra, 2024(sp)
    addi sp, sp, 2032
    ret
)";
  auto s = stop_at(src, "probe");
  const auto* sym = s.st.find_symbol("probe");
  ASSERT_NE(sym, nullptr);
  // Point the pc into the middle of the 4-byte addi at `probe`. The stack
  // height there is the same as at `probe` itself: -2032, ra saved.
  s.proc->set_pc(sym->value + 2);

  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(names[0], "f");
  EXPECT_EQ(names[1], "_start");
  // With the old entry-height fallback the caller sp came out 2032 short.
  EXPECT_EQ(frames[1].sp, frames[0].sp + 2032);
}

// Regression (found by the shadow-stack oracle): when a callee saves and
// then clobbers s0, the frame-pointer stepper used to copy the *stale*
// callee fp into the caller frame instead of recovering the caller's fp
// from the save slot, derailing the rest of the fp-chain walk.
TEST(StackWalk, StaleFpRecoveredFromSaveSlot) {
  const char* src = R"(
    .globl _start
    .globl fpmaker
    .globl mid
    .globl leaf
_start:
    li s0, 0          # terminate the fp chain
    call fpmaker
    li a7, 93
    ecall
fpmaker:
    li t0, 32
    sub sp, sp, t0    # register-sized frame: only walkable via fp chain
    sd ra, 24(sp)
    sd s0, 16(sp)
    addi s0, sp, 32
    call mid
    ld ra, 24(sp)
    ld s0, 16(sp)
    addi sp, sp, 32
    ret
mid:
    addi sp, sp, -32
    sd ra, 24(sp)
    sd s0, 16(sp)
    li s0, 12345      # clobber fp after saving it
    call leaf
    ld ra, 24(sp)
    ld s0, 16(sp)
    addi sp, sp, 32
    ret
leaf:
    nop
    ret
)";
  auto s = stop_at(src, "leaf");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(names[0], "leaf");
  EXPECT_EQ(names[1], "mid");
  // fpmaker's frame is register-sized: reaching _start requires the caller
  // fp recovered from mid's save slot, not the clobbered live s0 (12345).
  EXPECT_EQ(names[2], "fpmaker");
  EXPECT_EQ(names[3], "_start");
  EXPECT_STREQ(frames[2].stepper, "frame-pointer");
}

// Once the walk reaches the entry function there is no caller: the walk
// must stop rather than manufacture frames from leftover ra/stack bytes.
TEST(StackWalk, EntryFunctionFencesWalk) {
  const char* src = R"(
    .globl _start
    .globl f
    .globl after
_start:
    call f
after:
    nop
    li a7, 93
    ecall
f:
    ret
)";
  auto s = stop_at(src, "after");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  ASSERT_EQ(frames.size(), 1u);  // ra still points into _start; not a frame
  EXPECT_EQ(frames[0].func_name, "_start");
}

// Mid-prologue stop: sp already dropped but ra not yet saved. The height
// analysis knows the sp displacement at that exact pc; the caller sp must
// reflect the full (large, non-RVC) adjustment.
TEST(StackWalk, MidProloguePcUsesExactHeight) {
  const char* src = R"(
    .globl _start
    .globl f
    .globl midpro
_start:
    call f
    li a7, 93
    ecall
f:
    addi sp, sp, -448
midpro:
    sd ra, 440(sp)
    ld ra, 440(sp)
    addi sp, sp, 448
    ret
)";
  auto s = stop_at(src, "midpro");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(names[0], "f");
  EXPECT_EQ(names[1], "_start");
  EXPECT_EQ(frames[1].sp, frames[0].sp + 448);
}

// Regression: a walk over a Process read memory through the zero-fill path,
// so probing a garbage frame pointer mapped a page into the walked
// process. Here main (which never returns, so saves no ra) points s0 one
// page above its sp, past the stack top, and calls a leaf: the
// frame-pointer stepper probes fp-8 in main's frame. The walk must leave
// the mapped footprint and every byte unchanged.
TEST(StackWalk, WalkOverProcessMapsNoPages) {
  const char* src = R"(
    .globl _start
    .globl main
    .globl leaf
_start:
    call main
    li a7, 93
    ecall
main:
    addi s0, sp, 2047
    addi s0, s0, 2047
    addi s0, s0, 2        # fp = sp + 0x1000, above the stack top
    call leaf
    li a7, 93
    ecall
leaf:
    nop
    ret
)";
  auto s = stop_at(src, "leaf");
  const emu::Memory& mem = s.proc->machine().memory();
  ASSERT_FALSE(mem.is_mapped(s.proc->get_reg(isa::fp) - 8));
  const std::size_t pages = mem.mapped_pages();
  const std::uint64_t digest = mem.digest(true);

  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  const auto names = frame_names(frames);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(names[0], "leaf");
  EXPECT_EQ(names[1], "main");
  EXPECT_EQ(mem.mapped_pages(), pages);
  EXPECT_EQ(mem.digest(true), digest);
}

// invalidate_analyses() drops the memoized analyses and the last located
// pc with them; the next walk re-resolves every frame to the same result.
TEST(StackWalk, WalkAfterInvalidateIsIdentical) {
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  const auto before = walker.walk();
  walker.invalidate_analyses();
  const auto after = walker.walk();
  ASSERT_EQ(before.size(), 4u);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].pc, before[i].pc) << i;
    EXPECT_EQ(after[i].sp, before[i].sp) << i;
    EXPECT_EQ(after[i].fp, before[i].fp) << i;
    EXPECT_EQ(after[i].ra, before[i].ra) << i;
    EXPECT_EQ(after[i].func_name, before[i].func_name) << i;
    EXPECT_EQ(after[i].func_entry, before[i].func_entry) << i;
    EXPECT_STREQ(after[i].stepper, before[i].stepper) << i;
  }
}

}  // namespace
