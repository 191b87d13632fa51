// StackwalkerAPI tests: walking call stacks of stopped emulated processes
// through the plugin steppers — sp-height (fp-less frames, the RISC-V
// common case), frame-pointer chains, and top-frame ra.
#include <gtest/gtest.h>

#include <algorithm>

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
  for (const auto& f : frames) out.emplace_back(f.func_name);
  return out;
}

void expect_same_frames(const std::vector<Frame>& a,
                        const std::vector<Frame>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].pc, a[i].pc) << i;
    EXPECT_EQ(b[i].sp, a[i].sp) << i;
    EXPECT_EQ(b[i].fp, a[i].fp) << i;
    EXPECT_EQ(b[i].ra, a[i].ra) << i;
    EXPECT_EQ(b[i].func_name, a[i].func_name) << i;
    EXPECT_EQ(b[i].func_entry, a[i].func_entry) << i;
    EXPECT_STREQ(b[i].stepper, a[i].stepper) << i;
  }
}

/// Return address of the call instruction in function `name`.
std::uint64_t return_site(const parse::CodeObject& co,
                          const std::string& name) {
  const auto* f = co.function_named(name);
  if (f == nullptr) return 0;
  for (const auto& [a, b] : f->blocks())
    for (const auto& e : b->succs())
      if (e.type == parse::EdgeType::Call) return b->last().next_addr();
  return 0;
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

// ABI fp chain under a register-sized frame.
constexpr const char* kFpChain = R"(
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

// Five recursive frames above a leaf.
constexpr const char* kRecursive = R"(
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

// Thirty-one recursive frames above a leaf.
constexpr const char* kDeepRecursive = R"(
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

// A 2032-byte frame with a 4-byte addi at `probe`.
constexpr const char* kMidInsn = R"(
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

// A callee that saves, then clobbers, the fp of an fp-chained caller.
constexpr const char* kStaleFp = R"(
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

// A stop in _start after a completed call.
constexpr const char* kEntryFence = R"(
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

// A stop between `addi sp` and `sd ra`.
constexpr const char* kMidPrologue = R"(
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
  auto s = stop_at(kFpChain, "fpleaf");
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
  auto s = stop_at(kRecursive, "bottom");
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
  auto s = stop_at(kDeepRecursive, "bottom");
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
  auto s = stop_at(kMidInsn, "probe");
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
  auto s = stop_at(kStaleFp, "leaf");
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
  auto s = stop_at(kEntryFence, "after");
  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  ASSERT_EQ(frames.size(), 1u);  // ra still points into _start; not a frame
  EXPECT_EQ(frames[0].func_name, "_start");
}

// Mid-prologue stop: sp already dropped but ra not yet saved. The height
// analysis knows the sp displacement at that exact pc; the caller sp must
// reflect the full (large, non-RVC) adjustment.
TEST(StackWalk, MidProloguePcUsesExactHeight) {
  auto s = stop_at(kMidPrologue, "midpro");
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

// invalidate_analyses() drops the memoized analyses and the pc memo with
// them; the next walk re-resolves every frame to the same result.
TEST(StackWalk, WalkAfterInvalidateIsIdentical) {
  auto s = stop_at(kSpChain, "leafpoint");
  StackWalker walker(*s.proc, *s.co);
  const auto before = walker.walk();
  walker.invalidate_analyses();
  const auto after = walker.walk();
  ASSERT_EQ(before.size(), 4u);
  expect_same_frames(before, after);
}

// ping and pong have the same layout and start 128 bytes apart, so their
// return sites share a slot of the walker's pc memo, and a walk of their
// mutual recursion alternates between the two pcs. Their frames differ in
// size (16 and 48 bytes): an answer taken from the wrong pc shows in the
// names, the entries and the recovered sps.
constexpr const char* kAlternating = R"(
    .globl _start
    .globl ping
    .globl pong
    .globl deepest
_start:
    li a0, 6
    call ping
    li a7, 93
    ecall
    .balign 128
ping:
    addi sp, sp, -16
    sd ra, 8(sp)
    bnez a0, ping_call
deepest:
    nop
    j ping_out
ping_call:
    addi a0, a0, -1
    call pong
ping_out:
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
    .balign 128
pong:
    addi sp, sp, -48
    sd ra, 40(sp)
    bnez a0, pong_call
    nop
    j pong_out
pong_call:
    addi a0, a0, -1
    call ping
pong_out:
    ld ra, 40(sp)
    addi sp, sp, 48
    ret
)";

TEST(StackWalk, MemoSlotSharedByAlternatingFrames) {
  auto s = stop_at(kAlternating, "deepest");
  const std::uint64_t ping = s.st.find_symbol("ping")->value;
  const std::uint64_t pong = s.st.find_symbol("pong")->value;
  const std::uint64_t ping_ret = return_site(*s.co, "ping");
  const std::uint64_t pong_ret = return_site(*s.co, "pong");
  ASSERT_EQ(pong_ret - ping_ret, 128u);
  constexpr std::size_t kSlots = stackwalk::WalkContext::kMemoSlots;
  ASSERT_EQ((ping_ret >> 1) % kSlots, (pong_ret >> 1) % kSlots);

  StackWalker walker(*s.proc, *s.co);
  const auto frames = walker.walk();
  // ping(0) at deepest, then pong(1), ping(2), ..., ping(6), then _start.
  ASSERT_EQ(frames.size(), 8u);
  EXPECT_EQ(frames[0].func_name, "ping");
  for (std::size_t k = 1; k < 7; ++k) {
    const bool is_pong = k % 2 == 1;
    EXPECT_EQ(frames[k].pc, is_pong ? pong_ret : ping_ret) << k;
    EXPECT_EQ(frames[k].func_name, is_pong ? "pong" : "ping") << k;
    EXPECT_EQ(frames[k].func_entry, is_pong ? pong : ping) << k;
  }
  for (std::size_t k = 0; k < 7; ++k) {
    const std::uint64_t size = k % 2 == 1 ? 48 : 16;
    EXPECT_EQ(frames[k + 1].sp, frames[k].sp + size) << k;
  }
  EXPECT_EQ(frames[7].func_name, "_start");
  // A second walk starts from the memo the first one left.
  expect_same_frames(frames, walker.walk());
}

// Every frame's name and entry are those of the function containing its
// pc, and the name views that function's own string: it stays readable
// after the walker that produced it is gone.
TEST(StackWalk, FrameNamesViewTheCodeObject) {
  const struct {
    const char* src;
    const char* stop;
  } programs[] = {
      {kSpChain, "leafpoint"},   {kFpChain, "fpleaf"},
      {kRecursive, "bottom"},    {kDeepRecursive, "bottom"},
      {kMidInsn, "probe"},       {kStaleFp, "leaf"},
      {kEntryFence, "after"},    {kMidPrologue, "midpro"},
      {kAlternating, "deepest"},
  };
  for (const auto& p : programs) {
    auto s = stop_at(p.src, p.stop);
    std::vector<Frame> frames;
    {
      StackWalker walker(*s.proc, *s.co);
      frames = walker.walk();
    }
    ASSERT_FALSE(frames.empty()) << p.stop;
    for (const Frame& f : frames) {
      const parse::Function* fn = s.co->function_containing(f.pc);
      ASSERT_NE(fn, nullptr) << p.stop << " 0x" << std::hex << f.pc;
      EXPECT_EQ(f.func_name, fn->name()) << p.stop;
      EXPECT_EQ(f.func_name.data(), fn->name().data()) << p.stop;
      EXPECT_EQ(f.func_entry, fn->entry()) << p.stop;
    }
  }
}

// _start drops sp 1 MiB below the stack the loader maps, so f's and deep's
// frames lie on a page first mapped after a snapshot taken at load.
constexpr const char* kFreshStackPage = R"(
    .globl _start
    .globl f
    .globl deep
    .globl stop
_start:
    li t0, 0x100000
    sub sp, sp, t0
    call f
    li a7, 93
    ecall
f:
    addi sp, sp, -32
    sd ra, 24(sp)
    call deep
    ld ra, 24(sp)
    addi sp, sp, 32
    ret
deep:
    addi sp, sp, -16
    sd ra, 8(sp)
stop:
    ebreak
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";

/// The call chain at `stop` in kFreshStackPage, as a shadow stack records
/// it: each caller's return address and its sp at the call.
void expect_fresh_page_chain(const parse::CodeObject& co,
                             std::uint64_t stop_sp,
                             const std::vector<Frame>& frames) {
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].pc, co.symtab().find_symbol("stop")->value);
  EXPECT_EQ(frames[0].sp, stop_sp);
  EXPECT_EQ(frames[0].func_name, "deep");
  EXPECT_EQ(frames[1].pc, return_site(co, "f"));
  EXPECT_EQ(frames[1].sp, stop_sp + 16);
  EXPECT_EQ(frames[1].func_name, "f");
  EXPECT_EQ(frames[2].pc, return_site(co, "_start"));
  EXPECT_EQ(frames[2].sp, stop_sp + 16 + 32);
  EXPECT_EQ(frames[2].func_name, "_start");
}

/// Walks at the ebreak, resets the snapshot (which frees the stack page
/// the walk read), reruns to the ebreak (which maps a fresh host page for
/// it) and walks again with the same walker. A page pointer cached across
/// walks would read the freed page.
template <typename RunToStop>
void walk_across_reset(emu::Machine& m, const parse::CodeObject& co,
                       StackWalker& walker, RunToStop run_to_stop) {
  const auto snap = m.take_snapshot();
  ASSERT_TRUE(run_to_stop());
  const std::uint64_t sp = m.get_reg(isa::sp);
  const auto fresh = m.memory().fresh_pages();
  ASSERT_NE(std::find(fresh.begin(), fresh.end(),
                      sp >> emu::Memory::kPageBits),
            fresh.end());
  const auto first = walker.walk();
  expect_fresh_page_chain(co, sp, first);

  m.reset_to_snapshot(snap);
  ASSERT_FALSE(m.memory().is_mapped(sp));
  ASSERT_TRUE(run_to_stop());
  ASSERT_EQ(m.get_reg(isa::sp), sp);
  const auto second = walker.walk();
  expect_fresh_page_chain(co, sp, second);
  expect_same_frames(first, second);
}

TEST(StackWalk, PageCacheNeverOutlivesAWalkOverProcess) {
  const auto st = assembler::assemble(kFreshStackPage);
  parse::CodeObject co(st);
  co.parse();
  auto proc = Process::launch(st);
  StackWalker walker(*proc, co);
  walk_across_reset(proc->machine(), co, walker, [&] {
    return proc->continue_run().kind == Event::Kind::Stopped;
  });
}

TEST(StackWalk, PageCacheNeverOutlivesAWalkOverMachine) {
  const auto st = assembler::assemble(kFreshStackPage);
  parse::CodeObject co(st);
  co.parse();
  emu::Machine m(st.extensions());
  m.load(st);
  stackwalk::MachineAccess access(m);
  StackWalker walker(access, co);
  walk_across_reset(m, co, walker, [&] {
    return m.run(1'000'000) == emu::StopReason::Breakpoint;
  });
}

}  // namespace
