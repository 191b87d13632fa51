// Dirty-page snapshot/reset: a reset guest must be indistinguishable from
// a cold re-load — memory digest, registers, process state — while paying
// only for pages actually touched. Also covers the satellite contract:
// restoring a page that holds cached/compiled code must stand the JIT and
// decoded caches down exactly like write_code into that page would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using emu::Machine;
using emu::Memory;
using emu::StopReason;

symtab::Symtab assemble_str(const std::string& src) {
  return assembler::assemble(src);
}

// The tiers the write-TLB tests run on: each JIT backend at hot threshold
// 0, so compiled code makes every access, or the interpreter alone in a
// jit-off build.
#if RVDYN_JIT_ENABLED
using Tier = emu::jit::BackendKind;
const Tier kTiers[] = {Tier::X64, Tier::Threaded};
const char* tier_name(Tier t) { return t == Tier::X64 ? "x64" : "threaded"; }
void use_tier(Machine& m, Tier t) {
  m.jit_config().backend = t;
  m.jit_config().hot_threshold = 0;
}
#else
using Tier = int;
const Tier kTiers[] = {0};
const char* tier_name(Tier) { return "interpreter"; }
void use_tier(Machine&, Tier) {}
#endif

// A loop of 64 passes, each bumping the u64 at offset 8 of `exempt` and
// then the one of `tracked`, both through constant addresses.
std::string two_counter_loop(std::uint64_t exempt, std::uint64_t tracked) {
  return R"(
    .text
    .globl _start
_start:
    li s0, 0
    li s1, 64
loop:
    li t0, )" + std::to_string(exempt) + R"(
    ld t1, 8(t0)
    addi t1, t1, 1
    sd t1, 8(t0)
    li t2, )" + std::to_string(tracked) + R"(
    ld t3, 8(t2)
    addi t3, t3, 1
    sd t3, 8(t2)
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
    li a7, 93
    ecall
)";
}

// Run two_counter_loop(exempt, tracked) for 5 snapshot-reset rounds: the
// tracked page is restored every round, the exempt counter accumulates, and
// the compiled stores take `first` slow-path stores in round 0 and `later`
// in each round after.
void check_exempt_and_tracked(std::uint64_t exempt, std::uint64_t tracked,
                              std::uint64_t first, std::uint64_t later) {
  const auto bin = assemble_str(two_counter_loop(exempt, tracked));
  for (const Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    Machine m;
    use_tier(m, tier);
    m.load(bin);
    m.memory().set_dirty_exempt(exempt, Memory::kPageSize);
    m.memory().write(tracked + 8, 100, 8);  // pre-map so the page dirties
    const auto snap = m.take_snapshot();

    for (std::uint64_t round = 0; round < 5; ++round) {
#if RVDYN_JIT_ENABLED
      const std::uint64_t slow0 = m.jit_stats().slow_stores;
#endif
      ASSERT_EQ(m.run(), StopReason::Exited) << "round " << round;
      EXPECT_EQ(m.memory().read(tracked + 8, 8), 164u) << "round " << round;
      EXPECT_EQ(m.memory().read(exempt + 8, 8), 64 * (round + 1))
          << "round " << round;
#if RVDYN_JIT_ENABLED
      EXPECT_EQ(m.jit_stats().slow_stores - slow0, round == 0 ? first : later)
          << "round " << round;
#endif
      const auto rs = m.reset_to_snapshot(snap);
      EXPECT_EQ(rs.pages_restored, 1u) << "round " << round;
      EXPECT_EQ(rs.pages_dropped, 0u) << "round " << round;
      EXPECT_EQ(m.memory().read(tracked + 8, 8), 100u) << "round " << round;
    }
#if RVDYN_JIT_ENABLED
    EXPECT_GT(m.jit_stats().insns_retired, 5u * 64 * 10)
        << "the counter loop did not run compiled";
#endif
  }
}

// Reset must reproduce the cold-load state bit-exactly: digest, registers,
// pc, instret — after the guest ran to completion and touched real memory.
TEST(FuzzSnapshot, ResetMatchesColdReload) {
  const auto bin = assemble_str(workloads::sort_program(64));

  Machine m;
  m.load(bin);
  const std::uint64_t digest0 = m.memory().digest();
  const auto snap = m.take_snapshot();

  ASSERT_EQ(m.run(), StopReason::Exited);
  EXPECT_EQ(m.exit_code(), 0);
  EXPECT_NE(m.memory().digest(), digest0);  // the run really touched memory

  const auto rs = m.reset_to_snapshot(snap);
  EXPECT_GT(rs.pages_restored, 0u);

  Machine cold;
  cold.load(bin);
  EXPECT_EQ(m.memory().digest(), cold.memory().digest());
  EXPECT_EQ(m.pc(), cold.pc());
  EXPECT_EQ(m.instret(), cold.instret());
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(m.get_x(i), cold.get_x(i)) << "x" << i;
    EXPECT_EQ(m.get_f(i), cold.get_f(i)) << "f" << i;
  }

  // And the reset machine must replay the program identically.
  ASSERT_EQ(m.run(), StopReason::Exited);
  ASSERT_EQ(cold.run(), StopReason::Exited);
  EXPECT_EQ(m.exit_code(), cold.exit_code());
  EXPECT_EQ(m.instret(), cold.instret());
  EXPECT_EQ(m.memory().digest(), cold.memory().digest());
}

// Pages first mapped after the snapshot must be unmapped again by reset —
// otherwise the address space grows monotonically across a campaign.
TEST(FuzzSnapshot, FreshPagesAreDropped) {
  Machine m;
  m.load(assemble_str(workloads::fib_program(5)));
  const std::size_t mapped0 = m.memory().mapped_pages();
  const auto snap = m.take_snapshot();

  m.memory().write(0x40000000, 0xABCD, 8);  // allocates a fresh page
  m.memory().write(0x40002000, 0x1234, 8);  // and another
  EXPECT_EQ(m.memory().mapped_pages(), mapped0 + 2);
  EXPECT_EQ(m.memory().fresh_pages().size(), 2u);

  const auto rs = m.reset_to_snapshot(snap);
  EXPECT_EQ(rs.pages_dropped, 2u);
  EXPECT_EQ(m.memory().mapped_pages(), mapped0);

  Machine cold;
  cold.load(assemble_str(workloads::fib_program(5)));
  EXPECT_EQ(m.memory().digest(), cold.memory().digest());
}

// The dirty list must contain exactly the pages written — direct host
// writes, executed stores, and a store that straddles a page boundary
// (which must dirty both pages).
TEST(FuzzSnapshot, DirtyListIsExact) {
  Machine m;
  m.load(assemble_str(R"(
    .text
    .globl _start
_start:
    li t0, 0x30000000
    li t1, 0x1122334455667788
    sd t1, 0(t0)             # dirties page 0x30000
    li t0, 0x30001ffc
    sd t1, 0(t0)             # straddles 0x30001 / 0x30002
    li a0, 0
    li a7, 93
    ecall
)"));
  // Pre-touch the target pages so the run dirties rather than freshens.
  m.memory().write(0x30000000, 0, 8);
  m.memory().write(0x30001ff8, 0, 8);
  m.memory().write(0x30002000, 0, 8);
  const auto snap = m.take_snapshot();
  ASSERT_EQ(m.run(), StopReason::Exited);

  std::vector<std::uint64_t> dirty = m.memory().dirty_pages();
  std::sort(dirty.begin(), dirty.end());
  // The stack page(s) the loader touched are clean: this program never
  // pushes. Expect exactly the three data pages.
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0], 0x30000000ULL >> Memory::kPageBits);
  EXPECT_EQ(dirty[1], 0x30001000ULL >> Memory::kPageBits);
  EXPECT_EQ(dirty[2], 0x30002000ULL >> Memory::kPageBits);

  const auto rs = m.reset_to_snapshot(snap);
  EXPECT_EQ(rs.pages_restored, 3u);
  EXPECT_EQ(m.memory().read(0x30000000, 8), 0u);
  EXPECT_EQ(m.memory().read(0x30001ffc, 8), 0u);
}

// Compiled inline stores go through the write TLB; a reset drops the write
// entry of every page it cleans, so the same stores must re-mark their
// pages dirty on the next iteration. Run a store loop hot enough to JIT,
// reset, run again — the second run's dirty list must match the first's.
TEST(FuzzSnapshot, WriteTlbRemarksAfterReset) {
  const auto bin = assemble_str(R"(
    .text
    .globl _start
_start:
    li t0, 0x30000000
    li t1, 0
    li t2, 4096
loop:
    add t3, t0, t1
    sb t1, 0(t3)
    addi t1, t1, 1
    blt t1, t2, loop
    li a0, 0
    li a7, 93
    ecall
)");
  Machine m;
  m.load(bin);
  m.memory().write(0x30000000, 0, 8);  // pre-map so the page dirties
  const auto snap = m.take_snapshot();

  ASSERT_EQ(m.run(), StopReason::Exited);
  auto dirty1 = m.memory().dirty_pages();
  std::sort(dirty1.begin(), dirty1.end());
  ASSERT_FALSE(dirty1.empty());

  for (int round = 0; round < 20; ++round) {  // hot enough to compile
    m.reset_to_snapshot(snap);
    ASSERT_EQ(m.run(), StopReason::Exited);
    auto dirty = m.memory().dirty_pages();
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(dirty, dirty1) << "round " << round;
  }
#if RVDYN_JIT_ENABLED
  EXPECT_GT(m.jit_stats().blocks_entered, 0u)
      << "loop never reached compiled code; test lost its point";
#endif
}

// A compiled block that stores through a constant address (the woven
// counter's lui/ld/addi/sd) probes a write-TLB slot fixed at compile time.
// Snapshot flushes the write TLB and reset drops the entry of each page it
// cleans, so the first such store of every exec must still take the
// dirty-marking slow path: reset has to restore the counter page, on the
// first exec and on every later one. At hot threshold 0 the loop is
// compiled before its first pass, so compiled code makes every store.
TEST(FuzzSnapshot, ConstantAddressStoresStayDirtyTracked) {
  const auto bin = assemble_str(R"(
    .text
    .globl _start
_start:
    li s0, 0
    li s1, 64
loop:
    li t0, 0x30000000        # lui
    ld t1, 8(t0)
    addi t1, t1, 1
    sd t1, 8(t0)
    addi s0, s0, 1
    blt s0, s1, loop
    li a0, 0
    li a7, 93
    ecall
)");
  Machine m;
#if RVDYN_JIT_ENABLED
  m.jit_config().hot_threshold = 0;
#endif
  m.load(bin);
  m.memory().write(0x30000008, 100, 8);  // pre-map so the page dirties
  const auto snap = m.take_snapshot();

  for (int round = 0; round < 4; ++round) {
    ASSERT_EQ(m.run(), StopReason::Exited) << "round " << round;
    EXPECT_EQ(m.memory().read(0x30000008, 8), 164u) << "round " << round;
    const auto rs = m.reset_to_snapshot(snap);
    EXPECT_EQ(rs.pages_restored, 1u) << "round " << round;
    EXPECT_EQ(m.memory().read(0x30000008, 8), 100u) << "round " << round;
  }
#if RVDYN_JIT_ENABLED
  EXPECT_GT(m.jit_stats().insns_retired, 4u * 64 * 6 - 64)
      << "the counter loop did not run compiled";
#endif
}

// Reset drops only the write entries of the pages it cleans, so a dirty-
// exempt page (the coverage map) keeps its entry and its stores stay inline
// across resets: after round 0, each round takes exactly one slow-path
// store, the one that re-marks the tracked page dirty. The pages sit in
// different TLB slots.
TEST(FuzzSnapshot, ExemptPagesKeepWriteEntriesAcrossResets) {
  check_exempt_and_tracked(0x6f000000, 0x30001000, 2, 1);
}

// The same loop with the two pages 256 pages apart, so they share one TLB
// slot and every store evicts the other page's entry (two slow-path stores
// per pass). Dropping the tracked page's entry must not depend on the slot
// holding it: the page is still restored every round.
TEST(FuzzSnapshot, ExemptAndTrackedPagesSharingATlbSlot) {
  check_exempt_and_tracked(0x30100000, 0x30000000, 128, 128);
}

// A page first touched after the snapshot is freed by the reset, so the
// reset must drop its read entry as well as its write entry: compiled loads
// and stores to that address must then reach a fresh zero-filled page, not
// the freed one (a heap-use-after-free under ASan).
TEST(FuzzSnapshot, DroppedPageLosesBothTlbEntries) {
  const auto bin = assemble_str(R"(
    .text
    .globl _start
_start:
    li s0, 0
    li s1, 64
loop:
    li t0, 0x40000000
    ld t1, 8(t0)
    addi t1, t1, 1
    sd t1, 8(t0)
    addi s0, s0, 1
    blt s0, s1, loop
    mv a0, t1
    li a7, 93
    ecall
)");
  for (const Tier tier : kTiers) {
    SCOPED_TRACE(tier_name(tier));
    Machine m;
    use_tier(m, tier);
    m.load(bin);
    const std::size_t mapped0 = m.memory().mapped_pages();
    const auto snap = m.take_snapshot();

    for (int round = 0; round < 4; ++round) {
      ASSERT_EQ(m.run(), StopReason::Exited) << "round " << round;
      EXPECT_EQ(m.exit_code(), 64) << "round " << round;
      EXPECT_EQ(m.memory().read(0x40000008, 8), 64u) << "round " << round;
      EXPECT_EQ(m.memory().mapped_pages(), mapped0 + 1) << "round " << round;
      const auto rs = m.reset_to_snapshot(snap);
      EXPECT_EQ(rs.pages_dropped, 1u) << "round " << round;
      EXPECT_EQ(rs.pages_restored, 0u) << "round " << round;
      EXPECT_EQ(m.memory().mapped_pages(), mapped0) << "round " << round;
    }
#if RVDYN_JIT_ENABLED
    EXPECT_GT(m.jit_stats().insns_retired, 4u * 64 * 5)
        << "the counter loop did not run compiled";
#endif
  }
}

// Satellite regression: a snapshot restore that rewrites a code page must
// evict the stale decoded/compiled blocks for that page. Patch a function
// after the snapshot (changing its result), run it hot, then reset — the
// original behavior must come back even though the JIT had compiled the
// patched version.
TEST(FuzzSnapshot, RestoreStandsDownPatchedCode) {
  const auto bin = assemble_str(R"(
    .text
    .globl _start
    .globl leaf
_start:
    li s0, 0
    li s1, 0
    li s2, 64
loop:
    call leaf
    add s1, s1, a0
    addi s0, s0, 1
    blt s0, s2, loop
    andi a0, s1, 255
    li a7, 93
    ecall
leaf:
    li a0, 1
    ret
)");
  Machine m;
  m.load(bin);
  const auto snap = m.take_snapshot();

  ASSERT_EQ(m.run(), StopReason::Exited);
  const int original_exit = m.exit_code();
  EXPECT_EQ(original_exit, 64);  // 64 iterations x leaf()==1

  // Patch leaf to return 2 (c.li a0, 2 — same 2-byte width as the
  // original c.li a0, 1, so the following ret survives) and run hot: the
  // JIT now holds compiled code for the *patched* page.
  m.reset_to_snapshot(snap);
  const symtab::Symbol* leaf = bin.find_symbol("leaf");
  ASSERT_NE(leaf, nullptr);
  const std::uint8_t enc[2] = {0x09, 0x45};  // c.li a0, 2
  m.write_code(leaf->value, enc, 2);
  ASSERT_EQ(m.run(), StopReason::Exited);
  EXPECT_EQ(m.exit_code(), 128);

  // Reset restores the original bytes; stale compiled blocks for that page
  // must not survive. A second patched round proves the cycle is stable.
  for (int round = 0; round < 3; ++round) {
    const auto rs = m.reset_to_snapshot(snap);
    EXPECT_TRUE(rs.code_invalidated) << "round " << round;
    ASSERT_EQ(m.run(), StopReason::Exited);
    EXPECT_EQ(m.exit_code(), original_exit) << "round " << round;
    m.reset_to_snapshot(snap);
    m.write_code(leaf->value, enc, 2);
    ASSERT_EQ(m.run(), StopReason::Exited);
    EXPECT_EQ(m.exit_code(), 128) << "round " << round;
  }
}

// Dirty-exempt ranges survive resets (the coverage map contract) and are
// excluded from the exempt-free digest.
TEST(FuzzSnapshot, ExemptRangeSurvivesReset) {
  Machine m;
  m.load(assemble_str(workloads::fib_program(4)));
  m.memory().set_dirty_exempt(0x6f000000, 0x11000);
  const std::uint64_t d_no_exempt = m.memory().digest(false);
  const auto snap = m.take_snapshot();

  m.memory().write(0x6f000100, 0xDEAD, 8);
  ASSERT_EQ(m.run(), StopReason::Exited);
  m.reset_to_snapshot(snap);

  // Exempt page kept its value through the reset; non-exempt digest is
  // back to the snapshot state.
  EXPECT_EQ(m.memory().read(0x6f000100, 8), 0xDEADu);
  EXPECT_EQ(m.memory().digest(false), d_no_exempt);
}

// Snapshot/reset across an Exited stop: stop reason, exit code and
// captured output must rewind too.
TEST(FuzzSnapshot, ProcessStateRewinds) {
  const auto bin = assemble_str(R"(
    .data
msg: .ascii "hi\n"
    .text
    .globl _start
_start:
    li a0, 1
    la a1, msg
    li a2, 3
    li a7, 64
    ecall
    li a0, 7
    li a7, 93
    ecall
)");
  Machine m;
  m.load(bin);
  const auto snap = m.take_snapshot();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(m.run(), StopReason::Exited);
    EXPECT_EQ(m.exit_code(), 7);
    EXPECT_EQ(m.output(), "hi\n") << "output must not accumulate";
    m.reset_to_snapshot(snap);
    EXPECT_EQ(m.last_stop(), StopReason::Running);
    EXPECT_EQ(m.output(), "");
  }
}

}  // namespace
