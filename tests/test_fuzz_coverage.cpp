// Coverage weaving: the per-block edge snippet must light the guest-side
// map deterministically — same input, same map, with or without the JIT —
// and the `new_edges` counter must gate exactly on previously-zero slots,
// however often a slot's hit counter wraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "fuzz/fuzz.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using emu::Machine;
using emu::StopReason;

fuzz::WovenTarget weave_target(const std::string& magic = "AB") {
  return fuzz::weave_coverage(
      assembler::assemble(workloads::fuzz_target_program(magic)));
}

void write_input(Machine& m, const std::vector<std::uint8_t>& in,
                 const fuzz::WovenTarget& t) {
  const symtab::Symbol* buf = t.binary.find_symbol("fuzz_input");
  const symtab::Symbol* len = t.binary.find_symbol("fuzz_len");
  ASSERT_NE(buf, nullptr);
  ASSERT_NE(len, nullptr);
  if (!in.empty()) m.memory().write_bytes(buf->value, in.data(), in.size());
  m.memory().write(len->value, in.size(), 8);
}

TEST(FuzzCoverage, WeaveCoversEveryBlockWithoutTraps) {
  const auto t = weave_target();
  EXPECT_GT(t.blocks_woven, 5u);
  EXPECT_EQ(t.trap_entries, 0u);  // campaign precondition
}

TEST(FuzzCoverage, RunLightsMapAndCountsNewEdges) {
  const auto t = weave_target();
  Machine m;
  fuzz::attach_coverage(m, t);
  write_input(m, {'x', 'y'}, t);
  ASSERT_EQ(m.run(), StopReason::Exited);

  std::vector<std::uint8_t> map(fuzz::kMapSize);
  fuzz::read_map(m, map.data());
  unsigned lit = 0;
  for (const std::uint8_t b : map) lit += b != 0;
  EXPECT_GT(lit, 5u);  // one slot per executed edge (modulo collisions)
  const std::uint64_t new_edges = m.memory().read(fuzz::kNewEdgesAddr, 8);
  EXPECT_EQ(new_edges, lit);  // every slot was zero before this run
}

// Re-running the same input on a persistent map must find nothing new:
// novelty gating relies on this. The map lasts the whole campaign, so the
// rounds run the slots' 8-bit counters past 255 twice over. A plain
// `+= 1` counter wrapped to 0 and its next hit counted as a first hit
// again (this input first did so at round 85), sending the host into a
// 64 KiB map scan for nothing. Lit slots must stay odd, hence nonzero.
TEST(FuzzCoverage, SecondRunOfSameInputIsNotNovel) {
  const auto t = weave_target();
  Machine m;
  fuzz::attach_coverage(m, t);
  const auto snap = m.take_snapshot();

  for (int round = 0; round < 300; ++round) {
    m.memory().write(fuzz::kPrevAddr, 0, 8);
    m.memory().write(fuzz::kNewEdgesAddr, 0, 8);
    write_input(m, {1, 2, 3}, t);
    ASSERT_EQ(m.run(), StopReason::Exited);
    const std::uint64_t new_edges = m.memory().read(fuzz::kNewEdgesAddr, 8);
    if (round == 0)
      EXPECT_GT(new_edges, 0u);
    else
      ASSERT_EQ(new_edges, 0u) << "false novelty at round " << round;
    m.reset_to_snapshot(snap);
  }

  std::vector<std::uint8_t> map(fuzz::kMapSize);
  fuzz::read_map(m, map.data());
  for (std::uint64_t i = 0; i < fuzz::kMapSize; ++i) {
    if (map[i] != 0) {
      EXPECT_EQ(map[i] & 1, 1) << "slot " << i;
    }
  }
}

// Same input on two fresh machines: byte-identical 64 KiB maps.
TEST(FuzzCoverage, MapIsDeterministicAcrossMachines) {
  const auto t = weave_target();
  std::vector<std::uint8_t> map_a(fuzz::kMapSize), map_b(fuzz::kMapSize);
  for (auto* map : {&map_a, &map_b}) {
    Machine m;
    fuzz::attach_coverage(m, t);
    write_input(m, {'A', 'q'}, t);
    ASSERT_EQ(m.run(), StopReason::Exited);
    fuzz::read_map(m, map->data());
  }
  EXPECT_EQ(std::memcmp(map_a.data(), map_b.data(), fuzz::kMapSize), 0);
}

// The map must not depend on the execution tier: N snapshot-reset
// iterations of one input accumulate the same counts interpreted and
// JIT-compiled (the woven snippets are themselves compiled once hot).
TEST(FuzzCoverage, MapIsIdenticalWithAndWithoutJit) {
  const auto t = weave_target();
  constexpr int kRounds = 40;  // far past the JIT hot threshold

  std::vector<std::uint8_t> maps[2];
  for (const bool jit_on : {false, true}) {
    Machine m;
    m.set_jit_enabled(jit_on);
    fuzz::attach_coverage(m, t);
    const auto snap = m.take_snapshot();
    for (int i = 0; i < kRounds; ++i) {
      m.memory().write(fuzz::kPrevAddr, 0, 8);
      write_input(m, {'A', 'B', 'z'}, t);
      ASSERT_EQ(m.run(), StopReason::Breakpoint);  // full magic match
      m.reset_to_snapshot(snap);
    }
#if RVDYN_JIT_ENABLED
    if (jit_on) {
      EXPECT_GT(m.jit_stats().blocks_entered, 0u)
          << "JIT never engaged; comparison lost its point";
    }
#endif
    maps[jit_on ? 1 : 0].resize(fuzz::kMapSize);
    fuzz::read_map(m, maps[jit_on ? 1 : 0].data());
  }
  EXPECT_EQ(std::memcmp(maps[0].data(), maps[1].data(), fuzz::kMapSize), 0);
}

// Regression for a relocation bug the fuzzer exposed: the RVC
// re-compression pass shrank instructions inside woven snippets without
// rebuilding snippet-internal branch displacements (encoded against the
// 4-byte-per-insn layout the code generator assumes). The first-hit
// branch in the edge snippet then overshot the map-base materialization
// on every *repeat* hit of an edge, so hit counters froze at 1 and the
// counter stores landed at (prev ^ cur) in low guest memory — churning
// stray dirty pages through every snapshot reset. Counters must keep
// counting, and execution must dirty nothing outside the input page.
TEST(FuzzCoverage, EdgeCountersKeepCountingAcrossRepeats) {
  const auto t = weave_target();
  Machine m;
  fuzz::attach_coverage(m, t);
  const auto snap = m.take_snapshot();

  constexpr int kRounds = 3;
  for (int i = 0; i < kRounds; ++i) {
    m.memory().write(fuzz::kPrevAddr, 0, 8);
    write_input(m, {'q'}, t);
    ASSERT_EQ(m.run(), StopReason::Exited);
    // The exempt map absorbs every snippet store: only the input/len page
    // may be dirty, and nothing below the text base ever is.
    for (const std::uint64_t page : m.memory().dirty_pages())
      EXPECT_GE(page << emu::Memory::kPageBits, 0x10000u)
          << "snippet store escaped the coverage map (round " << i << ")";
    m.reset_to_snapshot(snap);
  }

  // Compare decoded counts (bits 7..1): a counter frozen at its first hit
  // reads 3 raw, which would pass a raw-byte comparison with kRounds.
  std::vector<std::uint8_t> map(fuzz::kMapSize);
  fuzz::read_map(m, map.data());
  int max_count = 0;
  for (const std::uint8_t b : map) max_count = std::max(max_count, b >> 1);
  EXPECT_GE(max_count, kRounds) << "edge hit counters are not accumulating";
}

// Distinct inputs taking distinct paths produce distinct maps (coverage
// actually discriminates behavior, the property scheduling relies on).
TEST(FuzzCoverage, DifferentPathsProduceDifferentMaps) {
  const auto t = weave_target();
  std::vector<std::uint8_t> short_map(fuzz::kMapSize),
      match_map(fuzz::kMapSize);

  Machine a;
  fuzz::attach_coverage(a, t);
  write_input(a, {}, t);  // len 0: skips the magic compares entirely
  ASSERT_EQ(a.run(), StopReason::Exited);
  fuzz::read_map(a, short_map.data());

  Machine b;
  fuzz::attach_coverage(b, t);
  write_input(b, {'A', 'B'}, t);  // full match: reaches the ebreak
  ASSERT_EQ(b.run(), StopReason::Breakpoint);
  fuzz::read_map(b, match_map.data());

  EXPECT_NE(std::memcmp(short_map.data(), match_map.data(), fuzz::kMapSize),
            0);
}

}  // namespace
