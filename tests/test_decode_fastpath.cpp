// Differential tests for the table-driven decode fast path: the dispatch
// table (decode32) and the 64K RVC table (decode16) must be bit-identical
// to the reference implementations (decode32_linear / decode16_linear)
// under every profile, including restricted ones — the restricted-profile
// case is the regression guard for the old early-out bug where a matched
// but out-of-profile entry aborted the scan instead of continuing it.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "isa/decoder.hpp"

namespace {

using namespace rvdyn;
using isa::Decoder;
using isa::Extension;
using isa::ExtensionSet;
using isa::Instruction;

bool same_instruction(const Instruction& a, const Instruction& b) {
  if (a.mnemonic() != b.mnemonic()) return false;
  if (a.raw() != b.raw()) return false;
  if (a.length() != b.length()) return false;
  if (a.flags() != b.flags()) return false;
  if (a.extension() != b.extension()) return false;
  if (a.num_operands() != b.num_operands()) return false;
  for (unsigned i = 0; i < a.num_operands(); ++i) {
    const auto& x = a.operand(i);
    const auto& y = b.operand(i);
    if (x.kind != y.kind || x.access != y.access || x.size != y.size ||
        !(x.reg == y.reg) || x.imm != y.imm)
      return false;
  }
  return true;
}

// Profiles to sweep: full, the standard ones, and restricted subsets where
// the early-out bug would bite (a matched entry outside the profile must
// not mask overlapping in-profile entries).
std::vector<ExtensionSet> profiles() {
  ExtensionSet imc;
  imc.add(Extension::I).add(Extension::M).add(Extension::C);
  ExtensionSet ia_csr;
  ia_csr.add(Extension::I).add(Extension::A).add(Extension::Zicsr)
      .add(Extension::Zifencei);
  return {ExtensionSet(0xffff), ExtensionSet::rv64gc(),
          ExtensionSet::rv64g(), ExtensionSet::rv64i(), imc, ia_csr};
}

// >= 1M random words in total across profiles (6 x 200k), plus every
// opcode-table match value with randomized operand bits.
TEST(DecodeFastPath, TablePathMatchesReferenceScan32) {
  std::uint64_t checked = 0;
  for (const ExtensionSet profile : profiles()) {
    const Decoder dec(profile);
    std::mt19937_64 rng(0x5eed0000ULL + profile.mask());
    for (int i = 0; i < 200000; ++i) {
      const auto word = static_cast<std::uint32_t>(rng()) | 0x3;  // 32-bit space
      Instruction fast, ref;
      const bool okf = dec.decode32(word, &fast);
      const bool okr = dec.decode32_linear(word, &ref);
      ASSERT_EQ(okf, okr) << std::hex << "word=" << word
                          << " profile=" << profile.mask();
      if (okf) {
        ASSERT_TRUE(same_instruction(fast, ref))
            << std::hex << "word=" << word << ": " << fast.to_string()
            << " vs " << ref.to_string();
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 1'000'000u);
}

// Directed sweep: every table entry's match value with random bits layered
// into the unmasked (operand) positions, so every bucket and funct7 range
// is exercised, not just whatever the uniform fuzz happens to hit.
TEST(DecodeFastPath, EveryOpcodeEntryMatchesReference) {
  std::mt19937_64 rng(424242);
  for (const ExtensionSet profile : profiles()) {
    const Decoder dec(profile);
    for (std::uint16_t m = 0;
         m < static_cast<std::uint16_t>(isa::Mnemonic::kCount); ++m) {
      const isa::OpcodeInfo& info =
          isa::opcode_info(static_cast<isa::Mnemonic>(m));
      for (int rep = 0; rep < 16; ++rep) {
        const std::uint32_t word =
            info.match | (static_cast<std::uint32_t>(rng()) & ~info.mask);
        Instruction fast, ref;
        const bool okf = dec.decode32(word, &fast);
        const bool okr = dec.decode32_linear(word, &ref);
        ASSERT_EQ(okf, okr)
            << std::hex << "word=" << word << " profile=" << profile.mask();
        if (okf) {
          ASSERT_TRUE(same_instruction(fast, ref)) << std::hex << word;
        }
      }
    }
  }
}

// Exhaustive 16-bit sweep: the predecoded RVC table must agree with the
// quadrant decoder for all 65536 halfwords under every profile (including
// ones without C or without D, where gating differs per encoding).
TEST(DecodeFastPath, RvcTableMatchesQuadrantDecoder) {
  std::vector<ExtensionSet> ps = profiles();
  ps.push_back(ExtensionSet::rv64gc().remove(Extension::D));
  for (const ExtensionSet profile : ps) {
    const Decoder dec(profile);
    for (std::uint32_t h = 0; h < 65536; ++h) {
      const auto half = static_cast<std::uint16_t>(h);
      if ((half & 0x3) == 0x3) continue;  // 32-bit space
      Instruction fast, ref;
      const bool okf = dec.decode16(half, &fast);
      const bool okr = dec.decode16_linear(half, &ref);
      ASSERT_EQ(okf, okr) << std::hex << "half=" << half
                          << " profile=" << profile.mask();
      if (okf) {
        ASSERT_TRUE(same_instruction(fast, ref)) << std::hex << half;
        EXPECT_TRUE(fast.compressed());
      }
    }
  }
}

// Regression guard for the decode32 early-out bug: when entry A's encodings
// are a subset of entry B's (every word matching A also matches B) and the
// profile excludes A's extension but includes B's, the decoder must fall
// through to B instead of reporting the bytes invalid. The pair scan finds
// all such overlaps in the opcode table, so the guard keeps holding if a
// future extension introduces one.
TEST(DecodeFastPath, RestrictedProfileContinuesScan) {
  const auto kCount = static_cast<std::uint16_t>(isa::Mnemonic::kCount);
  std::mt19937_64 rng(1729);
  for (std::uint16_t ai = 0; ai < kCount; ++ai) {
    const isa::OpcodeInfo& a = isa::opcode_info(static_cast<isa::Mnemonic>(ai));
    for (std::uint16_t bi = 0; bi < kCount; ++bi) {
      if (ai == bi) continue;
      const isa::OpcodeInfo& b =
          isa::opcode_info(static_cast<isa::Mnemonic>(bi));
      const bool subsumed =
          (b.mask & ~a.mask) == 0 && (a.match & b.mask) == b.match;
      if (!subsumed || a.ext == b.ext) continue;
      ExtensionSet profile(0xffff);
      profile.remove(a.ext);
      const Decoder dec(profile);
      for (int rep = 0; rep < 8; ++rep) {
        const std::uint32_t word =
            a.match | (static_cast<std::uint32_t>(rng()) & ~a.mask);
        Instruction fast, ref;
        ASSERT_TRUE(dec.decode32(word, &fast))
            << "out-of-profile " << isa::mnemonic_name(a.mnemonic)
            << " masked in-profile " << isa::mnemonic_name(b.mnemonic);
        ASSERT_TRUE(dec.decode32_linear(word, &ref));
        EXPECT_TRUE(same_instruction(fast, ref));
      }
    }
  }

  // Direct restricted-profile checks: an out-of-profile word is invalid in
  // both paths, and in-profile decode is unaffected by the restriction.
  const Decoder rv64i(ExtensionSet::rv64i());
  const Decoder full(ExtensionSet::rv64gc());
  const std::uint32_t mul_word = 0x02c58533;  // mul a0, a1, a2 (M)
  Instruction out;
  EXPECT_FALSE(rv64i.decode32(mul_word, &out));
  EXPECT_FALSE(rv64i.decode32_linear(mul_word, &out));
  ASSERT_TRUE(full.decode32(mul_word, &out));
  EXPECT_EQ(out.mnemonic(), isa::Mnemonic::mul);
  const std::uint32_t add_word = 0x00c58533;  // add a0, a1, a2 (I)
  ASSERT_TRUE(rv64i.decode32(add_word, &out));
  EXPECT_EQ(out.mnemonic(), isa::Mnemonic::add);
}

// decode_range must walk a byte stream exactly like repeated decode() calls
// and stop where they stop.
TEST(DecodeFastPath, DecodeRangeMatchesSequentialDecode) {
  // Build a stream of valid encodings (mixed 16/32-bit) with an
  // undecodable tail.
  std::mt19937_64 rng(99);
  const Decoder dec(ExtensionSet::rv64gc());
  std::vector<std::uint8_t> buf;
  unsigned valid = 0;
  while (valid < 3000) {
    Instruction insn;
    if (rng() & 1) {
      const auto half = static_cast<std::uint16_t>(rng());
      if ((half & 3) == 3 || !dec.decode16(half, &insn)) continue;
      buf.push_back(static_cast<std::uint8_t>(half));
      buf.push_back(static_cast<std::uint8_t>(half >> 8));
    } else {
      const auto word = static_cast<std::uint32_t>(rng()) | 0x3;
      if (!dec.decode32(word, &insn)) continue;
      for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
    ++valid;
  }
  const std::size_t valid_bytes = buf.size();
  for (int i = 0; i < 4; ++i) buf.push_back(0xff);  // all-ones: reserved

  // Reference walk.
  struct Step {
    std::size_t off;
    unsigned len;
    isa::Mnemonic mn;
  };
  std::vector<Step> expected;
  std::size_t off = 0;
  while (off < buf.size()) {
    Instruction insn;
    const unsigned n = dec.decode(buf.data() + off, buf.size() - off, &insn);
    if (n == 0) break;
    expected.push_back({off, n, insn.mnemonic()});
    off += n;
  }
  EXPECT_EQ(off, valid_bytes);

  std::size_t idx = 0;
  const std::size_t consumed = dec.decode_range(
      buf.data(), buf.size(),
      [&](std::size_t o, const Instruction& insn, unsigned len) {
        EXPECT_LT(idx, expected.size());
        if (idx < expected.size()) {
          EXPECT_EQ(o, expected[idx].off);
          EXPECT_EQ(len, expected[idx].len);
          EXPECT_EQ(insn.mnemonic(), expected[idx].mn);
        }
        ++idx;
        return true;
      });
  EXPECT_EQ(idx, expected.size());
  EXPECT_EQ(consumed, valid_bytes);

  // Early stop: returning false consumes through that instruction only.
  std::size_t seen = 0;
  const std::size_t part = dec.decode_range(
      buf.data(), buf.size(),
      [&](std::size_t, const Instruction&, unsigned) { return ++seen < 10; });
  EXPECT_EQ(seen, 10u);
  std::size_t want = 0;
  for (std::size_t i = 0; i < 10; ++i) want += expected[i].len;
  EXPECT_EQ(part, want);

  // Truncated input: a 32-bit encoding with only 2 bytes left is not decoded.
  const std::uint8_t trunc[2] = {0x33, 0x00};  // low parcel of `add`
  EXPECT_EQ(dec.decode_range(trunc, sizeof(trunc),
                             [](std::size_t, const Instruction&, unsigned) {
                               return true;
                             }),
            0u);
}

}  // namespace
