#include "isa/decoder.hpp"

#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "isa/decode_table.hpp"
#include "obs/metrics.hpp"

namespace rvdyn::isa {

namespace {

// ---- reference 32-bit decoding: bucketed match/mask scan ----
//
// This is the original implementation, kept as the oracle for the table
// fast path (tests/test_decode_fastpath.cpp runs both over millions of
// random words and requires identical results).

struct Buckets {
  // Index by the 7-bit major opcode; each bucket is sorted most-specific
  // (largest mask population) first so full matches win over field matches,
  // with the mnemonic index as a deterministic tie-break (the dispatch
  // table sorts identically).
  std::vector<const OpcodeInfo*> by_opcode[128];

  Buckets() {
    for (std::uint16_t m = 0; m < static_cast<std::uint16_t>(Mnemonic::kCount);
         ++m) {
      const OpcodeInfo& info = opcode_info(static_cast<Mnemonic>(m));
      by_opcode[info.match & 0x7f].push_back(&info);
    }
    for (auto& bucket : by_opcode) {
      std::sort(bucket.begin(), bucket.end(),
                [](const OpcodeInfo* a, const OpcodeInfo* b) {
                  const int pa = __builtin_popcount(a->mask);
                  const int pb = __builtin_popcount(b->mask);
                  if (pa != pb) return pa > pb;
                  return a->mnemonic < b->mnemonic;
                });
    }
  }
};

const Buckets& buckets() {
  static const Buckets b;
  return b;
}

using detail::imm_b;
using detail::imm_i;
using detail::imm_j;
using detail::imm_s;
using detail::imm_u;

Reg rd_of(std::uint32_t w, RegClass c = RegClass::Int) {
  return Reg(c, static_cast<std::uint8_t>(bits(w, 7, 5)));
}
Reg rs1_of(std::uint32_t w, RegClass c = RegClass::Int) {
  return Reg(c, static_cast<std::uint8_t>(bits(w, 15, 5)));
}
Reg rs2_of(std::uint32_t w, RegClass c = RegClass::Int) {
  return Reg(c, static_cast<std::uint8_t>(bits(w, 20, 5)));
}
Reg rs3_of(std::uint32_t w, RegClass c = RegClass::Fp) {
  return Reg(c, static_cast<std::uint8_t>(bits(w, 27, 5)));
}

// Reference operand builder: interprets the entry's spec string per decode.
// The fast path runs the compiled equivalent (decode_table.cpp).
void build_operands(const OpcodeInfo& info, std::uint32_t w,
                    Instruction* out) {
  for (const char* p = info.spec; *p; ++p) {
    switch (*p) {
      case 'd':
        out->add_operand(Instruction::reg_op(rd_of(w), Operand::kWrite));
        break;
      case 's':
        out->add_operand(Instruction::reg_op(rs1_of(w), Operand::kRead));
        break;
      case 't':
        out->add_operand(Instruction::reg_op(rs2_of(w), Operand::kRead));
        break;
      case 'D':
        out->add_operand(
            Instruction::reg_op(rd_of(w, RegClass::Fp), Operand::kWrite));
        break;
      case 'S':
        out->add_operand(
            Instruction::reg_op(rs1_of(w, RegClass::Fp), Operand::kRead));
        break;
      case 'T':
        out->add_operand(
            Instruction::reg_op(rs2_of(w, RegClass::Fp), Operand::kRead));
        break;
      case 'R':
        out->add_operand(Instruction::reg_op(rs3_of(w), Operand::kRead));
        break;
      case 'i':
        out->add_operand(Instruction::imm_op(imm_i(w)));
        break;
      case 'u':
        out->add_operand(Instruction::imm_op(imm_u(w)));
        break;
      case 'b':
        out->add_operand(Instruction::pcrel_op(imm_b(w)));
        break;
      case 'a':
        out->add_operand(Instruction::pcrel_op(imm_j(w)));
        break;
      case 'z':
        out->add_operand(Instruction::imm_op(static_cast<std::int64_t>(bits(w, 20, 6))));
        break;
      case 'w':
        out->add_operand(Instruction::imm_op(static_cast<std::int64_t>(bits(w, 20, 5))));
        break;
      case 'm': {
        const std::uint8_t access = (info.flags & F_STORE) && !(info.flags & F_LOAD)
                                        ? Operand::kWrite
                                        : Operand::kRead;
        out->add_operand(
            Instruction::mem_op(rs1_of(w), imm_i(w), info.mem_size, access));
        break;
      }
      case 'M':
        out->add_operand(
            Instruction::mem_op(rs1_of(w), imm_s(w), info.mem_size, Operand::kWrite));
        break;
      case 'A': {
        std::uint8_t access = Operand::kNone;
        if (info.flags & F_LOAD) access |= Operand::kRead;
        if (info.flags & F_STORE) access |= Operand::kWrite;
        out->add_operand(Instruction::mem_op(rs1_of(w), 0, info.mem_size, access));
        break;
      }
      case 'c': {
        Operand o;
        o.kind = Operand::Kind::Csr;
        o.imm = static_cast<std::int64_t>(bits(w, 20, 12));
        o.access = Operand::kRW;
        out->add_operand(o);
        break;
      }
      case 'Z':
        out->add_operand(Instruction::imm_op(static_cast<std::int64_t>(bits(w, 15, 5))));
        break;
      case 'x': {
        Operand o;
        o.kind = Operand::Kind::RoundMode;
        o.imm = static_cast<std::int64_t>(bits(w, 12, 3));
        out->add_operand(o);
        break;
      }
      case 'q': {
        Operand o;
        o.kind = Operand::Kind::Ordering;
        o.imm = static_cast<std::int64_t>(bits(w, 25, 2));
        out->add_operand(o);
        break;
      }
      case 'f': {
        Operand o;
        o.kind = Operand::Kind::Ordering;
        o.imm = static_cast<std::int64_t>(bits(w, 20, 12));
        out->add_operand(o);
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

Decoder::Decoder(ExtensionSet profile) : profile_(profile) {
  // Pay the one-time table construction here rather than inside the first
  // decode: callers measuring decode or fetch latency (benchmarks, the
  // emulator's hot loop) see flat cost from the start.
  (void)detail::dispatch_table();
  (void)detail::rvc_table();
}

Decoder::~Decoder() { publish_stats(); }

void Decoder::publish_stats() const {
  DecodeStats none;  // the tallies restart from zero at each publish
  if (publishes_) obs::publish(dstats_, none);
  dstats_ = DecodeStats{};
}

bool Decoder::decode32_linear(std::uint32_t word, Instruction* out) const {
  RVDYN_OBS_STAT(++dstats_.linear32);
  const auto& bucket = buckets().by_opcode[word & 0x7f];
  for (const OpcodeInfo* info : bucket) {
    if ((word & info->mask) != info->match) continue;
    // An out-of-profile match must not mask a less-specific overlapping
    // entry further down the bucket: keep scanning instead of bailing out.
    if (!profile_.has(info->ext)) continue;
    out->set(info->mnemonic, word, 4);
    build_operands(*info, word, out);
    return true;
  }
  return false;
}

bool Decoder::decode32(std::uint32_t word, Instruction* out) const {
  const detail::DispatchTable& t = detail::dispatch_table();
  const std::uint32_t slot_idx = ((word & 0x7f) << 3) | ((word >> 12) & 7);
  const detail::DispatchTable::Slot& slot = t.slots[slot_idx];
  detail::DispatchTable::Range r = slot.all;
  if (slot.f7 >= 0)
    r = t.f7_ranges[static_cast<std::size_t>(slot.f7) + (word >> 25)];
  for (std::uint32_t i = r.begin; i < r.end; ++i) {
    const detail::DecodeEntry& e = t.entries[i];
    if ((word & e.mask) != e.match) continue;
    if (!profile_.has(e.ext)) continue;
    *out = e.proto;
    detail::patch_decoded(e, word, out);
    RVDYN_OBS_STAT(++dstats_.fast32);
    return true;
  }
  RVDYN_OBS_STAT(++dstats_.fail32);
  return false;
}

bool Decoder::decode16(std::uint16_t half, Instruction* out) const {
  if (!profile_.has(Extension::C)) {
    RVDYN_OBS_STAT(++dstats_.fail16);
    return false;
  }
  const Instruction& e = detail::rvc_table()[half];
  if (!e.valid() || !profile_.has(e.extension())) {
    RVDYN_OBS_STAT(++dstats_.fail16);
    return false;
  }
  *out = e;
  RVDYN_OBS_STAT(++dstats_.fast16);
  return true;
}

unsigned Decoder::decode(const std::uint8_t* buf, std::size_t size,
                         Instruction* out) const {
  if (size < 2) return 0;
  const std::uint16_t half =
      static_cast<std::uint16_t>(buf[0] | (buf[1] << 8));
  if (is_compressed_encoding(half)) {
    if (!profile_.has(Extension::C)) return 0;
    return decode16(half, out) ? 2 : 0;
  }
  if (size < 4) return 0;
  const std::uint32_t word = static_cast<std::uint32_t>(buf[0]) |
                             (static_cast<std::uint32_t>(buf[1]) << 8) |
                             (static_cast<std::uint32_t>(buf[2]) << 16) |
                             (static_cast<std::uint32_t>(buf[3]) << 24);
  return decode32(word, out) ? 4 : 0;
}

}  // namespace rvdyn::isa
