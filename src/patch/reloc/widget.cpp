#include "patch/reloc/widget.hpp"

#include "common/bits.hpp"
#include "common/status.hpp"
#include "isa/encoder.hpp"
#include "isa/imm_builder.hpp"

namespace rvdyn::patch::reloc {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

Operand W(Reg r) { return Instruction::reg_op(r, Operand::kWrite); }
Operand R(Reg r) { return Instruction::reg_op(r, Operand::kRead); }

// Condition inversion for the long-branch form.
Mnemonic invert_branch(Mnemonic mn) {
  switch (mn) {
    case Mnemonic::beq: return Mnemonic::bne;
    case Mnemonic::bne: return Mnemonic::beq;
    case Mnemonic::blt: return Mnemonic::bge;
    case Mnemonic::bge: return Mnemonic::blt;
    case Mnemonic::bltu: return Mnemonic::bgeu;
    case Mnemonic::bgeu: return Mnemonic::bltu;
    default: throw Error("patch: not a conditional branch");
  }
}

bool has_pcrel(const isa::Instruction& insn) {
  for (unsigned i = 0; i < insn.num_operands(); ++i)
    if (insn.operand(i).kind == isa::Operand::Kind::PcRelative) return true;
  return false;
}

}  // namespace

void emit_insn(const isa::Instruction& insn,
               const std::optional<std::uint16_t>& compressed,
               std::vector<std::uint8_t>* out) {
  if (compressed) {
    out->push_back(static_cast<std::uint8_t>(*compressed));
    out->push_back(static_cast<std::uint8_t>(*compressed >> 8));
    return;
  }
  const std::uint32_t w = insn.raw();
  out->push_back(static_cast<std::uint8_t>(w));
  out->push_back(static_cast<std::uint8_t>(w >> 8));
  if (insn.length() == 4) {
    out->push_back(static_cast<std::uint8_t>(w >> 16));
    out->push_back(static_cast<std::uint8_t>(w >> 24));
  }
}

unsigned InsnPool::compress(std::uint32_t first, std::uint32_t count) {
  unsigned n = 0;
  std::vector<std::uint32_t> pcrel;
  for (std::uint32_t i = first; i < first + count; ++i) {
    if (has_pcrel(insns[i])) {
      pcrel.push_back(i);
      continue;
    }
    if (rvc[i] || insns[i].length() == 2) continue;
    rvc[i] = isa::compress(insns[i]);
    if (rvc[i]) ++n;
  }
  if (n == 0 || pcrel.empty()) return n;

  // Re-encode the pc-relative instructions so their byte displacements —
  // measured over the uncompressed lengths — span the same instructions
  // under the current sizes. Prefix byte positions under both encodings
  // (one extra slot: a branch may target past-the-end).
  std::vector<std::int64_t> orig_pos(count + 1, 0);
  std::vector<std::int64_t> cur_pos(count + 1, 0);
  for (std::uint32_t k = 0; k < count; ++k) {
    orig_pos[k + 1] = orig_pos[k] + insns[first + k].length();
    cur_pos[k + 1] = cur_pos[k] + static_cast<std::int64_t>(bytes(first + k));
  }
  for (std::uint32_t i : pcrel) {
    const std::uint32_t k = i - first;
    std::vector<isa::Operand> ops;
    bool changed = false;
    for (unsigned o = 0; o < insns[i].num_operands(); ++o) {
      isa::Operand op = insns[i].operand(o);
      if (op.kind == isa::Operand::Kind::PcRelative) {
        const std::int64_t tgt = orig_pos[k] + op.imm;
        std::uint32_t j = 0;
        while (j <= count && orig_pos[j] != tgt) ++j;
        if (j > count)
          throw Error("reloc: snippet branch targets mid-instruction");
        const std::int64_t now = cur_pos[j] - cur_pos[k];
        changed = changed || now != op.imm;
        op.imm = now;
      }
      ops.push_back(op);
    }
    if (changed) insns[i] = isa::assemble(insns[i].mnemonic(), ops);
  }
  return n;
}

void InsnPool::emit(std::uint32_t first, std::uint32_t count,
                    std::vector<std::uint8_t>* out) const {
  for (std::uint32_t i = first; i < first + count; ++i)
    emit_insn(insns[i], rvc[i], out);
}

Widget Widget::code(std::uint32_t first, std::uint32_t count,
                    const InsnPool& pool) {
  Widget w;
  w.kind = Kind::Code;
  w.first = first;
  w.count = count;
  for (std::uint32_t i = first; i < first + count; ++i)
    w.bytes += static_cast<std::uint32_t>(pool.bytes(i));
  return w;
}

Widget Widget::cond_branch(Mnemonic mn, Reg rs1, Reg rs2,
                           std::uint32_t label, bool rvc) {
  Widget w;
  w.kind = Kind::CondBranch;
  w.mn = mn;
  w.r1 = rs1;
  w.r2 = rs2;
  w.label = label;
  // c.beqz/c.bnez: rs1 in x8..x15 against x0, ±256B reach.
  const bool c2 = rvc && (mn == Mnemonic::beq || mn == Mnemonic::bne) &&
                  rs2 == isa::zero && rs1.index() >= 8 && rs1.index() <= 15;
  w.form = c2 ? Form::C2 : Form::Near;
  return w;
}

Widget Widget::jump(std::uint32_t label, bool rvc) {
  Widget w;
  w.kind = Kind::Jump;
  w.label = label;
  w.form = rvc ? Form::C2 : Form::Near;  // c.j reaches ±2KiB
  return w;
}

Widget Widget::transfer(std::uint64_t abs_target, Reg link, Reg scratch) {
  Widget w;
  w.kind = Kind::Transfer;
  w.target = abs_target;
  w.r1 = link;
  w.r2 = scratch;
  w.form = Form::Near;
  return w;
}

bool Widget::relax(std::int64_t off) {
  // The smallest form (at or above the current one — forms never shrink,
  // which guarantees fixed-point termination) whose reach covers `off`.
  Form need = form;
  switch (kind) {
    case Kind::CondBranch:
      if (form == Form::C2 && !fits_signed(off, 9)) need = Form::Near;
      if (need == Form::Near && !fits_signed(off, 13)) need = Form::Long;
      if (need == Form::Long && !fits_signed(off - 4, 21))
        throw Error("patch: relocated branch beyond jal reach");
      break;
    case Kind::Jump:
      if (form == Form::C2 && !fits_signed(off, 12)) need = Form::Near;
      if (need == Form::Near && !fits_signed(off, 21))
        throw Error("patch: relocated jump beyond jal reach");
      break;
    case Kind::Transfer:
      if (form == Form::Near && !fits_signed(off, 21)) need = Form::Long;
      if (need == Form::Long) {
        std::int64_t hi, lo;
        if (!isa::split_hi_lo(off, &hi, &lo))
          throw Error("patch: transfer target out of ±2GiB range");
      }
      break;
    case Kind::Code:
      break;
  }
  if (need == form) return false;
  form = need;
  return true;
}

void Widget::emit_cf(std::int64_t off, std::vector<std::uint8_t>* out) const {
  switch (kind) {
    case Kind::CondBranch: {
      if (form == Form::C2 || form == Form::Near) {
        const Instruction b =
            isa::assemble(mn, {R(r1), R(r2), Instruction::pcrel_op(off)});
        if (form == Form::C2) {
          const auto half = isa::compress(b);
          if (!half) throw Error("patch: c-branch compression failed");
          emit_insn(b, half, out);
        } else {
          emit_insn(b, std::nullopt, out);
        }
        return;
      }
      // Long form: inverted branch skipping a jal with ±1MiB reach.
      emit_insn(isa::assemble(invert_branch(mn),
                              {R(r1), R(r2), Instruction::pcrel_op(8)}),
                std::nullopt, out);
      emit_insn(isa::assemble(Mnemonic::jal, {W(isa::zero),
                                              Instruction::pcrel_op(off - 4)}),
                std::nullopt, out);
      return;
    }
    case Kind::Jump: {
      const Instruction j = isa::assemble(
          Mnemonic::jal, {W(isa::zero), Instruction::pcrel_op(off)});
      if (form == Form::C2) {
        const auto half = isa::compress(j);
        if (!half) throw Error("patch: c.j compression failed");
        emit_insn(j, half, out);
      } else {
        emit_insn(j, std::nullopt, out);
      }
      return;
    }
    case Kind::Transfer: {
      if (form == Form::Near) {
        emit_insn(
            isa::assemble(Mnemonic::jal, {W(r1), Instruction::pcrel_op(off)}),
            std::nullopt, out);
        return;
      }
      std::int64_t hi, lo;
      if (!isa::split_hi_lo(off, &hi, &lo))
        throw Error("patch: transfer target out of ±2GiB range");
      emit_insn(
          isa::assemble(Mnemonic::auipc, {W(r2), Instruction::imm_op(hi)}),
          std::nullopt, out);
      emit_insn(isa::assemble(Mnemonic::jalr,
                              {W(r1), R(r2), Instruction::imm_op(lo)}),
                std::nullopt, out);
      return;
    }
    case Kind::Code:
      return;
  }
}

}  // namespace rvdyn::patch::reloc
