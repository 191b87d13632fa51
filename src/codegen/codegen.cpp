#include "codegen/codegen.hpp"

#include <algorithm>
#include <array>

#include "common/bits.hpp"
#include "isa/encoder.hpp"
#include "isa/imm_builder.hpp"

namespace rvdyn::codegen {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

Operand W(Reg r) { return Instruction::reg_op(r, Operand::kWrite); }
Operand R(Reg r) { return Instruction::reg_op(r, Operand::kRead); }
Operand I(std::int64_t v) { return Instruction::imm_op(v); }

// ---- label/fixup buffer (all instructions are 4-byte encodings) ----

class CodeBuffer {
 public:
  std::size_t size() const { return insns_.size(); }

  void emit(Mnemonic mn, std::initializer_list<Operand> ops) {
    insns_.push_back(isa::assemble(mn, ops));
  }
  void push(const Instruction& insn) { insns_.push_back(insn); }

  int new_label() {
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
  }
  void bind(int label) {
    labels_[static_cast<std::size_t>(label)] =
        static_cast<int>(insns_.size());
  }

  void emit_branch(Mnemonic mn, Reg rs1, Reg rs2, int label) {
    fixups_.push_back({insns_.size(), label});
    insns_.push_back(isa::assemble(
        mn, {R(rs1), R(rs2), Instruction::pcrel_op(0)}));
  }
  void emit_jump(int label) {
    fixups_.push_back({insns_.size(), label});
    insns_.push_back(isa::assemble(
        Mnemonic::jal, {W(isa::zero), Instruction::pcrel_op(0)}));
  }

  // Resolve fixups; every instruction occupies exactly 4 bytes.
  std::vector<Instruction> finalize() {
    for (const Fixup& f : fixups_) {
      const int bound = labels_[static_cast<std::size_t>(f.label)];
      if (bound < 0) throw Error("codegen: unbound label");
      const std::int64_t off =
          4 * (static_cast<std::int64_t>(bound) -
               static_cast<std::int64_t>(f.index));
      Instruction& insn = insns_[f.index];
      std::vector<Operand> ops;
      for (unsigned i = 0; i < insn.num_operands(); ++i) {
        Operand o = insn.operand(i);
        if (o.kind == Operand::Kind::PcRelative) o.imm = off;
        ops.push_back(o);
      }
      insn = isa::assemble(insn.mnemonic(), ops);
    }
    fixups_.clear();
    return std::move(insns_);
  }

 private:
  struct Fixup {
    std::size_t index;
    int label;
  };
  std::vector<Instruction> insns_;
  std::vector<int> labels_;
  std::vector<Fixup> fixups_;
};

// ---- scratch register allocation (the dead-register optimization) ----

class ScratchPool {
 public:
  ScratchPool(isa::RegSet dead, bool use_dead, GenStats* stats)
      : dead_(dead), use_dead_(use_dead), stats_(stats) {}

  Reg alloc() {
    // Preference order: temporaries first, then argument registers from
    // the top (a7 is least likely to carry a live argument).
    static constexpr std::uint8_t kOrder[] = {5,  6,  7,  28, 29, 30, 31, 17,
                                              16, 15, 14, 13, 12, 11, 10};
    if (use_dead_) {
      for (std::uint8_t n : kOrder) {
        const Reg r = isa::x(n);
        if (dead_.contains(r) && !in_use_.contains(r)) {
          in_use_.add(r);
          if (stats_) ++stats_->scratch_from_dead;
          return r;
        }
      }
    }
    // No dead register available (or the optimization is disabled):
    // reuse an already-spilled victim, else spill a new one.
    for (std::uint8_t n : kOrder) {
      const Reg r = isa::x(n);
      if (spilled_set_.contains(r) && !in_use_.contains(r)) {
        in_use_.add(r);
        return r;
      }
    }
    for (std::uint8_t n : kOrder) {
      const Reg r = isa::x(n);
      if (!in_use_.contains(r)) {
        in_use_.add(r);
        spilled_set_.add(r);
        spill_order_.push_back(r);
        if (stats_) ++stats_->scratch_spilled;
        return r;
      }
    }
    throw Error("codegen: out of scratch registers");
  }

  void free(Reg r) { in_use_.remove(r); }

  const std::vector<Reg>& spilled() const { return spill_order_; }
  isa::RegSet in_use() const { return in_use_; }
  isa::RegSet dead() const { return dead_; }

 private:
  isa::RegSet dead_;
  bool use_dead_;
  GenStats* stats_;
  isa::RegSet in_use_;
  isa::RegSet spilled_set_;
  std::vector<Reg> spill_order_;
};

// ---- the generator ----

class Generator {
 public:
  Generator(const GenOptions& opts, isa::RegSet dead, GenStats* stats)
      : opts_(opts), pool_(dead, opts.use_dead_registers, stats),
        stats_(stats) {}

  std::vector<Instruction> run(const Snippet& snippet) {
    lower_stmt(snippet);
    std::vector<Instruction> body = buf_.finalize();

    // Wrap with spill save/restore when the allocator had to take live
    // registers. Slots live below sp (RISC-V has no red zone, so sp must
    // be adjusted first).
    std::vector<Instruction> out;
    const auto& spilled = pool_.spilled();
    if (!spilled.empty()) {
      const std::int64_t frame =
          static_cast<std::int64_t>(align_up(spilled.size() * 8, 16));
      out.push_back(
          isa::assemble(Mnemonic::addi, {W(isa::sp), R(isa::sp), I(-frame)}));
      for (std::size_t i = 0; i < spilled.size(); ++i)
        out.push_back(isa::assemble(
            Mnemonic::sd,
            {R(spilled[i]),
             Instruction::mem_op(isa::sp, static_cast<std::int64_t>(i * 8), 8,
                                 Operand::kWrite)}));
      out.insert(out.end(), body.begin(), body.end());
      for (std::size_t i = 0; i < spilled.size(); ++i)
        out.push_back(isa::assemble(
            Mnemonic::ld,
            {W(spilled[i]),
             Instruction::mem_op(isa::sp, static_cast<std::int64_t>(i * 8), 8,
                                 Operand::kRead)}));
      out.push_back(
          isa::assemble(Mnemonic::addi, {W(isa::sp), R(isa::sp), I(frame)}));
    } else {
      out = std::move(body);
    }
    if (stats_) stats_->n_insns += out.size();
    return out;
  }

 private:
  void require(isa::Extension e, const char* what) {
    if (!opts_.extensions.has(e))
      throw Error(std::string("codegen: snippet needs the ") +
                  isa::extension_name(e) + " extension for " + what +
                  ", absent from the mutatee's profile");
  }

  void materialize(Reg rd, std::int64_t v) {
    std::vector<Instruction> seq;
    isa::materialize_imm(rd, v, &seq);
    for (const auto& i : seq) buf_.push(i);
  }

  // -- expressions --

  Reg lower_expr(const Snippet& s) {
    switch (s.kind) {
      case Snippet::Kind::Const: {
        const Reg r = pool_.alloc();
        materialize(r, s.value);
        return r;
      }
      case Snippet::Kind::Var: {
        const Reg addr = pool_.alloc();
        materialize(addr, static_cast<std::int64_t>(s.var.addr));
        const Reg v = pool_.alloc();
        buf_.emit(load_mnemonic(s.var.size),
                  {W(v), Instruction::mem_op(addr, 0, s.var.size,
                                             Operand::kRead)});
        pool_.free(addr);
        return v;
      }
      case Snippet::Kind::ReadReg:
        // Read the mutatee register in place (never allocated as scratch
        // unless dead, and reading a dead register is ill-formed anyway).
        return s.reg;
      case Snippet::Kind::Binary:
        return lower_binary(s);
      case Snippet::Kind::Load: {
        const Reg addr = lower_expr(*s.kids[0]);
        const Reg v = pool_.alloc();
        buf_.emit(load_mnemonic(s.mem_size),
                  {W(v), Instruction::mem_op(addr, 0, s.mem_size,
                                             Operand::kRead)});
        free_if_scratch(addr, *s.kids[0]);
        return v;
      }
      case Snippet::Kind::Call:
        return lower_call(s);
      default:
        throw Error("codegen: statement used where expression expected");
    }
  }

  Reg lower_binary(const Snippet& s) {
    const Reg a = lower_expr(*s.kids[0]);
    const Reg b = lower_expr(*s.kids[1]);
    const Reg d = pool_.alloc();
    switch (s.op) {
      case BinOp::Add: buf_.emit(Mnemonic::add, {W(d), R(a), R(b)}); break;
      case BinOp::Sub: buf_.emit(Mnemonic::sub, {W(d), R(a), R(b)}); break;
      case BinOp::Mul:
        require(isa::Extension::M, "multiplication");
        buf_.emit(Mnemonic::mul, {W(d), R(a), R(b)});
        break;
      case BinOp::Div:
        require(isa::Extension::M, "division");
        buf_.emit(Mnemonic::div, {W(d), R(a), R(b)});
        break;
      case BinOp::And: buf_.emit(Mnemonic::and_, {W(d), R(a), R(b)}); break;
      case BinOp::Or: buf_.emit(Mnemonic::or_, {W(d), R(a), R(b)}); break;
      case BinOp::Xor: buf_.emit(Mnemonic::xor_, {W(d), R(a), R(b)}); break;
      case BinOp::Shl: buf_.emit(Mnemonic::sll, {W(d), R(a), R(b)}); break;
      case BinOp::Shr: buf_.emit(Mnemonic::srl, {W(d), R(a), R(b)}); break;
      case BinOp::LtS: buf_.emit(Mnemonic::slt, {W(d), R(a), R(b)}); break;
      case BinOp::LtU: buf_.emit(Mnemonic::sltu, {W(d), R(a), R(b)}); break;
      case BinOp::GeS:
        buf_.emit(Mnemonic::slt, {W(d), R(a), R(b)});
        buf_.emit(Mnemonic::xori, {W(d), R(d), I(1)});
        break;
      case BinOp::GeU:
        buf_.emit(Mnemonic::sltu, {W(d), R(a), R(b)});
        buf_.emit(Mnemonic::xori, {W(d), R(d), I(1)});
        break;
      case BinOp::Eq:
        buf_.emit(Mnemonic::sub, {W(d), R(a), R(b)});
        buf_.emit(Mnemonic::sltiu, {W(d), R(d), I(1)});
        break;
      case BinOp::Ne:
        buf_.emit(Mnemonic::sub, {W(d), R(a), R(b)});
        buf_.emit(Mnemonic::sltu, {W(d), R(isa::zero), R(d)});
        break;
    }
    free_if_scratch(a, *s.kids[0]);
    free_if_scratch(b, *s.kids[1]);
    return d;
  }

  // Calls clobber the caller-saved file; the sequence builds its own frame:
  //   [arg slots][save slots][result]
  Reg lower_call(const Snippet& s) {
    if (s.kids.size() > 8) throw Error("codegen: more than 8 call arguments");
    const std::size_t n_args = s.kids.size();

    // Registers that must survive the call: in-use scratches plus every
    // caller-saved register not known dead (their mutatee values matter).
    std::vector<Reg> to_save;
    to_save.push_back(isa::ra);
    for (std::uint8_t n = 5; n <= 31; ++n) {
      const Reg r = isa::x(n);
      if (!isa::is_caller_saved(r)) continue;
      if (pool_.in_use().contains(r) || !pool_.dead().contains(r))
        to_save.push_back(r);
    }

    const std::int64_t frame = static_cast<std::int64_t>(
        align_up((n_args + to_save.size() + 1) * 8, 16));
    auto slot = [&](std::size_t i) { return static_cast<std::int64_t>(i * 8); };
    const std::size_t save_base = n_args;
    const std::size_t result_slot = n_args + to_save.size();

    buf_.emit(Mnemonic::addi, {W(isa::sp), R(isa::sp), I(-frame)});
    // Evaluate arguments into their slots (may allocate/free scratches).
    for (std::size_t i = 0; i < n_args; ++i) {
      const Reg v = lower_expr(*s.kids[i]);
      buf_.emit(Mnemonic::sd,
                {R(v), Instruction::mem_op(isa::sp, slot(i), 8,
                                           Operand::kWrite)});
      free_if_scratch(v, *s.kids[i]);
    }
    for (std::size_t i = 0; i < to_save.size(); ++i)
      buf_.emit(Mnemonic::sd,
                {R(to_save[i]),
                 Instruction::mem_op(isa::sp, slot(save_base + i), 8,
                                     Operand::kWrite)});
    for (std::size_t i = 0; i < n_args; ++i)
      buf_.emit(Mnemonic::ld,
                {W(isa::x(static_cast<std::uint8_t>(10 + i))),
                 Instruction::mem_op(isa::sp, slot(i), 8, Operand::kRead)});
    // Target through t6 (saved above when it mattered).
    materialize(isa::t6, s.value);
    buf_.emit(Mnemonic::jalr, {W(isa::ra), R(isa::t6), I(0)});
    buf_.emit(Mnemonic::sd,
              {R(isa::a0), Instruction::mem_op(isa::sp, slot(result_slot), 8,
                                               Operand::kWrite)});
    for (std::size_t i = 0; i < to_save.size(); ++i)
      buf_.emit(Mnemonic::ld,
                {W(to_save[i]),
                 Instruction::mem_op(isa::sp, slot(save_base + i), 8,
                                     Operand::kRead)});
    const Reg result = pool_.alloc();
    buf_.emit(Mnemonic::ld,
              {W(result), Instruction::mem_op(isa::sp, slot(result_slot), 8,
                                              Operand::kRead)});
    buf_.emit(Mnemonic::addi, {W(isa::sp), R(isa::sp), I(frame)});
    return result;
  }

  // -- statements --

  void lower_stmt(const Snippet& s) {
    switch (s.kind) {
      case Snippet::Kind::Sequence:
        for (const auto& k : s.kids) lower_stmt(*k);
        return;
      case Snippet::Kind::Nop:
        return;
      case Snippet::Kind::AssignVar:
        lower_assign(s);
        return;
      case Snippet::Kind::WriteReg: {
        const Reg v = lower_expr(*s.kids[0]);
        buf_.emit(Mnemonic::addi, {W(s.reg), R(v), I(0)});
        free_if_scratch(v, *s.kids[0]);
        return;
      }
      case Snippet::Kind::Store: {
        const Reg addr = lower_expr(*s.kids[0]);
        const Reg v = lower_expr(*s.kids[1]);
        buf_.emit(store_mnemonic(s.mem_size),
                  {R(v), Instruction::mem_op(addr, 0, s.mem_size,
                                             Operand::kWrite)});
        free_if_scratch(addr, *s.kids[0]);
        free_if_scratch(v, *s.kids[1]);
        return;
      }
      case Snippet::Kind::If: {
        const Reg cond = lower_expr(*s.kids[0]);
        const int l_else = buf_.new_label();
        const int l_end = buf_.new_label();
        buf_.emit_branch(Mnemonic::beq, cond, isa::zero, l_else);
        free_if_scratch(cond, *s.kids[0]);
        lower_stmt(*s.kids[1]);
        if (s.kids.size() > 2) {
          buf_.emit_jump(l_end);
          buf_.bind(l_else);
          lower_stmt(*s.kids[2]);
          buf_.bind(l_end);
        } else {
          buf_.bind(l_else);
          buf_.bind(l_end);
        }
        return;
      }
      default: {
        // Expression in statement position: evaluate for effects.
        const Reg v = lower_expr(s);
        free_if_scratch(v, s);
        return;
      }
    }
  }

  void lower_assign(const Snippet& s) {
    const Snippet& value = *s.kids[0];
    // Counter peephole: v = v ± k computes the address once.
    if (value.kind == Snippet::Kind::Binary &&
        (value.op == BinOp::Add || value.op == BinOp::Sub) &&
        value.kids[0]->kind == Snippet::Kind::Var &&
        value.kids[0]->var.addr == s.var.addr &&
        value.kids[1]->kind == Snippet::Kind::Const &&
        fits_signed(value.kids[1]->value, 11)) {
      const std::int64_t k = value.op == BinOp::Add ? value.kids[1]->value
                                                    : -value.kids[1]->value;
      const Reg addr = pool_.alloc();
      materialize(addr, static_cast<std::int64_t>(s.var.addr));
      const Reg tmp = pool_.alloc();
      buf_.emit(load_mnemonic(s.var.size),
                {W(tmp), Instruction::mem_op(addr, 0, s.var.size,
                                             Operand::kRead)});
      buf_.emit(Mnemonic::addi, {W(tmp), R(tmp), I(k)});
      buf_.emit(store_mnemonic(s.var.size),
                {R(tmp), Instruction::mem_op(addr, 0, s.var.size,
                                             Operand::kWrite)});
      pool_.free(tmp);
      pool_.free(addr);
      return;
    }
    const Reg v = lower_expr(value);
    const Reg addr = pool_.alloc();
    materialize(addr, static_cast<std::int64_t>(s.var.addr));
    buf_.emit(store_mnemonic(s.var.size),
              {R(v), Instruction::mem_op(addr, 0, s.var.size,
                                         Operand::kWrite)});
    pool_.free(addr);
    free_if_scratch(v, value);
  }

  // ReadReg results are mutatee registers, not pool allocations.
  void free_if_scratch(Reg r, const Snippet& s) {
    if (s.kind != Snippet::Kind::ReadReg) pool_.free(r);
  }

  static Mnemonic load_mnemonic(std::uint8_t size) {
    switch (size) {
      case 1: return Mnemonic::lbu;
      case 2: return Mnemonic::lhu;
      case 4: return Mnemonic::lwu;
      default: return Mnemonic::ld;
    }
  }
  static Mnemonic store_mnemonic(std::uint8_t size) {
    switch (size) {
      case 1: return Mnemonic::sb;
      case 2: return Mnemonic::sh;
      case 4: return Mnemonic::sw;
      default: return Mnemonic::sd;
    }
  }

  GenOptions opts_;
  CodeBuffer buf_;
  ScratchPool pool_;
  GenStats* stats_;
};

}  // namespace

std::vector<Instruction> CodeGenerator::generate(const Snippet& snippet,
                                                 isa::RegSet dead,
                                                 GenStats* stats) const {
  Generator gen(opts_, dead, stats);
  return gen.run(snippet);
}

std::vector<std::uint8_t> encode_sequence(
    const std::vector<Instruction>& insns) {
  std::vector<std::uint8_t> out;
  out.reserve(insns.size() * 4);
  for (const Instruction& i : insns) {
    const std::uint32_t w = i.raw();
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(w >> 8));
    out.push_back(static_cast<std::uint8_t>(w >> 16));
    out.push_back(static_cast<std::uint8_t>(w >> 24));
  }
  return out;
}

}  // namespace rvdyn::codegen
