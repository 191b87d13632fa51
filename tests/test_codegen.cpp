// CodeGenAPI tests: snippets are lowered to RV64 code and *executed* on
// the emulator, so the checks cover behaviour, not just shape. Includes
// the dead-register optimization (scratch selection + spill fallback) and
// extension gating.
#include <gtest/gtest.h>

#include "codegen/codegen.hpp"
#include "emu/machine.hpp"
#include "isa/encoder.hpp"
#include "isa/imm_builder.hpp"

namespace {

using namespace rvdyn;
using namespace rvdyn::codegen;
using emu::Machine;
using emu::StopReason;

constexpr std::uint64_t kCodeBase = 0x10000;
constexpr std::uint64_t kVarBase = 0x30000;

// Execute a generated sequence followed by ebreak; returns the machine for
// inspection.
void run_snippet(Machine& m, const std::vector<isa::Instruction>& insns) {
  auto bytes = encode_sequence(insns);
  bytes.push_back(0x73);  // ebreak (4-byte form)
  bytes.push_back(0x00);
  bytes.push_back(0x10);
  bytes.push_back(0x00);
  m.memory().map(kCodeBase, bytes.size() + 16);
  m.memory().map(kVarBase, 0x1000);
  m.memory().map(Machine::kStackTop - Machine::kStackSize,
                 Machine::kStackSize);
  m.write_code(kCodeBase, bytes.data(), bytes.size());
  m.set_pc(kCodeBase);
  m.set_x(2, Machine::kStackTop - 64);
  const StopReason r = m.run(100000);
  ASSERT_EQ(static_cast<int>(r), static_cast<int>(StopReason::Breakpoint))
      << "stopped at 0x" << std::hex << m.stop_pc();
}

isa::RegSet some_dead() {
  isa::RegSet dead;
  dead.add(isa::t0);
  dead.add(isa::t1);
  dead.add(isa::t2);
  dead.add(isa::t3);
  return dead;
}

Variable var_at(std::uint64_t off, std::uint8_t size = 8) {
  Variable v;
  v.addr = kVarBase + off;
  v.size = size;
  v.name = "v";
  return v;
}

TEST(Codegen, CounterIncrement) {
  CodeGenerator gen;
  const Variable v = var_at(0);
  GenStats stats;
  const auto insns = gen.generate(*increment(v), some_dead(), &stats);
  Machine m;
  m.memory().map(kVarBase, 0x1000);
  m.memory().write(v.addr, 41, 8);
  run_snippet(m, insns);
  EXPECT_EQ(m.memory().read(v.addr, 8), 42u);
  EXPECT_GT(stats.scratch_from_dead, 0u);
  EXPECT_EQ(stats.scratch_spilled, 0u);
  // The counter peephole keeps the sequence tight (addr, ld, addi, sd).
  EXPECT_LE(stats.n_insns, 6u);
}

TEST(Codegen, IncrementWithoutDeadRegsSpills) {
  CodeGenerator gen;
  const Variable v = var_at(0);
  GenStats stats;
  const auto insns = gen.generate(*increment(v), isa::RegSet(), &stats);
  EXPECT_GT(stats.scratch_spilled, 0u);

  // Spilled registers must be preserved across the snippet.
  Machine m;
  m.memory().write(v.addr, 7, 8);
  m.set_x(5, 0xdeadbeef);   // t0
  m.set_x(6, 0xcafebabe);   // t1
  run_snippet(m, insns);
  EXPECT_EQ(m.memory().read(v.addr, 8), 8u);
  EXPECT_EQ(m.get_x(5), 0xdeadbeefu);
  EXPECT_EQ(m.get_x(6), 0xcafebabeu);
}

TEST(Codegen, SpillBaselineIsLonger) {
  // The ablation the paper's Table 1 highlights: dead-register allocation
  // yields strictly shorter sequences than always-spilling.
  GenOptions spill_opts;
  spill_opts.use_dead_registers = false;
  CodeGenerator dead_gen, spill_gen(spill_opts);
  const Variable v = var_at(0);
  GenStats a, b;
  dead_gen.generate(*increment(v), some_dead(), &a);
  spill_gen.generate(*increment(v), some_dead(), &b);
  EXPECT_LT(a.n_insns, b.n_insns);
  EXPECT_EQ(a.scratch_spilled, 0u);
  EXPECT_GT(b.scratch_spilled, 0u);
}

TEST(Codegen, ArithmeticExpression) {
  // v1 = (17 + 5) * 3 - 6  = 60
  CodeGenerator gen;
  const Variable v = var_at(8);
  const auto snip = assign(
      v, binary(BinOp::Sub,
                binary(BinOp::Mul,
                       binary(BinOp::Add, constant(17), constant(5)),
                       constant(3)),
                constant(6)));
  Machine m;
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 8, 8), 60u);
}

TEST(Codegen, ReadRegisterOperand) {
  // v = a0 + a1
  CodeGenerator gen;
  const Variable v = var_at(16);
  const auto snip =
      assign(v, binary(BinOp::Add, read_reg(isa::a0), read_reg(isa::a1)));
  Machine m;
  m.set_x(10, 30);
  m.set_x(11, 12);
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 16, 8), 42u);
}

TEST(Codegen, WriteRegister) {
  CodeGenerator gen;
  const auto snip = write_reg(isa::a5, constant(1234));
  Machine m;
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.get_x(15), 1234u);
}

TEST(Codegen, LoadStoreIndirect) {
  // mem[base+8] = mem[base] + 1
  CodeGenerator gen;
  const auto snip =
      store(constant(static_cast<std::int64_t>(kVarBase + 8)),
            binary(BinOp::Add,
                   load(constant(static_cast<std::int64_t>(kVarBase))),
                   constant(1)));
  Machine m;
  m.memory().write(kVarBase, 99, 8);
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 8, 8), 100u);
}

TEST(Codegen, ConditionalBothArms) {
  CodeGenerator gen;
  const Variable v = var_at(24);
  const auto snip = if_then(
      binary(BinOp::LtS, read_reg(isa::a0), constant(10)),
      assign(v, constant(111)), assign(v, constant(222)));

  {
    Machine m;
    m.set_x(10, 5);
    run_snippet(m, gen.generate(*snip, some_dead()));
    EXPECT_EQ(m.memory().read(kVarBase + 24, 8), 111u);
  }
  {
    Machine m;
    m.set_x(10, 50);
    run_snippet(m, gen.generate(*snip, some_dead()));
    EXPECT_EQ(m.memory().read(kVarBase + 24, 8), 222u);
  }
}

TEST(Codegen, IfWithoutElse) {
  CodeGenerator gen;
  const Variable v = var_at(32);
  const auto snip = if_then(binary(BinOp::Eq, read_reg(isa::a0), constant(7)),
                            assign(v, constant(1)));
  Machine m;
  m.set_x(10, 3);
  m.memory().write(kVarBase + 32, 0, 8);
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 32, 8), 0u);
}

TEST(Codegen, ComparisonOperators) {
  CodeGenerator gen;
  struct Case {
    BinOp op;
    std::int64_t a, b;
    std::uint64_t expect;
  };
  const Case cases[] = {
      {BinOp::Eq, 5, 5, 1},   {BinOp::Eq, 5, 6, 0},
      {BinOp::Ne, 5, 6, 1},   {BinOp::Ne, 5, 5, 0},
      {BinOp::LtS, -1, 0, 1}, {BinOp::LtS, 0, -1, 0},
      {BinOp::LtU, 1, 2, 1},  {BinOp::LtU, static_cast<std::int64_t>(-1), 2, 0},
      {BinOp::GeS, 3, 3, 1},  {BinOp::GeS, 2, 3, 0},
      {BinOp::GeU, 9, 3, 1},  {BinOp::GeU, 2, 3, 0},
  };
  for (const Case& c : cases) {
    const Variable v = var_at(40);
    const auto snip = assign(v, binary(c.op, constant(c.a), constant(c.b)));
    Machine m;
    run_snippet(m, gen.generate(*snip, some_dead()));
    EXPECT_EQ(m.memory().read(kVarBase + 40, 8), c.expect)
        << "op " << static_cast<int>(c.op) << " " << c.a << "," << c.b;
  }
}

TEST(Codegen, ExtensionGatingRejectsMulWithoutM) {
  GenOptions opts;
  opts.extensions = isa::ExtensionSet::rv64i();
  CodeGenerator gen(opts);
  const auto snip = assign(var_at(0), binary(BinOp::Mul, constant(2),
                                             constant(3)));
  EXPECT_THROW(gen.generate(*snip, some_dead()), Error);
}

TEST(Codegen, SequenceOfStatements) {
  CodeGenerator gen;
  const Variable v1 = var_at(48), v2 = var_at(56);
  const auto snip = sequence({assign(v1, constant(10)),
                              assign(v2, binary(BinOp::Add, var_expr(v1),
                                                constant(5))),
                              increment(v1)});
  Machine m;
  run_snippet(m, gen.generate(*snip, some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 48, 8), 11u);
  EXPECT_EQ(m.memory().read(kVarBase + 56, 8), 15u);
}

TEST(Codegen, SmallVariableSizes) {
  CodeGenerator gen;
  const Variable v4 = var_at(64, 4);
  Machine m;
  m.memory().write(kVarBase + 64, 0xffffffff, 4);   // will wrap to 0
  m.memory().write(kVarBase + 68, 0x55, 4);         // must stay intact
  run_snippet(m, gen.generate(*increment(v4), some_dead()));
  EXPECT_EQ(m.memory().read(kVarBase + 64, 4), 0u);
  EXPECT_EQ(m.memory().read(kVarBase + 68, 4), 0x55u);
}

TEST(Codegen, CallSnippetInvokesTarget) {
  // Target function at 0x11000: a0 = a0 + a1; ret.
  CodeGenerator gen;
  const std::uint64_t target = 0x11000;
  Machine m;
  {
    using isa::Instruction;
    using isa::Mnemonic;
    std::vector<isa::Instruction> callee = {
        isa::assemble(Mnemonic::add,
                      {Instruction::reg_op(isa::a0, isa::Operand::kWrite),
                       Instruction::reg_op(isa::a0, isa::Operand::kRead),
                       Instruction::reg_op(isa::a1, isa::Operand::kRead)}),
        isa::assemble(Mnemonic::jalr,
                      {Instruction::reg_op(isa::zero, isa::Operand::kWrite),
                       Instruction::reg_op(isa::ra, isa::Operand::kRead),
                       Instruction::imm_op(0)}),
    };
    const auto bytes = encode_sequence(callee);
    m.memory().map(target, 0x100);
    m.write_code(target, bytes.data(), bytes.size());
  }
  const Variable v = var_at(72);
  const auto snip = assign(v, call(target, {constant(40), constant(2)}));
  // a0/a1 hold mutatee values that must survive the call snippet.
  m.set_x(10, 1111);
  m.set_x(11, 2222);
  run_snippet(m, gen.generate(*snip, isa::RegSet()));
  EXPECT_EQ(m.memory().read(kVarBase + 72, 8), 42u);
  EXPECT_EQ(m.get_x(10), 1111u);
  EXPECT_EQ(m.get_x(11), 2222u);
}

TEST(Codegen, StackPointerRestoredAfterSpills) {
  CodeGenerator gen;
  const auto snip = increment(var_at(80));
  Machine m;
  const std::uint64_t sp0 = Machine::kStackTop - 64;
  run_snippet(m, gen.generate(*snip, isa::RegSet()));  // force spills
  EXPECT_EQ(m.get_x(2), sp0);
}

// Property sweep: materialized constants of many shapes evaluate exactly.
class ImmMaterialize : public ::testing::TestWithParam<int> {};

TEST_P(ImmMaterialize, RoundTripThroughEmulator) {
  const int i = GetParam();
  const std::int64_t probes[] = {
      0, 1, -1, 42, -2048, 2047, 2048, -2049,
      0x7fff, 0x12345, -0x12345, 0x7fffffff, -0x80000000LL,
      0x80000000LL, 0x100000000LL, 0x123456789abcdef0LL,
      -0x123456789abcdefLL, static_cast<std::int64_t>(0x8000000000000000ULL),
      static_cast<std::int64_t>(
          (static_cast<std::int64_t>(i) * 0x9e3779b97f4a7c15LL) ^ (i << 13)),
  };
  for (const std::int64_t v : probes) {
    std::vector<isa::Instruction> seq;
    isa::materialize_imm(isa::t0, v, &seq);
    ASSERT_LE(seq.size(), 8u);
    Machine m;
    run_snippet(m, seq);
    EXPECT_EQ(m.get_x(5), static_cast<std::uint64_t>(v)) << "imm " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ImmMaterialize, ::testing::Range(0, 24));

}  // namespace
