// JIT differential oracle: every workload must run divergence-free on
// both backends (final registers, memory digest, per-pc profile), chunked
// session re-entry included — and a deliberately sabotaged template must
// be CAUGHT, proving the oracle has teeth. Two programs aim at the x64
// backend's specialised templates: the FMA forms and constant-address
// loads and stores.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "emu/machine.hpp"  // for the RVDYN_JIT_ENABLED default
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using check::JitDiffBackend;
using check::JitDiffOptions;

struct Workload {
  const char* name;
  std::string src;
};

std::vector<Workload> suite() {
  return {
      {"matmul", workloads::matmul_program(10, 2)},
      {"sort", workloads::sort_program(64)},
      {"fib", workloads::fib_program(14)},
      {"dispatch", workloads::dispatch_program(48)},
      {"call_churn", workloads::call_churn_program(300)},
  };
}

void expect_clean(const check::JitDiffReport& rep, const std::string& label) {
  EXPECT_EQ(rep.divergence_count, 0u) << label;
  for (const auto& d : rep.divergences)
    ADD_FAILURE() << label << ": " << d.subject << ": " << d.detail;
  if (rep.jit_available) {
    EXPECT_GT(rep.jit_steps, 0u) << label;
    EXPECT_GT(rep.blocks_compiled, 0u) << label;
    EXPECT_GT(rep.profile_pcs, 0u) << label;
  }
}

TEST(CheckJit, AllWorkloadsBothBackends) {
  for (const auto bk : {JitDiffBackend::X64, JitDiffBackend::Threaded}) {
    for (const auto& w : suite()) {
      JitDiffOptions opts;
      opts.backend = bk;
      const auto rep = check::run_jit_diff(w.name, w.src, opts);
      expect_clean(rep, std::string(w.name) + "/" +
                            (bk == JitDiffBackend::X64 ? "x64" : "threaded"));
    }
  }
}

// Randomized run(k) chunks force budget side-exits and session re-entry at
// arbitrary points in the trace; state must still be bit-exact.
TEST(CheckJit, ChunkedSessionsStayExact) {
  for (const auto& w : suite()) {
    JitDiffOptions opts;
    opts.chunks = 37;
    const auto rep = check::run_jit_diff(w.name, w.src, opts);
    expect_clean(rep, std::string(w.name) + "/chunked");
  }
}

// Meta-test: compile one mnemonic with a deliberately wrong template
// (result bit 0 flipped, in x[rd] or f[rd]). If the oracle does not light
// up, it is not actually comparing anything that matters.
void expect_sabotage_caught(isa::Mnemonic mn) {
  for (const auto bk : {JitDiffBackend::X64, JitDiffBackend::Threaded}) {
    JitDiffOptions opts;
    opts.backend = bk;
    opts.sabotage = mn;
    const auto rep =
        check::run_jit_diff("matmul", workloads::matmul_program(10, 1), opts);
    if (!rep.jit_available) GTEST_SKIP() << "JIT compiled out";
    EXPECT_GT(rep.divergence_count, 0u)
        << (bk == JitDiffBackend::X64 ? "x64" : "threaded")
        << ": sabotaged template produced zero divergences — the oracle is "
           "blind";
  }
}

TEST(CheckJit, SabotagedTemplateIsCaught) {
  expect_sabotage_caught(isa::Mnemonic::add);
}

// The FP destination: a wrong fmadd.d result, from the template or the
// helper, must light the oracle up too.
TEST(CheckJit, SabotagedFmaddIsCaught) {
  expect_sabotage_caught(isa::Mnemonic::fmadd_d);
}

// Both backends, one uninterrupted run and randomized run(k) chunks, at the
// default threshold and at 0 (every block compiled before its first pass).
void expect_clean_everywhere(const std::string& name, const std::string& src) {
  for (const auto bk : {JitDiffBackend::X64, JitDiffBackend::Threaded}) {
    for (const unsigned chunks : {0u, 37u}) {
      for (const std::uint32_t hot : {2u, 0u}) {
        JitDiffOptions opts;
        opts.backend = bk;
        opts.chunks = chunks;
        opts.hot_threshold = hot;
        const auto rep = check::run_jit_diff(name, src, opts);
        expect_clean(rep, name + "/" +
                              (bk == JitDiffBackend::X64 ? "x64" : "threaded") +
                              "/chunks=" + std::to_string(chunks) +
                              "/hot=" + std::to_string(hot));
      }
    }
  }
}

// fmadd.d, fmsub.d, fnmsub.d and fnmadd.d over the inputs where an FMA
// implementation can differ from glibc's fma while staying "correct":
// which NaN propagates (distinct payloads, both signs, quiet and
// signalling, in every operand position and in pairs), inf*0 plus a quiet
// NaN, infinities, exact cancellation to a signed zero, subnormal products
// and a product whose rounding shows whether the add was fused. Every
// result is stored, so the memory digest and the f registers pin them
// bit-exactly.
std::string fma_program() {
  const std::uint64_t qa = 0x7ff8000000000a01, qb = 0xfff80000000b0b02,
                      sc = 0x7ff0000000000c03, sd = 0xfff000000d0d0d04,
                      one = 0x3ff0000000000000, two = 0x4000000000000000,
                      three = 0x4008000000000000, six = 0x4018000000000000,
                      half = 0x3fe0000000000000, inf = 0x7ff0000000000000,
                      sign = 0x8000000000000000,
                      tiny_a = 0x0170000000000000,   // 2^-1000
                      tiny_b = 0x3c30000000000000,   // 2^-60
                      min_sub = 0x0000000000000001,  // 2^-1074
                      max_sub = 0x000fffffffffffff,
                      tenth = 0x3fb999999999999a,    // 0.1
                      m_three_tenths = 0xbfd3333333333333;  // -0.3
  const std::vector<std::array<std::uint64_t, 3>> rows = {
      // one NaN, in each position
      {qa, one, two}, {one, qa, two}, {one, two, qa},
      {qb, one, two}, {one, qb, two}, {one, two, qb},
      {sc, one, two}, {one, sc, two}, {one, two, sc},
      {sd, one, two}, {one, sd, two}, {one, two, sd},
      // NaN pairs and a triple
      {qa, qb, one}, {qb, qa, one}, {qa, one, qb}, {one, qb, qa},
      {sc, qa, one}, {qa, sc, one}, {sc, one, qa}, {one, qb, sd},
      {sd, sc, one}, {sd, one, sc}, {one, sc, sd}, {qa, sd, qb},
      {sc, qb, sd},
      // inf * 0 plus a NaN or a number
      {inf, 0, qa}, {0, inf | sign, qb}, {inf, 0, sc}, {inf, 0, one},
      // infinities
      {inf, one, one}, {inf | sign, two, three}, {inf, one, inf | sign},
      {inf, one | sign, inf}, {one, one, inf}, {two, inf | sign, inf | sign},
      // exact cancellation to +-0
      {two, three, six | sign}, {two | sign, three, six}, {sign, one, sign},
      {0, one | sign, 0}, {sign, sign, sign}, {one, one, one | sign},
      // subnormal products
      {tiny_a, tiny_b, 0}, {tiny_a, tiny_b | sign, sign}, {max_sub, half, 0},
      {min_sub, half, 0}, {min_sub, three, min_sub}, {max_sub, two, max_sub},
      // fused rounding
      {tenth, three, m_three_tenths}, {three, tenth, m_three_tenths | sign},
  };
  std::ostringstream out;
  out << std::hex << "    .data\n    .align 3\nin:\n";
  for (const auto& r : rows)
    out << "    .dword 0x" << r[0] << ", 0x" << r[1] << ", 0x" << r[2] << "\n";
  out << std::dec << "out: .zero " << rows.size() * 40 << R"(
    .text
    .globl _start
_start:
    li s2, 3                 # passes: the later ones run compiled code
pass:
    la s0, in
    la s1, out
    li s3, )" << rows.size() << R"(
row:
    fld ft0, 0(s0)
    fld ft1, 8(s0)
    fld ft2, 16(s0)
    fmadd.d ft3, ft0, ft1, ft2
    fmsub.d ft4, ft0, ft1, ft2
    fnmsub.d ft5, ft0, ft1, ft2
    fnmadd.d ft6, ft0, ft1, ft2
    fmadd.d ft2, ft2, ft0, ft2   # rd aliases rs1 and rs3
    fsd ft3, 0(s1)
    fsd ft4, 8(s1)
    fsd ft5, 16(s1)
    fsd ft6, 24(s1)
    fsd ft2, 32(s1)
    addi s0, s0, 24
    addi s1, s1, 40
    addi s3, s3, -1
    bnez s3, row
    addi s2, s2, -1
    bnez s2, pass
    li a0, 0
    li a7, 93
    ecall
)";
  return out.str();
}

TEST(CheckJit, FmaFormsAreBitExact) {
  expect_clean_everywhere("fma", fma_program());
}

// The woven-counter shape: constant-address ld/addi/sd off li- and
// la-built bases in a hot loop, plus the cases the compile-time TLB slot
// must refuse or survive: an 8-byte access straddling a page (its high
// half nonzero), a store to a page no earlier store touched (at hot=0 the
// compiled block makes the first one), two pages contending for one TLB
// slot (a store whose write-TLB entry outlived the read entry), a base
// whose page number does not fit an imm32, an addiw that wraps where addi
// would not, and bases overwritten by a load and by a helper-run op.
std::string woven_counter_program() {
  return R"(
    .data
    .align 3
ctr: .dword 0, 0
    .text
    .globl _start
_start:
    li t4, 0x30001ffc
    li t5, 0x1122334455667788
    sd t5, 0(t4)
    li s0, 0
    li s1, 200
loop:
    la t0, ctr               # auipc + addi
    ld t1, 0(t0)
    addi t1, t1, 1
    sd t1, 0(t0)
    li t2, 0x30000000        # lui
    ld t3, 8(t2)
    addi t3, t3, 3
    sd t3, 8(t2)
    sw s0, -4(t0)            # negative displacement off a known base
    li t4, 0x30001ffc        # lui + addiw; 8 bytes straddle two pages
    ld t5, 0(t4)
    addi t5, t5, 5
    sd t5, 0(t4)
    li t6, 0x30100000        # fresh page; shares t2's TLB slot
    sd s0, 16(t6)
    lw a0, 16(t6)
    lbu a1, 17(t6)
    lh a2, 18(t6)
    ld a5, 8(t2)             # t2's page takes the read slot back
    sb a0, 24(t6)            # write slot still holds t6's page
    sh a0, 26(t6)
    li a3, -0x80000000       # lui alone: page number beyond imm32
    sd s0, 64(a3)
    ld a4, 64(a3)
    add a5, a5, a4
    li t4, 0x7ffff7ff        # lui + addiw
    addi t4, t4, 0x7ff       # 0x7ffffffe
    addiw t4, t4, 0x7ff      # wraps to 0xffffffff800007fd
    sd s0, -5(t4)
    li a6, 0x30200000
    li t0, 0x30500000
    sd t0, 0(a6)
    ld a6, 0(a6)             # a load overwrites its own known base
    sd s0, 8(a6)             # lands at 0x30500008
    li a7, 0x30300000
    li t3, 1
    li t0, 0x30400000
    divu a7, t0, t3          # a helper-run op overwrites a known base
    sd s0, 8(a7)             # lands at 0x30400008
    addi s0, s0, 1
    blt s0, s1, loop
    la t0, ctr
    ld a0, 0(t0)
    andi a0, a0, 255
    li a7, 93
    ecall
)";
}

TEST(CheckJit, ConstantAddressAccessesAreBitExact) {
  expect_clean_everywhere("woven_counter", woven_counter_program());
}

// Sabotaging a mnemonic the workload never executes must stay clean: the
// hook perturbs only the targeted template, not the tier at large.
TEST(CheckJit, SabotageOfUnusedMnemonicIsClean) {
  JitDiffOptions opts;
  opts.sabotage = isa::Mnemonic::xor_;
  const auto rep =
      check::run_jit_diff("fib", workloads::fib_program(12), opts);
  if (!rep.jit_available) GTEST_SKIP() << "JIT compiled out";
  EXPECT_EQ(rep.divergence_count, 0u);
  for (const auto& d : rep.divergences) ADD_FAILURE() << d.detail;
}

TEST(CheckJit, ReportsUnavailableWhenCompiledOut) {
  const auto rep = check::run_jit_diff("fib", workloads::fib_program(8));
#if RVDYN_JIT_ENABLED
  EXPECT_TRUE(rep.jit_available);
#else
  EXPECT_FALSE(rep.jit_available);
  EXPECT_TRUE(rep.ok());
#endif
}

}  // namespace
