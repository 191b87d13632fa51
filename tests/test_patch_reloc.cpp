// Relocation-engine tests: the pass-based widget pipeline (lower -> weave
// -> rvc -> relax -> emit), the AddressSpace backends, and the behaviors
// the rewrite must preserve bit-exactly on the emulator — instrumentation
// at RVC compressed branch sites, snippet ordering, edge/backedge
// trampolines, tail-call exits, and the branch-reach relaxation that
// replaced the old pessimistic size estimate.
#include <gtest/gtest.h>

#include "assembler/assembler.hpp"
#include "emu/machine.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"

namespace {

using namespace rvdyn;
using codegen::increment;
using emu::Machine;
using emu::StopReason;
using patch::BinaryEditor;
using patch::PointType;

int run_binary(const symtab::Symtab& bin, Machine* out_machine = nullptr,
               std::uint64_t max_steps = 100'000'000) {
  Machine local;
  Machine& m = out_machine ? *out_machine : local;
  m.load(bin);
  const StopReason r = m.run(max_steps);
  EXPECT_EQ(static_cast<int>(r), static_cast<int>(StopReason::Exited))
      << "stopped at pc=0x" << std::hex << m.stop_pc();
  return m.exit_code();
}

// Run an instrumented binary through a Process so trap springboards (if
// any) are redirected by the debugger runtime.
int run_process(proccontrol::Process& proc) {
  const auto ev = proc.continue_run();
  EXPECT_EQ(static_cast<int>(ev.kind),
            static_cast<int>(proccontrol::Event::Kind::Exited));
  return ev.exit_code;
}

// ---- satellite: tail calls are function exits -----------------------------

TEST(PatchReloc, TailCallCountsAsFuncExit) {
  // `f` never returns directly: it exits through a tail call to `g`, so
  // FuncExit instrumentation on f must fire once per call to f.
  const auto bin = assembler::assemble(R"(
    .globl _start
    .globl f
    .globl g
_start:
    li s0, 0
    li s1, 4
tloop:
    call f
    addi s0, s0, 1
    blt s0, s1, tloop
    mv a0, s2
    li a7, 93
    ecall
f:
    addi s2, s2, 2
    j g
g:
    addi s2, s2, 1
    ret
)");
  ASSERT_EQ(run_binary(bin), 12);  // 4 * (2 + 1)

  BinaryEditor editor(bin);
  const auto* f = editor.code().function_named("f");
  ASSERT_NE(f, nullptr);
  // The tail-call block must be enumerated as an exit point at all.
  const auto points = patch::find_points(*f, PointType::FuncExit);
  ASSERT_FALSE(points.empty());

  const auto exits = editor.alloc_var("exits");
  editor.insert_at(f->entry(), PointType::FuncExit, increment(exits));
  auto proc = proccontrol::Process::launch(bin);
  proc->apply_patch(editor);
  EXPECT_EQ(run_process(*proc), 12);
  EXPECT_EQ(proc->read_mem(exits.addr, 8), 4u);  // one exit per call

  // Same property through the static backend.
  BinaryEditor se(bin);
  const auto exits2 = se.alloc_var("exits");
  se.insert_at(f->entry(), PointType::FuncExit, increment(exits2));
  Machine m;
  EXPECT_EQ(run_binary(se.commit(), &m), 12);
  EXPECT_EQ(m.memory().read(exits2.addr, 8), 4u);
}

// ---- RVC compressed branch sites ------------------------------------------

constexpr const char* kCompressedBranches = R"(
    .globl _start
    .globl count
_start:
    li a0, 20
    call count
    li a7, 93
    ecall
count:
    li s0, 0          # result (x8: c.beqz-eligible)
    li s1, 0          # i
cloop:
    andi a1, s1, 1
    beqz a1, ceven    # assembler compresses to c.beqz (a1 = x11)
    addi s0, s0, 3
    j cnext           # compresses to c.j
ceven:
    addi s0, s0, 1
cnext:
    addi s1, s1, 1
    bne s1, a0, cloop
    mv a0, s0
    ret
)";
// 20 iterations: 10 odd (+3) + 10 even (+1) = 40

TEST(PatchReloc, InstrumentAtCompressedBranchSite) {
  const auto bin = assembler::assemble(kCompressedBranches);
  ASSERT_EQ(run_binary(bin), 40);

  BinaryEditor editor(bin);
  const auto* f = editor.code().function_named("count");
  ASSERT_NE(f, nullptr);
  const auto blocks = editor.alloc_var("blocks");
  editor.insert_at(f->entry(), PointType::BlockEntry, increment(blocks));
  auto rewritten = editor.commit();

  Machine m;
  EXPECT_EQ(run_binary(rewritten, &m), 40);  // bit-exact behaviour
  // entry + 20*(loop head, one arm, join) + exit = 62 block entries
  EXPECT_EQ(m.memory().read(blocks.addr, 8), 62u);
  // The relocated c.beqz/c.j sites stayed in (or returned to) their 2-byte
  // forms: relaxation starts at C2 and never widened them here.
  EXPECT_GE(editor.stats().reloc.branch_c2, 1u);
  EXPECT_GE(editor.stats().reloc.jump_c2, 1u);
  EXPECT_EQ(editor.stats().reloc.branch_long, 0u);
}

TEST(PatchReloc, MultiSnippetOrderingAtCompressedSite) {
  const auto bin = assembler::assemble(kCompressedBranches);
  BinaryEditor editor(bin);
  const auto* f = editor.code().function_named("count");
  ASSERT_NE(f, nullptr);
  const auto v = editor.alloc_var("v");
  // Anchor two order-sensitive snippets at the block holding the
  // compressed branch (the loop head): v = (v + 1) * 2 per execution.
  const std::uint64_t head = f->entry();
  editor.insert_at(head, PointType::FuncEntry, increment(v));
  editor.insert_at(head, PointType::FuncEntry,
                   codegen::assign(v, codegen::binary(codegen::BinOp::Mul,
                                                      codegen::var_expr(v),
                                                      codegen::constant(2))));
  Machine m;
  EXPECT_EQ(run_binary(editor.commit(), &m), 40);
  EXPECT_EQ(m.memory().read(v.addr, 8), 2u);  // one entry: (0+1)*2
}

// ---- edge / backedge trampolines ------------------------------------------

TEST(PatchReloc, BackedgeTrampolineSurvivesRelocationOnBothBackends) {
  const auto bin = assembler::assemble(kCompressedBranches);
  const int want = run_binary(bin);

  // Static backend (symtab rewrite).
  BinaryEditor se(bin);
  const auto* f = se.code().function_named("count");
  ASSERT_NE(f, nullptr);
  const auto back_s = se.alloc_var("back");
  se.insert_at(f->entry(), PointType::LoopBackedge, increment(back_s));
  Machine m;
  EXPECT_EQ(run_binary(se.commit(), &m), want);
  EXPECT_EQ(m.memory().read(back_s.addr, 8), 19u);  // 20 iters, 19 backedges

  // Dynamic backend (live process through ProcessSpace).
  BinaryEditor de(bin);
  const auto back_d = de.alloc_var("back");
  de.insert_at(de.code().function_named("count")->entry(),
               PointType::LoopBackedge, increment(back_d));
  auto proc = proccontrol::Process::launch(bin);
  proc->apply_patch(de);
  EXPECT_EQ(run_process(*proc), want);
  EXPECT_EQ(proc->read_mem(back_d.addr, 8), 19u);
}

TEST(PatchReloc, EdgeTrampolineCountsOneArmOnly) {
  const auto bin = assembler::assemble(kCompressedBranches);
  BinaryEditor editor(bin);
  const auto* f = editor.code().function_named("count");
  ASSERT_NE(f, nullptr);

  // Find the taken edge of the compressed branch (loop head -> odd arm).
  const auto points = patch::find_points(*f, PointType::Edge);
  const parse::Block* head = nullptr;
  for (const auto& [a, b] : f->blocks())
    if (!b->insns().empty() && b->insns().back().insn.is_cond_branch() &&
        b->insns().back().insn.length() == 2) {
      head = b.get();
      break;
    }
  ASSERT_NE(head, nullptr) << "no compressed conditional branch found";
  const std::uint64_t taken =
      head->last().addr +
      static_cast<std::uint64_t>(head->last().insn.branch_offset());
  const patch::Point* edge = nullptr;
  for (const auto& p : points)
    if (p.block == head->start() && p.aux == taken) edge = &p;
  ASSERT_NE(edge, nullptr);

  const auto c = editor.alloc_var("taken");
  editor.insert(*edge, increment(c));
  Machine m;
  EXPECT_EQ(run_binary(editor.commit(), &m), 40);
  EXPECT_EQ(m.memory().read(c.addr, 8), 10u);  // odd arm: 10 of 20 iters
}

// ---- commit session semantics ---------------------------------------------

TEST(PatchReloc, SecondStaticCommitErrorsButSessionContinues) {
  const auto bin = assembler::assemble(kCompressedBranches);
  BinaryEditor editor(bin);
  const auto c = editor.alloc_var("c");
  editor.insert_at(editor.code().function_named("count")->entry(),
                   PointType::FuncEntry, increment(c));

  auto rewritten = editor.commit();
  EXPECT_THROW(editor.commit(), Error);  // static commit is one-shot

  // But the session plan may still be applied to further address spaces.
  symtab::Symtab copy = bin;
  patch::SymtabSpace space(&copy);
  EXPECT_TRUE(editor.commit_to(space).is_ok());
  Machine m1, m2;
  EXPECT_EQ(run_binary(rewritten, &m1), run_binary(copy, &m2));
}

TEST(PatchReloc, RevertBeforeCommitIsAnError) {
  const auto bin = assembler::assemble(kCompressedBranches);
  BinaryEditor editor(bin);
  symtab::Symtab copy = bin;
  patch::SymtabSpace space(&copy);
  const auto s = editor.revert_from(space);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("revert_from"), std::string::npos);
}

// ---- branch-reach relaxation ----------------------------------------------

TEST(PatchReloc, RelaxationAvoidsPessimisticBranchWidening) {
  // The old engine widened EVERY conditional branch of a function once its
  // estimated relocated size crossed a threshold. The fixed-point pass
  // only widens branches whose laid-out displacement actually demands it:
  // a large woven snippet far from the loop branch must leave the branch
  // in its short form.
  const auto bin = assembler::assemble(R"(
    .globl _start
    .globl looper
_start:
    call looper
    li a7, 93
    ecall
looper:
    li t0, 0
    li t1, 25
lloop:
    addi t0, t0, 1
    blt t0, t1, lloop
    mv a0, t0
    ret
)");
  BinaryEditor editor(bin);
  const auto big = editor.alloc_var("big");
  const auto* f = editor.code().function_named("looper");
  ASSERT_NE(f, nullptr);
  // ~600 statements woven at FuncEntry: the function is now huge, but the
  // loop branch's own displacement is tiny (the snippet sits before the
  // loop, outside the branch span).
  std::vector<codegen::SnippetPtr> stmts;
  for (int i = 0; i < 600; ++i) stmts.push_back(increment(big));
  editor.insert_at(f->entry(), PointType::FuncEntry,
                   codegen::sequence(std::move(stmts)));
  Machine m;
  EXPECT_EQ(run_binary(editor.commit(), &m), 25);
  EXPECT_EQ(m.memory().read(big.addr, 8), 600u);
  EXPECT_EQ(editor.stats().reloc.branch_long, 0u)
      << "relaxation widened a branch whose displacement fits";
  EXPECT_GE(editor.stats().reloc.relax_iterations, 1u);
}

TEST(PatchReloc, RelaxationTightensDisplacementLadder) {
  // Acceptance experiment: RVC re-compression + relaxation shrink the
  // relocated image, keeping a function's relocated entry within jal reach
  // of its springboard where the uncompressed layout would have fallen off
  // the ladder to auipc+jalr.
  const auto bin = assembler::assemble(R"(
    .globl _start
    .globl alpha
    .globl beta
_start:
    call alpha
    call beta
    add a0, a0, s3
    andi a0, a0, 255
    li a7, 93
    ecall
alpha:
    li s3, 0
    li t0, 0
    li t1, 5
aloop:
    addi s3, s3, 2
    addi t0, t0, 1
    blt t0, t1, aloop
    ret
beta:
    li a0, 3
    ret
)");
  ASSERT_EQ(run_binary(bin), 13);  // 5*2 + 3

  const auto instrument = [&](BinaryEditor& e) {
    const auto big = e.alloc_var("big");
    std::vector<codegen::SnippetPtr> stmts;
    for (int i = 0; i < 600; ++i) stmts.push_back(increment(big));
    e.insert_at(e.code().function_named("alpha")->entry(),
                PointType::FuncEntry, codegen::sequence(std::move(stmts)));
    e.insert_at(e.code().function_named("beta")->entry(),
                PointType::FuncEntry,
                increment(e.alloc_var("beta_calls")));
  };

  // Phase 1: measure the layout (base-independent here: alpha/beta contain
  // no absolute transfers, so widget sizes do not depend on the base).
  BinaryEditor probe(bin);
  instrument(probe);
  probe.commit();
  const std::uint64_t beta_entry =
      probe.code().function_named("beta")->entry();
  const std::uint64_t alpha_entry =
      probe.code().function_named("alpha")->entry();
  const std::uint64_t base1 = probe.plan()->relocated_entry.at(alpha_entry);
  const std::uint64_t off_beta =
      probe.plan()->relocated_entry.at(beta_entry) - base1;
  const std::uint64_t savings = probe.stats().reloc.bytes_before_rvc -
                                probe.stats().reloc.bytes_after_rvc;
  // The experiment needs real compression wins in the woven code.
  ASSERT_GT(savings, 1024u);

  // Phase 2: park the patch area so beta's relocated entry lands just
  // inside the jal ±1MiB reach — reachable only because the rvc pass
  // shrank everything laid out before it.
  const std::uint64_t base2 =
      (beta_entry + (1ULL << 20) - off_beta - 512) & ~0xfULL;
  BinaryEditor editor(bin);
  instrument(editor);
  editor.set_patch_base(base2, base2 + 0x200000);
  auto rewritten = editor.commit();

  const std::uint64_t delta_beta =
      editor.plan()->relocated_entry.at(beta_entry) - beta_entry;
  EXPECT_LT(delta_beta, 1ULL << 20);  // within jal reach
  // Without re-compression beta's entry would sit `savings` bytes deeper
  // (minus beta's own few compressible bytes): beyond the reach.
  EXPECT_GT(delta_beta + savings - 128, 1ULL << 20);
  // The ladder stayed on cheap strategies for both entries.
  EXPECT_EQ(editor.stats().entry_auipc_jalr, 0u);
  EXPECT_EQ(editor.stats().entry_trap, 0u);
  EXPECT_EQ(editor.stats().entry_jal + editor.stats().entry_cj, 2u);

  Machine m;
  EXPECT_EQ(run_binary(rewritten, &m), 13);  // still bit-exact
}

// ---- blocks shared by two relocated functions ------------------------------

// Regression: `shared` is a block of both f (reached by `j shared`) and g
// (its branch target and fallthrough), so both relocated copies bind the
// label. Control flow must resolve to the jumping function's own copy:
// resolving module-wide let the function laid out last (g) win, and f's
// jump skipped f's BlockEntry counter on `shared`.
TEST(PatchReloc, JumpIntoSharedBlockStaysInOwnCopy) {
  const auto bin = assembler::assemble(R"(
    .globl _start
    .globl f
    .globl g
_start:
    li s0, 0
    call f
    call g
    mv a0, s0
    li a7, 93
    ecall
f:
    addi s0, s0, 1
    j shared
g:
    addi s0, s0, 10
    bnez s0, shared
shared:
    addi s0, s0, 100
    ret
)");
  ASSERT_EQ(run_binary(bin), 211);

  BinaryEditor editor(bin);
  const auto* f = editor.code().function_named("f");
  const auto* g = editor.code().function_named("g");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(g, nullptr);
  const std::uint64_t shared = bin.find_symbol("shared")->value;
  ASSERT_NE(f->block_at(shared), nullptr);
  ASSERT_NE(g->block_at(shared), nullptr);

  const auto f_blocks = editor.alloc_var("f_blocks");
  const auto g_entries = editor.alloc_var("g_entries");
  editor.insert_at(f->entry(), PointType::BlockEntry, increment(f_blocks));
  editor.insert_at(g->entry(), PointType::FuncEntry, increment(g_entries));
  Machine m;
  EXPECT_EQ(run_binary(editor.commit(), &m), 211);
  EXPECT_EQ(m.memory().read(f_blocks.addr, 8), 2u);  // f's entry + shared
  EXPECT_EQ(m.memory().read(g_entries.addr, 8), 1u);
}

// ---- both backends produce identical behaviour ----------------------------

TEST(PatchReloc, StaticAndDynamicBackendsAgreeBitExact) {
  const auto bin = assembler::assemble(kCompressedBranches);
  const int want = run_binary(bin);

  BinaryEditor editor(bin);
  const auto c = editor.alloc_var("calls");
  editor.insert_at(editor.code().function_named("count")->entry(),
                   PointType::FuncEntry, increment(c));

  // One plan, two address spaces: the static model and the live process.
  symtab::Symtab static_out = bin;
  patch::SymtabSpace static_space(&static_out);
  ASSERT_TRUE(editor.commit_to(static_space).is_ok());

  auto proc = proccontrol::Process::launch(bin);
  ASSERT_TRUE(editor.commit_to(proc->address_space()).is_ok());

  Machine sm;
  const int static_exit = run_binary(static_out, &sm);
  const int dynamic_exit = run_process(*proc);

  EXPECT_EQ(static_exit, want);
  EXPECT_EQ(dynamic_exit, want);
  EXPECT_EQ(sm.memory().read(c.addr, 8), 1u);
  EXPECT_EQ(proc->read_mem(c.addr, 8), 1u);
  // Identical patch text mapped by both backends.
  const auto* plan = editor.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(static_space.read_code(plan->text.addr, plan->text.bytes.size()),
            plan->text.bytes);
}

}  // namespace
