// DataflowAPI tests: register liveness (validated against the dead-register
// optimization's requirements and against a straightforward reference
// solver), interprocedural summaries, stack-height analysis, and slicing.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "assembler/assembler.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/slicing.hpp"
#include "dataflow/stack_height.hpp"
#include "dataflow/summaries.hpp"
#include "parse/callgraph.hpp"
#include "parse/cfg.hpp"
#include "parse/loops.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using dataflow::FuncSummary;
using dataflow::HeightState;
using dataflow::Liveness;
using dataflow::Slicer;
using dataflow::Summaries;
using dataflow::StackHeightAnalysis;
using parse::Block;
using parse::CodeObject;
using parse::EdgeType;
using parse::Function;
using isa::RegSet;

struct Parsed {
  symtab::Symtab st;
  std::unique_ptr<CodeObject> co;
};

Parsed parse_src(const std::string& src) {
  Parsed p{assembler::assemble(src), nullptr};
  p.co = std::make_unique<CodeObject>(p.st);
  p.co->parse();
  return p;
}

// ---- liveness ----

TEST(Liveness, UsedRegisterIsLive) {
  auto p = parse_src(R"(
    .globl f
f:
    add a0, a0, a1
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* b = f->entry_block();
  // Before the add, a0 and a1 are read: both live.
  const auto before = live.live_before(b, 0);
  EXPECT_TRUE(before.contains(isa::a0));
  EXPECT_TRUE(before.contains(isa::a1));
}

TEST(Liveness, OverwrittenRegisterIsDeadBefore) {
  auto p = parse_src(R"(
    .globl f
f:
    li t0, 5        # t0 defined here; its previous value is dead before
    add a0, a0, t0
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* b = f->entry_block();
  EXPECT_FALSE(live.live_before(b, 0).contains(isa::t0));
  EXPECT_TRUE(live.dead_before(b, 0).contains(isa::t0));
  // After the def (before the add) t0 is live.
  EXPECT_TRUE(live.live_before(b, 1).contains(isa::t0));
}

TEST(Liveness, LiveAcrossBranchJoin) {
  auto p = parse_src(R"(
    .globl f
f:
    li t1, 7
    beqz a0, skip
    nop
skip:
    add a0, a0, t1   # t1 used on both paths' join
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* entry = f->entry_block();
  // t1 is live at the branch (index of beqz = 1).
  EXPECT_TRUE(live.live_before(entry, 1).contains(isa::t1));
}

TEST(Liveness, DeadAfterLastUse) {
  auto p = parse_src(R"(
    .globl f
f:
    add a0, a0, t1
    li t1, 0          # kills t1 (old value dead between the two)
    add a0, a0, t1
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* b = f->entry_block();
  // Between insn 0 and insn 1, the incoming t1 value is dead.
  EXPECT_TRUE(live.dead_before(b, 1).contains(isa::t1));
}

TEST(Liveness, CalleeSavedLiveAtReturn) {
  auto p = parse_src(R"(
    .globl f
f:
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* b = f->entry_block();
  const auto before = live.live_before(b, 0);
  EXPECT_TRUE(before.contains(isa::sp));
  EXPECT_TRUE(before.contains(isa::s0));
  EXPECT_TRUE(before.contains(isa::a0));  // potential return value
  // Unused temporaries are dead even right at the return.
  EXPECT_TRUE(live.dead_before(b, 0).contains(isa::t2));
  EXPECT_TRUE(live.dead_before(b, 0).contains(isa::t3));
}

TEST(Liveness, CallClobbersAndUsesABI) {
  auto p = parse_src(R"(
    .globl f
    .globl g
f:
    addi sp, sp, -16
    sd ra, 8(sp)
    li a0, 1
    call g
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
g:
    ret
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const Block* entry = f->entry_block();
  // Find the call instruction index in the entry block.
  std::size_t call_idx = entry->insns().size() - 1;
  // a0 (argument) is live right before the call.
  EXPECT_TRUE(live.live_before(entry, call_idx).contains(isa::a0));
  // t0 is not live before the call (clobbered by it, never used).
  EXPECT_TRUE(live.dead_before(entry, call_idx).contains(isa::t0));
}

TEST(Liveness, DeadNeverIncludesReservedRegs) {
  auto p = parse_src(".globl f\nf:\n ret\n");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  const auto dead = live.dead_before(f->entry_block(), 0);
  EXPECT_FALSE(dead.contains(isa::zero));
  EXPECT_FALSE(dead.contains(isa::sp));
  EXPECT_FALSE(dead.contains(isa::gp));
  EXPECT_FALSE(dead.contains(isa::tp));
}

TEST(Liveness, UnresolvedFlowForcesAllLive) {
  auto p = parse_src(R"(
    .globl f
f:
    jr a1
)");
  Function* f = p.co->function_named("f");
  Liveness live(*f);
  // With unresolved flow, nothing (except never-dead regs) may be dead.
  EXPECT_TRUE(live.dead_before(f->entry_block(), 0).empty());
}

// ---- reference solvers ----
//
// The straightforward formulations the production solvers must agree
// with: liveness as a map-keyed FIFO worklist that re-walks a block for
// every query, must-def as a map-keyed forward worklist. Callee summaries
// come through `Lookup`, so the reference can run on its own summaries or
// on the production ones.

using Lookup = std::function<const FuncSummary*(std::uint64_t)>;

class RefLiveness {
 public:
  RefLiveness(const Function& f, Lookup lookup, Liveness::ReturnBoundary rb)
      : func_(f), lookup_(std::move(lookup)) {
    std::deque<const Block*> work;
    for (const auto& [a, b] : f.blocks()) {
      live_in_[b.get()] = RegSet();
      live_out_[b.get()] = RegSet();
      work.push_back(b.get());
    }
    const RegSet at_return = rb == Liveness::ReturnBoundary::Abi
                                 ? Liveness::abi_live_at_return()
                                 : RegSet();
    while (!work.empty()) {
      const Block* b = work.front();
      work.pop_front();
      RegSet out;
      for (const parse::Edge& e : b->succs()) {
        switch (e.type) {
          case EdgeType::Return:
            out |= at_return;
            break;
          case EdgeType::TailCall: {
            const FuncSummary* s =
                lookup_ && e.target ? lookup_(e.target) : nullptr;
            out |= s ? s->may_use : Liveness::call_uses();
            break;
          }
          case EdgeType::Unresolved:
            out |= ~RegSet();
            break;
          case EdgeType::Call:
            break;
          default:
            if (const Block* t = func_.block_at(e.target))
              out |= live_in_.at(t);
            break;
        }
      }
      live_out_[b] = out;
      const RegSet in = walk(b, out, 0);
      if (!(in == live_in_.at(b))) {
        live_in_[b] = in;
        for (const Block* p : b->preds()) work.push_back(p);
      }
    }
  }

  RegSet live_out(const Block* b) const {
    auto it = live_out_.find(b);
    return it == live_out_.end() ? ~RegSet() : it->second;
  }
  RegSet live_in(const Block* b) const {
    auto it = live_in_.find(b);
    return it == live_in_.end() ? ~RegSet() : it->second;
  }
  RegSet live_before(const Block* b, std::size_t index) const {
    return walk(b, live_out(b), index);
  }
  RegSet dead_at(std::uint64_t addr) const {
    const Block* b = func_.block_containing(addr);
    if (!b) return RegSet();
    for (std::size_t i = 0; i < b->insns().size(); ++i)
      if (b->insns()[i].addr == addr) {
        RegSet dead = ~live_before(b, i);
        dead.remove(isa::zero);
        dead.remove(isa::sp);
        dead.remove(isa::gp);
        dead.remove(isa::tp);
        return dead;
      }
    return RegSet();
  }

 private:
  RegSet walk(const Block* b, RegSet live, std::size_t index) const {
    std::optional<std::uint64_t> callee;
    for (const parse::Edge& e : b->succs())
      if ((e.type == EdgeType::Call || e.type == EdgeType::TailCall) &&
          e.target) {
        callee = e.target;
        break;
      }
    const auto& insns = b->insns();
    for (std::size_t i = insns.size(); i > index; --i)
      live = transfer(insns[i - 1].insn, live,
                      i == insns.size() ? callee : std::nullopt);
    return live;
  }

  RegSet transfer(const isa::Instruction& insn, RegSet live,
                  std::optional<std::uint64_t> callee) const {
    if ((insn.is_jal() || insn.is_jalr()) && !(insn.link_reg() == isa::zero)) {
      RegSet uses = Liveness::call_uses();
      RegSet kills = Liveness::call_defs();
      if (lookup_ && callee)
        if (const FuncSummary* s = lookup_(*callee)) {
          uses = s->may_use;
          kills = s->must_def;
        }
      kills |= insn.regs_written();
      return ((live - kills) | uses) | insn.regs_read();
    }
    if (insn.has_flag(isa::F_ECALL)) {
      live.remove(isa::a0);
      live.remove(isa::a1);
      for (std::uint8_t n = 10; n <= 17; ++n) live.add(isa::x(n));
      return live;
    }
    return (live - insn.regs_written()) | insn.regs_read();
  }

  const Function& func_;
  Lookup lookup_;
  std::map<const Block*, RegSet> live_in_, live_out_;
};

bool ref_intraproc(EdgeType t) {
  return t == EdgeType::Fallthrough || t == EdgeType::Taken ||
         t == EdgeType::NotTaken || t == EdgeType::Jump ||
         t == EdgeType::IndirectJump || t == EdgeType::CallFallthrough;
}

RegSet ref_must_def(const Function& f, const Lookup& lookup) {
  const Block* entry = f.entry_block();
  if (!entry) return RegSet();
  std::map<const Block*, RegSet> in;
  std::deque<const Block*> work{entry};
  in[entry] = RegSet();
  auto block_out = [&](const Block* b, RegSet defs) {
    std::optional<std::uint64_t> callee;
    for (const parse::Edge& e : b->succs())
      if ((e.type == EdgeType::Call || e.type == EdgeType::TailCall) &&
          e.target)
        callee = e.target;
    for (std::size_t i = 0; i < b->insns().size(); ++i) {
      const auto& insn = b->insns()[i].insn;
      defs |= insn.regs_written();
      const bool is_call = (insn.is_jal() || insn.is_jalr()) &&
                           !(insn.link_reg() == isa::zero);
      if (is_call && i + 1 == b->insns().size() && callee)
        if (const FuncSummary* s = lookup(*callee)) defs |= s->must_def;
    }
    return defs;
  };
  while (!work.empty()) {
    const Block* b = work.front();
    work.pop_front();
    const RegSet out = block_out(b, in.at(b));
    for (const parse::Edge& e : b->succs()) {
      if (!ref_intraproc(e.type)) continue;
      const Block* t = f.block_at(e.target);
      if (!t) continue;
      auto it = in.find(t);
      if (it == in.end()) {
        in[t] = out;
        work.push_back(t);
      } else if (!((it->second & out) == it->second)) {
        it->second = it->second & out;
        work.push_back(t);
      }
    }
  }
  bool any_exit = false;
  RegSet result = ~RegSet();
  for (const auto& [a, blk] : f.blocks()) {
    const Block* b = blk.get();
    if (!in.count(b)) continue;
    bool exits = false;
    for (const parse::Edge& e : b->succs())
      exits = exits || e.type == EdgeType::Return ||
              e.type == EdgeType::TailCall;
    if (!exits) continue;
    any_exit = true;
    result &= block_out(b, in.at(b));
  }
  return any_exit ? result : ~RegSet();
}

std::map<std::uint64_t, FuncSummary> ref_summaries(const CodeObject& co) {
  std::map<std::uint64_t, FuncSummary> out;
  const Lookup lookup = [&](std::uint64_t e) -> const FuncSummary* {
    auto it = out.find(e);
    return it == out.end() ? nullptr : &it->second;
  };
  const parse::CallGraph cg(co);
  for (std::uint64_t entry : cg.bottom_up_order()) {
    const Function* f = co.function_at(entry);
    if (!f || !f->entry_block()) continue;
    FuncSummary s;
    s.may_use = RefLiveness(*f, lookup, Liveness::ReturnBoundary::None)
                    .live_before(f->entry_block(), 0);
    s.must_def = ref_must_def(*f, lookup);
    s.must_def.remove(isa::zero);
    s.precise = f->stats().n_unresolved == 0 &&
                !cg.has_unknown_callees().count(entry);
    if (!s.precise) {
      s.may_use |= Liveness::call_uses();
      s.must_def = RegSet();
    }
    out[entry] = s;
  }
  return out;
}

// Every query of `live` against the reference at every instruction of `f`,
// plus queries on `foreign`, a block of another function.
void expect_same_liveness(const Function& f, const Liveness& live,
                          const RefLiveness& ref, const Block* foreign,
                          const std::string& ctx) {
  for (const auto& [a, blk] : f.blocks()) {
    const Block* b = blk.get();
    ASSERT_EQ(live.live_in(b).bits(), ref.live_in(b).bits()) << ctx;
    ASSERT_EQ(live.live_out(b).bits(), ref.live_out(b).bits()) << ctx;
    for (std::size_t i = 0; i <= b->insns().size(); ++i)
      ASSERT_EQ(live.live_before(b, i).bits(), ref.live_before(b, i).bits())
          << ctx << " block 0x" << std::hex << a << " index " << i;
    for (const parse::ParsedInsn& pi : b->insns()) {
      ASSERT_EQ(live.dead_at(pi.addr).bits(), ref.dead_at(pi.addr).bits())
          << ctx << " at 0x" << std::hex << pi.addr;
      ASSERT_EQ(live.dead_at(pi.addr + 1).bits(),
                ref.dead_at(pi.addr + 1).bits())
          << ctx;
    }
  }
  if (!foreign) return;
  ASSERT_EQ(live.live_in(foreign).bits(), ref.live_in(foreign).bits()) << ctx;
  ASSERT_EQ(live.live_out(foreign).bits(), ref.live_out(foreign).bits())
      << ctx;
  for (std::size_t i = 0; i <= foreign->insns().size(); ++i)
    ASSERT_EQ(live.live_before(foreign, i).bits(),
              ref.live_before(foreign, i).bits())
        << ctx << " foreign block, index " << i;
}

// The workload programs the dataflow oracles compare on.
std::vector<std::pair<std::string, std::string>> oracle_programs() {
  return {
      {"matmul", workloads::matmul_program(8, 1)},
      {"call_churn", workloads::call_churn_program(10)},
      {"fib", workloads::fib_program(6)},
      {"dispatch", workloads::dispatch_program(10)},
      {"many_function", workloads::many_function_program(150)},
      {"call_tree_chain", workloads::call_tree_program(200, 1)},
      {"call_tree_binary", workloads::call_tree_program(200, 2)},
      {"sort", workloads::sort_program(10)},
      {"fuzz_target", workloads::fuzz_target_program("RV!")},
  };
}

// The index-based solvers agree with the reference at every instruction of
// every workload program, under both return boundaries, with and without
// interprocedural summaries; and every function summary agrees too.
TEST(LivenessOracle, MatchesReferenceOnEveryWorkload) {
  for (const auto& [name, src] : oracle_programs()) {
    auto p = parse_src(src);
    const Summaries sums(*p.co);
    const auto ref_sums = ref_summaries(*p.co);
    std::size_t compared = 0;
    for (const auto& [entry, want] : ref_sums) {
      const FuncSummary* got = sums.lookup(entry);
      ASSERT_NE(got, nullptr) << name;
      EXPECT_EQ(got->may_use.bits(), want.may_use.bits()) << name;
      EXPECT_EQ(got->must_def.bits(), want.must_def.bits()) << name;
      EXPECT_EQ(got->precise, want.precise) << name;
      ++compared;
    }
    EXPECT_GT(compared, 0u) << name;

    const Lookup with_sums = [&](std::uint64_t e) { return sums.lookup(e); };
    const Block* prev_entry = nullptr;
    for (const auto& [entry, f] : p.co->functions()) {
      for (const auto rb :
           {Liveness::ReturnBoundary::Abi, Liveness::ReturnBoundary::None}) {
        const std::string ctx =
            name + ":" + f->name() +
            (rb == Liveness::ReturnBoundary::Abi ? " abi" : " none");
        expect_same_liveness(*f, Liveness(*f, nullptr, rb),
                             RefLiveness(*f, nullptr, rb), prev_entry, ctx);
        expect_same_liveness(*f, Liveness(*f, &sums, rb),
                             RefLiveness(*f, with_sums, rb), prev_entry,
                             ctx + " +summaries");
      }
      prev_entry = f->entry_block();
    }
  }
}

// ---- stack height ----

// Reference stack-height solver, written the straightforward way: a
// map-keyed worklist, every query re-applies the block's prefix, and the
// ra/fp-saved tests walk the dominator chain. `ra_saved_once_reached` is
// the oracle's seeded bug: it treats the ra save as executed anywhere in a
// reached block once the function has one.

struct RefAdjust {
  isa::Reg src;
  std::int64_t imm;
};
std::optional<RefAdjust> ref_adjust_src(const isa::Instruction& insn) {
  if (insn.mnemonic() == isa::Mnemonic::addi && insn.num_operands() == 3)
    return RefAdjust{insn.operand(1).reg, insn.operand(2).imm};
  if (insn.mnemonic() == isa::Mnemonic::add && insn.num_operands() == 3) {
    if (insn.operand(2).reg == isa::zero)
      return RefAdjust{insn.operand(1).reg, 0};
    if (insn.operand(1).reg == isa::zero)
      return RefAdjust{insn.operand(2).reg, 0};
  }
  return std::nullopt;
}

HeightState ref_apply(const isa::Instruction& insn, HeightState s) {
  const bool writes_sp = insn.regs_written().contains(isa::sp);
  const bool writes_fp = insn.regs_written().contains(isa::fp);
  if (!writes_sp && !writes_fp) return s;
  const auto adj = ref_adjust_src(insn);
  if (writes_sp) {
    if (adj && adj->src == isa::sp && s.sp)
      s.sp = *s.sp + adj->imm;
    else if (adj && adj->src == isa::fp && s.fp)
      s.sp = *s.fp + adj->imm;
    else
      s.sp = std::nullopt;
  }
  if (writes_fp) {
    s.fp_original = false;
    if (adj && adj->src == isa::sp && s.sp)
      s.fp = *s.sp + adj->imm;
    else if (adj && adj->src == isa::fp && s.fp)
      s.fp = *s.fp + adj->imm;
    else
      s.fp = std::nullopt;
  }
  return s;
}

HeightState ref_merge(const HeightState& a, const HeightState& b) {
  HeightState m;
  m.sp = (a.sp && b.sp && *a.sp == *b.sp) ? a.sp : std::nullopt;
  m.fp = (a.fp && b.fp && *a.fp == *b.fp) ? a.fp : std::nullopt;
  m.fp_original = a.fp_original && b.fp_original;
  return m;
}

class RefStackHeight {
 public:
  explicit RefStackHeight(const Function& f, bool ra_saved_once_reached = false)
      : func_(f), sabotage_(ra_saved_once_reached) {
    const Block* entry = f.entry_block();
    if (!entry) return;
    std::deque<const Block*> work{entry};
    in_[entry] = HeightState{0, std::nullopt, true};
    while (!work.empty()) {
      const Block* b = work.front();
      work.pop_front();
      HeightState s = in_.at(b);
      for (const auto& pi : b->insns()) s = ref_apply(pi.insn, s);
      out_[b] = s;
      for (const parse::Edge& e : b->succs()) {
        if (!ref_intraproc(e.type)) continue;
        const Block* t = f.block_at(e.target);
        if (!t) continue;
        auto it = in_.find(t);
        if (it == in_.end()) {
          in_[t] = s;
          work.push_back(t);
        } else {
          const HeightState m = ref_merge(it->second, s);
          if (!(m == it->second)) {
            it->second = m;
            work.push_back(t);
          }
        }
      }
    }
    for (const auto& [addr, blk] : f.blocks()) {
      const Block* b = blk.get();
      auto it = in_.find(b);
      if (it == in_.end()) continue;
      HeightState s = it->second;
      for (std::size_t i = 0; i < b->insns().size(); ++i) {
        const isa::Instruction& insn = b->insns()[i].insn;
        if (!frame_size_ && s.sp == dataflow::StackHeight(0) &&
            insn.mnemonic() == isa::Mnemonic::addi &&
            insn.num_operands() == 3 && insn.operand(0).reg == isa::sp &&
            insn.operand(1).reg == isa::sp && insn.operand(2).imm < 0)
          frame_size_ = -insn.operand(2).imm;
        if (insn.mnemonic() == isa::Mnemonic::sd &&
            insn.num_operands() == 2 && insn.operand(1).reg == isa::sp &&
            s.sp.has_value()) {
          if (!ra_block_ && insn.operand(0).reg == isa::ra) {
            ra_slot_ = *s.sp + insn.operand(1).imm;
            ra_block_ = b;
            ra_index_ = i;
          }
          if (!fp_block_ && insn.operand(0).reg == isa::fp && s.fp_original) {
            fp_slot_ = *s.sp + insn.operand(1).imm;
            fp_block_ = b;
            fp_index_ = i;
          }
        }
        if (insn.regs_written().contains(isa::fp)) fp_clobbered_ = true;
        s = ref_apply(insn, s);
      }
    }
    if (ra_block_ || fp_block_) idom_ = parse::immediate_dominators(f);
  }

  HeightState state_before(const Block* b, std::size_t index) const {
    auto it = in_.find(b);
    if (it == in_.end()) return HeightState{};
    HeightState s = it->second;
    for (std::size_t i = 0; i < index && i < b->insns().size(); ++i)
      s = ref_apply(b->insns()[i].insn, s);
    return s;
  }
  dataflow::StackHeight height_in(const Block* b) const {
    auto it = in_.find(b);
    return it == in_.end() ? std::nullopt : it->second.sp;
  }
  dataflow::StackHeight height_out(const Block* b) const {
    auto it = out_.find(b);
    return it == out_.end() ? std::nullopt : it->second.sp;
  }
  bool ra_saved_at(const Block* b, std::size_t index) const {
    if (sabotage_) return ra_block_ && in_.count(b);
    return saved_at(ra_block_, ra_index_, b, index);
  }
  bool fp_saved_at(const Block* b, std::size_t index) const {
    return saved_at(fp_block_, fp_index_, b, index);
  }
  std::optional<std::int64_t> frame_size() const { return frame_size_; }
  std::optional<std::int64_t> ra_save_slot() const { return ra_slot_; }
  std::optional<std::int64_t> fp_save_slot() const { return fp_slot_; }
  bool fp_clobbered() const { return fp_clobbered_; }

  // The facts at the last instruction boundary at or below `pc` in the
  // block containing it, as the stack walker used to locate a frame.
  std::optional<dataflow::HeightPoint> point_at(std::uint64_t pc) const {
    const Block* b = func_.block_containing(pc);
    if (!b) return std::nullopt;
    std::size_t idx = 0;
    for (std::size_t i = 0; i < b->insns().size(); ++i)
      if (b->insns()[i].addr <= pc) idx = i;
    return dataflow::HeightPoint{state_before(b, idx), ra_saved_at(b, idx),
                                 fp_saved_at(b, idx)};
  }

 private:
  bool saved_at(const Block* save, std::size_t save_index, const Block* b,
                std::size_t index) const {
    if (!save) return false;
    if (b == save) return index > save_index;
    return parse::dominates(idom_, save->start(), b->start());
  }

  const Function& func_;
  bool sabotage_;
  std::map<const Block*, HeightState> in_, out_;
  std::optional<std::int64_t> ra_slot_, fp_slot_, frame_size_;
  const Block* ra_block_ = nullptr;
  const Block* fp_block_ = nullptr;
  std::size_t ra_index_ = 0, fp_index_ = 0;
  bool fp_clobbered_ = false;
  std::map<std::uint64_t, std::uint64_t> idom_;
};

bool same_point(const dataflow::HeightPoint& a,
                const dataflow::HeightPoint& b) {
  return a.state == b.state && a.ra_saved == b.ra_saved &&
         a.fp_saved == b.fp_saved;
}

// Every StackHeightAnalysis query against the reference: the function-wide
// facts, every (block, index) query at indices 0..size+1 of every block and
// of `foreign` (a block of another function, may be null), and the pc
// lookup at every byte of every block. Returns the number of mismatches and
// describes the first few in `log`; counts the comparisons in `compared`.
std::size_t stack_height_mismatches(const Function& f,
                                    const StackHeightAnalysis& sh,
                                    const RefStackHeight& ref,
                                    const Block* foreign, std::string& log,
                                    std::size_t& compared) {
  std::size_t bad = 0;
  const auto check = [&](bool same, const std::string& what) {
    ++compared;
    if (same) return;
    if (++bad <= 5) log += "\n  " + f.name() + ": " + what;
  };
  const auto hex = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  check(sh.frame_size() == ref.frame_size(), "frame_size");
  check(sh.ra_save_slot() == ref.ra_save_slot(), "ra_save_slot");
  check(sh.fp_save_slot() == ref.fp_save_slot(), "fp_save_slot");
  check(sh.fp_clobbered() == ref.fp_clobbered(), "fp_clobbered");

  std::vector<const Block*> blocks;
  for (const auto& [a, b] : f.blocks()) blocks.push_back(b.get());
  if (foreign) blocks.push_back(foreign);
  for (const Block* b : blocks) {
    const std::string at = "block " + hex(b->start());
    check(sh.height_in(b) == ref.height_in(b), at + " height_in");
    check(sh.height_out(b) == ref.height_out(b), at + " height_out");
    for (std::size_t i = 0; i <= b->insns().size() + 1; ++i) {
      const std::string where = at + " index " + std::to_string(i);
      const HeightState want = ref.state_before(b, i);
      check(sh.state_before(b, i) == want, where + " state_before");
      check(sh.height_before(b, i) == want.sp, where + " height_before");
      check(sh.fp_height_before(b, i) == want.fp, where + " fp_height_before");
      check(sh.fp_preserved_at(b, i) == want.fp_original,
            where + " fp_preserved_at");
      check(sh.ra_saved_at(b, i) == ref.ra_saved_at(b, i),
            where + " ra_saved_at");
      check(sh.fp_saved_at(b, i) == ref.fp_saved_at(b, i),
            where + " fp_saved_at");
    }
  }
  for (const auto& [a, b] : f.blocks()) {
    for (std::uint64_t pc = b->start(); pc <= b->end(); ++pc) {
      const dataflow::HeightPoint* got = sh.point_at(pc);
      const auto want = ref.point_at(pc);
      check(got ? want && same_point(*got, *want) : !want,
            "point_at " + hex(pc));
    }
  }
  return bad;
}

// Frame shapes the workload programs lack: an fp-relative epilogue over a
// variable-size alloca, a caller-fp spill then clobber, a spill on one arm
// of a branch only, and a loop back to the entry block.
constexpr const char* kStackShapes = R"(
    .globl _start
    .globl alloca_fn
    .globl clobber_fn
    .globl onearm_fn
    .globl loop_fn
_start:
    call alloca_fn
    call clobber_fn
    call onearm_fn
    call loop_fn
    li a7, 93
    ecall
alloca_fn:
    addi sp, sp, -64
    sd ra, 56(sp)
    sd s0, 48(sp)
    addi s0, sp, 64
    sub sp, sp, a0
    addi sp, s0, -64
    ld ra, 56(sp)
    ld s0, 48(sp)
    addi sp, sp, 64
    ret
clobber_fn:
    addi sp, sp, -32
    sd s0, 24(sp)
    li s0, 7
    ld s0, 24(sp)
    addi sp, sp, 32
    ret
onearm_fn:
    addi sp, sp, -16
    beqz a0, skip
    sd ra, 8(sp)
    sd s0, 0(sp)
    call clobber_fn
    ld ra, 8(sp)
    ld s0, 0(sp)
skip:
    addi sp, sp, 16
    ret
loop_fn:
    addi a0, a0, -1
    bnez a0, loop_fn
    ret
)";

// The flat analysis answers every query exactly as the reference solver
// does, on every function of every workload program plus kStackShapes.
TEST(StackHeightOracle, MatchesReferenceOnEveryWorkload) {
  auto programs = oracle_programs();
  programs.emplace_back("stack_shapes", kStackShapes);
  std::size_t compared = 0, ra_saves = 0, fp_saves = 0;
  for (const auto& [name, src] : programs) {
    auto p = parse_src(src);
    const Block* prev_entry = nullptr;
    for (const auto& [entry, f] : p.co->functions()) {
      const StackHeightAnalysis sh(*f);
      const RefStackHeight ref(*f);
      std::string log;
      EXPECT_EQ(stack_height_mismatches(*f, sh, ref, prev_entry, log,
                                        compared),
                0u)
          << name << log;
      ra_saves += ref.ra_save_slot().has_value();
      fp_saves += ref.fp_save_slot().has_value();
      prev_entry = f->entry_block();
    }
  }
  EXPECT_GT(compared, 10000u);
  EXPECT_GT(ra_saves, 0u);
  EXPECT_GT(fp_saves, 0u);
}

// Sabotage meta-test: the same comparison against a reference with a
// seeded bug (ra saved anywhere once reached) must report mismatches.
TEST(StackHeightOracle, SabotagedReferenceIsCaught) {
  std::size_t compared = 0, bad = 0;
  for (const auto& [name, src] : oracle_programs()) {
    auto p = parse_src(src);
    for (const auto& [entry, f] : p.co->functions()) {
      std::string log;
      bad += stack_height_mismatches(*f, StackHeightAnalysis(*f),
                                     RefStackHeight(*f, true), nullptr, log,
                                     compared);
    }
  }
  EXPECT_GT(bad, 0u);
}

TEST(StackHeight, StandardPrologueEpilogue) {
  auto p = parse_src(R"(
    .globl f
f:
    addi sp, sp, -32
    sd ra, 24(sp)
    nop
    ld ra, 24(sp)
    addi sp, sp, 32
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  const Block* b = f->entry_block();
  EXPECT_EQ(sh.height_before(b, 0), 0);
  EXPECT_EQ(sh.height_before(b, 1), -32);
  EXPECT_EQ(sh.height_before(b, 5), 0);  // after the sp restore
  EXPECT_EQ(sh.frame_size(), 32);
  ASSERT_TRUE(sh.ra_save_slot().has_value());
  EXPECT_EQ(*sh.ra_save_slot(), -32 + 24);  // relative to entry sp
}

TEST(StackHeight, LeafFunctionHasNoFrame) {
  auto p = parse_src(".globl f\nf:\n add a0, a0, a1\n ret\n");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  EXPECT_EQ(sh.frame_size(), std::nullopt);
  EXPECT_EQ(sh.ra_save_slot(), std::nullopt);
  EXPECT_EQ(sh.height_out(f->entry_block()), 0);
}

TEST(StackHeight, NonConstantSpGoesUnknown) {
  auto p = parse_src(R"(
    .globl f
f:
    sub sp, sp, a0
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  EXPECT_EQ(sh.height_out(f->entry_block()), std::nullopt);
}

TEST(StackHeight, ConsistentAcrossBranches) {
  auto p = parse_src(R"(
    .globl f
f:
    addi sp, sp, -16
    beqz a0, l
    nop
l:
    addi sp, sp, 16
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  const auto* sym = p.st.find_symbol("l");
  ASSERT_NE(sym, nullptr);
  const Block* join = f->block_at(sym->value);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(sh.height_in(join), -16);
}

// Regression (found by the shadow-stack oracle): the frame-pointer epilogue
// `addi sp, s0, imm` used to demote the height to unknown even when fp
// provenance was known, so a stop between the sp restore and the `ret` lost
// the walk. With fp tracked, the height stays known through the epilogue.
TEST(StackHeight, FpEpilogueKeepsHeightKnown) {
  auto p = parse_src(R"(
    .globl f
f:
    addi sp, sp, -64
    sd ra, 56(sp)
    sd s0, 48(sp)
    addi s0, sp, 64   # fp = entry sp
    li t0, 128
    sub sp, sp, t0    # variable-size alloca: sp height unknown here
    addi sp, s0, -64  # fp-relative restore back to the fixed frame
    ld ra, 56(sp)
    ld s0, 48(sp)
    addi sp, sp, 64
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  const Block* b = f->entry_block();
  EXPECT_EQ(sh.height_before(b, 4), -64);           // after the fp setup
  EXPECT_EQ(sh.height_before(b, 6), std::nullopt);  // inside the alloca
  // After `addi sp, s0, -64`: fp is entry_sp, so sp = entry_sp - 64.
  EXPECT_EQ(sh.height_before(b, 7), -64);
  EXPECT_EQ(sh.height_out(b), 0);  // the whole epilogue resolves
  ASSERT_TRUE(sh.fp_save_slot().has_value());
  EXPECT_EQ(*sh.fp_save_slot(), -64 + 48);
  EXPECT_TRUE(sh.fp_saved_at(b, 4));
  EXPECT_FALSE(sh.fp_saved_at(b, 2));  // before the sd s0
}

// Pinning: without fp provenance (s0 never set up from sp), the fp-relative
// restore must still go unknown — guessing here would corrupt walks.
TEST(StackHeight, FpEpilogueWithoutProvenanceStaysUnknown) {
  auto p = parse_src(R"(
    .globl f
f:
    addi sp, sp, -32
    addi sp, s0, -32  # s0's relation to sp was never established
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  const Block* b = f->entry_block();
  EXPECT_EQ(sh.height_before(b, 1), -32);
  EXPECT_EQ(sh.height_before(b, 2), std::nullopt);
  EXPECT_EQ(sh.height_out(b), std::nullopt);
}

TEST(StackHeight, FpClobberTracking) {
  auto p = parse_src(R"(
    .globl f
f:
    addi sp, sp, -32
    sd s0, 24(sp)
    li s0, 7          # clobbers fp after the spill
    ld s0, 24(sp)
    addi sp, sp, 32
    ret
)");
  Function* f = p.co->function_named("f");
  StackHeightAnalysis sh(*f);
  const Block* b = f->entry_block();
  EXPECT_TRUE(sh.fp_clobbered());
  EXPECT_TRUE(sh.fp_preserved_at(b, 2));   // before the li
  EXPECT_FALSE(sh.fp_preserved_at(b, 3));  // after it
  ASSERT_TRUE(sh.fp_save_slot().has_value());
  EXPECT_EQ(*sh.fp_save_slot(), -32 + 24);
}

// ---- slicing ----

TEST(Slicing, BackwardSliceFollowsDataflow) {
  auto p = parse_src(R"(
    .globl f
f:
    li t0, 1       # A
    li t1, 2       # B   (independent of the slice)
    add t2, t0, t0 # C
    add a0, t2, a1 # D
    ret
)");
  Function* f = p.co->function_named("f");
  Slicer slicer(*f);
  const auto& insns = f->entry_block()->insns();
  const std::uint64_t A = insns[0].addr, B = insns[1].addr,
                      C = insns[2].addr, D = insns[3].addr;
  const auto slice = slicer.backward_slice(D);
  EXPECT_TRUE(slice.count(D));
  EXPECT_TRUE(slice.count(C));
  EXPECT_TRUE(slice.count(A));
  EXPECT_FALSE(slice.count(B));
}

TEST(Slicing, ForwardSliceFindsAffected) {
  auto p = parse_src(R"(
    .globl f
f:
    li t0, 1       # A
    add t1, t0, t0 # B: affected by A
    li t2, 9       # C: unaffected
    add a0, t1, t2 # D: affected via B
    ret
)");
  Function* f = p.co->function_named("f");
  Slicer slicer(*f);
  const auto& insns = f->entry_block()->insns();
  const auto slice = slicer.forward_slice(insns[0].addr);
  EXPECT_TRUE(slice.count(insns[1].addr));
  EXPECT_TRUE(slice.count(insns[3].addr));
  EXPECT_FALSE(slice.count(insns[2].addr));
}

TEST(Slicing, ReachingDefsAcrossBranches) {
  auto p = parse_src(R"(
    .globl f
f:
    beqz a0, other
    li t0, 1       # def 1
    j join
other:
    li t0, 2       # def 2
join:
    add a0, t0, t0 # both defs reach
    ret
)");
  Function* f = p.co->function_named("f");
  Slicer slicer(*f);
  const auto* sym = p.st.find_symbol("join");
  ASSERT_NE(sym, nullptr);
  const Block* join = f->block_at(sym->value);
  ASSERT_NE(join, nullptr);
  const auto defs = slicer.reaching_defs(join->insns()[0].addr, isa::t0);
  EXPECT_EQ(defs.size(), 2u);
}

TEST(Slicing, SliceThroughLoop) {
  auto p = parse_src(R"(
    .globl f
f:
    li t0, 0
    li t1, 10
loop:
    addi t0, t0, 1   # self-dependent accumulator
    bne t0, t1, loop
    mv a0, t0
    ret
)");
  Function* f = p.co->function_named("f");
  Slicer slicer(*f);
  // The accumulator's backward slice includes its own increment (loop
  // carried) and the init.
  const auto* sym = p.st.find_symbol("loop");
  ASSERT_NE(sym, nullptr);
  const Block* loop = f->block_at(sym->value);
  const std::uint64_t inc = loop->insns()[0].addr;
  const auto slice = slicer.backward_slice(inc);
  EXPECT_TRUE(slice.count(inc));
  EXPECT_TRUE(slice.count(f->entry_block()->insns()[0].addr));
  EXPECT_GT(slicer.num_edges(), 4u);
}

}  // namespace
