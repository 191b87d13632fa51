// Threaded-code backend: each compiled block is an array of pre-decoded
// continuation ops (function pointer + JitState byte offsets + immediate),
// executed by tail-dispatch — every handler returns the next op. This is
// the portable fallback for hosts where the x64 template backend can't run
// (non-x86 ISAs, or W^X policies that refuse an RWX arena).
#include "emu/jit/backend.hpp"

#if RVDYN_JIT_ENABLED

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bits.hpp"

#include "emu/jit/jit_ir.hpp"
#include "emu/machine.hpp"
#include "isa/op_program.hpp"

namespace rvdyn::emu::jit {
namespace {

using isa::Mnemonic;

struct TOp;
using TOpFn = const TOp* (*)(const TOp*, JitState&);

struct TOp {
  TOpFn fn = nullptr;
  std::uint16_t a = 0, b = 0, c = 0;  ///< JitState byte offsets
  std::int64_t imm = 0;
  const void* aux = nullptr;  ///< generic op: the decoded Instruction
};

inline std::uint64_t& R(JitState& st, unsigned off) {
  return *reinterpret_cast<std::uint64_t*>(reinterpret_cast<char*>(&st) +
                                           off);
}

constexpr unsigned x_off(unsigned r) {
  return static_cast<unsigned>(offsetof(JitState, x)) + 8 * r;
}
constexpr unsigned f_off(unsigned r) {
  return static_cast<unsigned>(offsetof(JitState, f)) + 8 * r;
}
constexpr unsigned sink_off() {
  return static_cast<unsigned>(offsetof(JitState, sink));
}
/// Write offset for integer rd: x0 writes land in the sink so x[0] == 0
/// stays invariant.
constexpr unsigned xw(unsigned r) { return r == 0 ? sink_off() : x_off(r); }

inline double D(std::uint64_t v) { return std::bit_cast<double>(v); }
inline std::uint64_t DU(double d) { return std::bit_cast<std::uint64_t>(d); }

// ---- handlers ----------------------------------------------------------

const TOp* t_end(const TOp*, JitState&) { return nullptr; }

const TOp* t_li(const TOp* op, JitState& st) {
  R(st, op->a) = static_cast<std::uint64_t>(op->imm);
  return op + 1;
}
const TOp* t_mv64(const TOp* op, JitState& st) {  // fmv.d.x / fmv.x.d
  R(st, op->a) = R(st, op->b);
  return op + 1;
}

#define BINOP(name, expr)                                  \
  const TOp* name(const TOp* op, JitState& st) {           \
    const std::uint64_t x = R(st, op->b);                  \
    const std::uint64_t y = R(st, op->c);                  \
    (void)x; (void)y;                                      \
    R(st, op->a) = (expr);                                 \
    return op + 1;                                         \
  }
#define IMMOP(name, expr)                                  \
  const TOp* name(const TOp* op, JitState& st) {           \
    const std::uint64_t x = R(st, op->b);                  \
    const std::uint64_t y = static_cast<std::uint64_t>(op->imm); \
    (void)x; (void)y;                                      \
    R(st, op->a) = (expr);                                 \
    return op + 1;                                         \
  }

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using u32 = std::uint32_t;

IMMOP(t_addi, x + y)
IMMOP(t_andi, x & y)
IMMOP(t_ori, x | y)
IMMOP(t_xori, x ^ y)
IMMOP(t_slti, static_cast<i64>(x) < static_cast<i64>(y) ? 1 : 0)
IMMOP(t_sltiu, x < y ? 1 : 0)
IMMOP(t_slli, x << (y & 63))
IMMOP(t_srli, x >> (y & 63))
IMMOP(t_srai, static_cast<u64>(static_cast<i64>(x) >> (y & 63)))
IMMOP(t_addiw, static_cast<u64>(static_cast<i64>(static_cast<i32>(x + y))))
IMMOP(t_slliw, static_cast<u64>(static_cast<i64>(
                   static_cast<i32>(static_cast<u32>(x) << (y & 31)))))
IMMOP(t_srliw, static_cast<u64>(static_cast<i64>(
                   static_cast<i32>(static_cast<u32>(x) >> (y & 31)))))
IMMOP(t_sraiw,
      static_cast<u64>(static_cast<i64>(static_cast<i32>(x) >> (y & 31))))

BINOP(t_add, x + y)
BINOP(t_sub, x - y)
BINOP(t_and, x & y)
BINOP(t_or, x | y)
BINOP(t_xor, x ^ y)
BINOP(t_slt, static_cast<i64>(x) < static_cast<i64>(y) ? 1 : 0)
BINOP(t_sltu, x < y ? 1 : 0)
BINOP(t_sll, x << (y & 63))
BINOP(t_srl, x >> (y & 63))
BINOP(t_sra, static_cast<u64>(static_cast<i64>(x) >> (y & 63)))
BINOP(t_addw, static_cast<u64>(static_cast<i64>(static_cast<i32>(x + y))))
BINOP(t_subw, static_cast<u64>(static_cast<i64>(static_cast<i32>(x - y))))
BINOP(t_sllw, static_cast<u64>(static_cast<i64>(
                  static_cast<i32>(static_cast<u32>(x) << (y & 31)))))
BINOP(t_srlw, static_cast<u64>(static_cast<i64>(
                  static_cast<i32>(static_cast<u32>(x) >> (y & 31)))))
BINOP(t_sraw,
      static_cast<u64>(static_cast<i64>(static_cast<i32>(x) >> (y & 31))))
BINOP(t_mul, x * y)
BINOP(t_mulw, static_cast<u64>(static_cast<i64>(static_cast<i32>(x * y))))

BINOP(t_fadd_d, DU(D(x) + D(y)))
BINOP(t_fsub_d, DU(D(x) - D(y)))
BINOP(t_fmul_d, DU(D(x) * D(y)))
BINOP(t_fdiv_d, DU(D(x) / D(y)))

#undef BINOP
#undef IMMOP

// Loads: b = base reg offset, imm = displacement, a = destination offset.
template <unsigned Size, bool Sign, bool Box>
const TOp* t_load(const TOp* op, JitState& st) {
  const u64 addr = R(st, op->b) + static_cast<u64>(op->imm);
  u64 v;
  if (std::uint8_t* h = tlb_lookup(st, addr, Size)) {
    v = 0;
    std::memcpy(&v, h, Size);
    if constexpr (Sign) v = static_cast<u64>(sext(v, 8 * Size));
  } else {
    v = rvdyn_jit_load(&st, addr, Size | (Sign ? 0x100 : 0));
  }
  if constexpr (Box) v |= 0xffffffff00000000ULL;  // flw NaN-boxing
  R(st, op->a) = v;
  return op + 1;
}

// Stores: a = value reg offset, b = base reg offset, imm = displacement.
template <unsigned Size>
const TOp* t_store(const TOp* op, JitState& st) {
  const u64 addr = R(st, op->b) + static_cast<u64>(op->imm);
  const u64 v = R(st, op->a);
  if (std::uint8_t* h = tlb_lookup_w(st, addr, Size)) std::memcpy(h, &v, Size);
  else rvdyn_jit_store(&st, addr, v, Size);
  return op + 1;
}

const TOp* t_generic(const TOp* op, JitState& st) {
  rvdyn_jit_value(&st, op->aux, static_cast<u64>(op->imm));
  return op + 1;
}

/// Deliberately-wrong template for the lockstep oracle's meta-test.
const TOp* t_sabotage(const TOp* op, JitState& st) {
  R(st, op->a) ^= 1;
  return op + 1;
}

// ---- block compilation -------------------------------------------------

struct TBlock {
  BlockIR ir;
  std::vector<TOp> ops;
  TBlock* chain_taken = nullptr;
  TBlock* chain_fall = nullptr;
};

TOp lower(const isa::Instruction& insn, std::uint64_t pc) {
  const isa::OperandProgram p = isa::operand_program(insn);
  TOp op;
  const auto rr = [&](unsigned i) {
    return p.src_fp[i] ? f_off(p.src[i]) : x_off(p.src[i]);
  };
  const auto rd = [&] { return p.rd_fp ? f_off(p.rd) : xw(p.rd); };
  const auto bin = [&](TOpFn fn) {
    op.fn = fn;
    op.a = rd();
    op.b = rr(0);
    op.c = p.n_src > 1 ? rr(1) : rr(0);
  };
  const auto immop = [&](TOpFn fn) {
    op.fn = fn;
    op.a = rd();
    op.b = rr(0);
    op.imm = p.imm;
  };
  const auto load = [&](TOpFn fn) {
    op.fn = fn;
    op.a = rd();
    op.b = x_off(p.mem_base);
    op.imm = p.mem_disp;
  };
  const auto store = [&](TOpFn fn) {
    op.fn = fn;
    op.a = rr(0);
    op.b = x_off(p.mem_base);
    op.imm = p.mem_disp;
  };

  switch (insn.mnemonic()) {
    case Mnemonic::lui:
      op.fn = t_li;
      op.a = xw(p.rd);
      op.imm = p.imm;
      break;
    case Mnemonic::auipc:
      op.fn = t_li;
      op.a = xw(p.rd);
      op.imm = static_cast<std::int64_t>(pc + static_cast<u64>(p.imm));
      break;
    case Mnemonic::addi: immop(t_addi); break;
    case Mnemonic::andi: immop(t_andi); break;
    case Mnemonic::ori: immop(t_ori); break;
    case Mnemonic::xori: immop(t_xori); break;
    case Mnemonic::slti: immop(t_slti); break;
    case Mnemonic::sltiu: immop(t_sltiu); break;
    case Mnemonic::slli: immop(t_slli); break;
    case Mnemonic::srli: immop(t_srli); break;
    case Mnemonic::srai: immop(t_srai); break;
    case Mnemonic::addiw: immop(t_addiw); break;
    case Mnemonic::slliw: immop(t_slliw); break;
    case Mnemonic::srliw: immop(t_srliw); break;
    case Mnemonic::sraiw: immop(t_sraiw); break;
    case Mnemonic::add: bin(t_add); break;
    case Mnemonic::sub: bin(t_sub); break;
    case Mnemonic::and_: bin(t_and); break;
    case Mnemonic::or_: bin(t_or); break;
    case Mnemonic::xor_: bin(t_xor); break;
    case Mnemonic::slt: bin(t_slt); break;
    case Mnemonic::sltu: bin(t_sltu); break;
    case Mnemonic::sll: bin(t_sll); break;
    case Mnemonic::srl: bin(t_srl); break;
    case Mnemonic::sra: bin(t_sra); break;
    case Mnemonic::addw: bin(t_addw); break;
    case Mnemonic::subw: bin(t_subw); break;
    case Mnemonic::sllw: bin(t_sllw); break;
    case Mnemonic::srlw: bin(t_srlw); break;
    case Mnemonic::sraw: bin(t_sraw); break;
    case Mnemonic::mul: bin(t_mul); break;
    case Mnemonic::mulw: bin(t_mulw); break;
    case Mnemonic::fadd_d: bin(t_fadd_d); break;
    case Mnemonic::fsub_d: bin(t_fsub_d); break;
    case Mnemonic::fmul_d: bin(t_fmul_d); break;
    case Mnemonic::fdiv_d: bin(t_fdiv_d); break;
    case Mnemonic::fmv_d_x:
    case Mnemonic::fmv_x_d:
      op.fn = t_mv64;
      op.a = rd();
      op.b = rr(0);
      break;
    case Mnemonic::lb: load(t_load<1, true, false>); break;
    case Mnemonic::lbu: load(t_load<1, false, false>); break;
    case Mnemonic::lh: load(t_load<2, true, false>); break;
    case Mnemonic::lhu: load(t_load<2, false, false>); break;
    case Mnemonic::lw: load(t_load<4, true, false>); break;
    case Mnemonic::lwu: load(t_load<4, false, false>); break;
    case Mnemonic::ld: load(t_load<8, false, false>); break;
    case Mnemonic::fld: load(t_load<8, false, false>); break;
    case Mnemonic::flw: load(t_load<4, false, true>); break;
    case Mnemonic::sb: store(t_store<1>); break;
    case Mnemonic::sh: store(t_store<2>); break;
    case Mnemonic::sw: store(t_store<4>); break;
    case Mnemonic::sd: store(t_store<8>); break;
    case Mnemonic::fsw: store(t_store<4>); break;
    case Mnemonic::fsd: store(t_store<8>); break;
    default:
      op.fn = t_generic;
      op.imm = static_cast<std::int64_t>(pc);
      // aux is bound by the caller once the block's IR storage is final
      break;
  }
  return op;
}

class ThreadedTier final : public Tier {
 public:
  explicit ThreadedTier(const Config& cfg) : Tier(cfg) {
    dispatch_tag_.fill(~0ULL);
    dispatch_.fill(nullptr);
  }

  const char* backend_name() const override { return "threaded"; }

 protected:
  bool emit_block(Machine&, const BlockIR& ir) override {
    auto blk = std::make_unique<TBlock>();
    blk->ir = ir;
    blk->ops.reserve(blk->ir.body.size() * 2 + 1);
    for (std::size_t i = 0; i < blk->ir.body.size(); ++i) {
      const isa::Instruction& insn = blk->ir.body[i];
      TOp op = lower(insn, blk->ir.body_pc[i]);
      if (op.fn == t_generic) op.aux = &blk->ir.body[i];
      blk->ops.push_back(op);
      if (insn.mnemonic() == cfg_.sabotage) {
        const isa::OperandProgram p = isa::operand_program(insn);
        if (p.has_rd && (p.rd_fp || p.rd != 0))
          blk->ops.push_back({t_sabotage,
                              static_cast<std::uint16_t>(
                                  p.rd_fp ? f_off(p.rd) : x_off(p.rd)),
                              0, 0, 0, nullptr});
      }
    }
    blk->ops.push_back({t_end, 0, 0, 0, 0, nullptr});
    blocks_[ir.start] = std::move(blk);
    return true;
  }

  bool has_block(std::uint64_t pc) const override {
    return blocks_.count(pc) != 0;
  }

  void run_session(Machine& m) override {
    JitState& st = Runtime::state(m);
    const bool prof = Runtime::profiling(m);
    TBlock* blk = find(st.pc);
    for (;;) {
      const BlockIR& ir = blk->ir;
      if (st.budget < ir.n_retired) {
        st.exit_kind = kExitBudget;
        st.pc = ir.start;
        return;
      }
      st.budget -= ir.n_retired;
      ++st.blocks_entered;
      const TOp* op = blk->ops.data();
      while (op) op = op->fn(op, st);

      std::uint64_t target;
      TBlock** chain;
      switch (ir.term) {
        case TermKind::Interp:
          st.instret += ir.n_retired;
          st.cycles += ir.cost_fall;
          if (prof) Runtime::profile_block(m, ir, false);
          st.pc = ir.fall_target;
          st.exit_kind = kExitInterp;
          return;
        case TermKind::CondBranch: {
          const bool taken = branch_takes(ir.term_insn.mnemonic(),
                                          st.x[ir.br_rs1], st.x[ir.br_rs2]);
          st.instret += ir.n_retired;
          st.cycles += taken ? ir.cost_taken : ir.cost_fall;
          if (prof) Runtime::profile_block(m, ir, taken);
          target = taken ? ir.taken_target : ir.fall_target;
          chain = taken ? &blk->chain_taken : &blk->chain_fall;
          break;
        }
        case TermKind::Jal:
          if (ir.link_rd) st.x[ir.link_rd] = ir.link_value;
          st.instret += ir.n_retired;
          st.cycles += ir.cost_taken;
          if (prof) Runtime::profile_block(m, ir, true);
          target = ir.taken_target;
          chain = &blk->chain_taken;
          break;
        case TermKind::Jalr: {
          target = (st.x[ir.jalr_rs1] + static_cast<std::uint64_t>(
                                            ir.jalr_imm)) &
                   ~1ULL;
          if (ir.link_rd) st.x[ir.link_rd] = ir.link_value;
          st.instret += ir.n_retired;
          st.cycles += ir.cost_taken;
          if (prof) Runtime::profile_block(m, ir, true);
          const unsigned idx = (target >> 1) & (kDispatchEntries - 1);
          TBlock* next;
          if (dispatch_tag_[idx] == target) {
            next = dispatch_[idx];
            ++st.dispatch_hits;
          } else {
            next = find(target);
            if (next) {
              dispatch_tag_[idx] = target;
              dispatch_[idx] = next;
              ++stats_.dispatch_entries;
            }
          }
          if (next) {
            blk = next;
            continue;
          }
          st.pc = target;
          st.exit_kind = kExitDispatch;
          return;
        }
        default: return;  // unreachable
      }
      TBlock* next = *chain;
      if (!next) {
        next = find(target);
        if (next) {
          *chain = next;
          ++stats_.chains_installed;
        }
      }
      if (next) {
        blk = next;
        continue;
      }
      st.pc = target;
      st.exit_kind = kExitEdge;
      return;
    }
  }

  std::uint64_t drop_range(std::uint64_t lo, std::uint64_t hi) override {
    // Keep dropped blocks alive until the unchain sweep is done so the
    // pointer comparisons below stay well-defined.
    std::vector<std::unique_ptr<TBlock>> dead_list;
    std::unordered_set<const TBlock*> dead;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      const BlockIR& ir = it->second->ir;
      if (ir.start < hi && ir.end > lo) {
        dead.insert(it->second.get());
        dead_list.push_back(std::move(it->second));
        it = blocks_.erase(it);
      } else {
        ++it;
      }
    }
    if (dead.empty()) return 0;
    for (auto& [pc, b] : blocks_) {
      if (b->chain_taken && dead.count(b->chain_taken)) {
        b->chain_taken = nullptr;
        ++stats_.chains_broken;
      }
      if (b->chain_fall && dead.count(b->chain_fall)) {
        b->chain_fall = nullptr;
        ++stats_.chains_broken;
      }
    }
    for (std::size_t i = 0; i < dispatch_.size(); ++i) {
      if (dispatch_[i] && dead.count(dispatch_[i])) {
        dispatch_[i] = nullptr;
        dispatch_tag_[i] = ~0ULL;
      }
    }
    return dead.size();
  }

  std::uint64_t drop_all() override {
    const std::uint64_t n = blocks_.size();
    blocks_.clear();
    dispatch_tag_.fill(~0ULL);
    dispatch_.fill(nullptr);
    return n;
  }

 private:
  TBlock* find(std::uint64_t pc) {
    const auto it = blocks_.find(pc);
    return it == blocks_.end() ? nullptr : it->second.get();
  }

  static constexpr std::size_t kDispatchEntries = 4096;
  std::unordered_map<std::uint64_t, std::unique_ptr<TBlock>> blocks_;
  std::array<std::uint64_t, kDispatchEntries> dispatch_tag_;
  std::array<TBlock*, kDispatchEntries> dispatch_;
};

}  // namespace

std::unique_ptr<Tier> make_threaded_tier(const Config& cfg) {
  return std::make_unique<ThreadedTier>(cfg);
}

}  // namespace rvdyn::emu::jit

#endif  // RVDYN_JIT_ENABLED
