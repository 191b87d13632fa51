// x86-64 copy-and-patch backend: per-mnemonic host-code templates stamped
// into an RWX mmap arena, with the guest register file (JitState) pinned to
// rbx. Operand slots are patched as [rbx+disp32] offsets; loads/stores hit
// an inline software TLB (tag compare + page-edge bounds check) and fall to
// C helpers on miss; direct edges end in a patchable `jmp rel32` so resolved
// targets chain block-to-block without leaving native code; jalr targets go
// through an inline direct-mapped dispatch table.
//
// Two compile-time specialisations keep hot FP loops and woven counters in
// native code. The .d FMA forms become one VEX `vfmadd213sd` when the host
// has FMA3 and AVX2 (exactly when glibc's `fma`, which the interpreter
// calls, runs that same instruction). And a load or store whose base
// register holds a value known inside the block (x0, or what lui, auipc,
// addi and addiw derive from known values) probes a TLB slot fixed at
// compile time against an imm32 page number.
//
// Register budget: rbx = JitState (callee-saved, saved by the entry thunk);
// rax/rcx/rdx/rsi/rdi and xmm0-xmm2 are scratch. Emitted calls keep the SysV
// 16-byte stack alignment (the thunk's one push re-aligns after `call`).
#include "emu/jit/backend.hpp"

#if RVDYN_JIT_ENABLED && defined(__x86_64__) && defined(__linux__)

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "emu/jit/jit_ir.hpp"
#include "emu/machine.hpp"
#include "isa/op_program.hpp"

namespace rvdyn::emu::jit {
namespace {

using isa::Mnemonic;

enum Reg : unsigned { RAX = 0, RCX = 1, RDX = 2, RSI = 6, RDI = 7 };

constexpr std::int32_t x_disp(unsigned r) {
  return static_cast<std::int32_t>(offsetof(JitState, x) + 8 * r);
}
constexpr std::int32_t f_disp(unsigned r) {
  return static_cast<std::int32_t>(offsetof(JitState, f) + 8 * r);
}
constexpr std::int32_t xw_disp(unsigned r) {
  return r == 0 ? static_cast<std::int32_t>(offsetof(JitState, sink))
                : x_disp(r);
}
constexpr std::int32_t kPcD = offsetof(JitState, pc);
constexpr std::int32_t kInstretD = offsetof(JitState, instret);
constexpr std::int32_t kCyclesD = offsetof(JitState, cycles);
constexpr std::int32_t kBudgetD = offsetof(JitState, budget);
constexpr std::int32_t kEnteredD = offsetof(JitState, blocks_entered);
constexpr std::int32_t kDispHitsD = offsetof(JitState, dispatch_hits);
constexpr std::int32_t kExitKindD = offsetof(JitState, exit_kind);
constexpr std::int32_t kExitEdgeD = offsetof(JitState, exit_edge);
constexpr std::int32_t kTlbTagD = offsetof(JitState, tlb_tag);
constexpr std::int32_t kTlbHostD = offsetof(JitState, tlb_host);
constexpr std::int32_t kTlbWTagD = offsetof(JitState, tlb_wtag);
constexpr std::int32_t kTlbWHostD = offsetof(JitState, tlb_whost);

/// Assembler over a byte buffer with local-label and epilogue fixups.
struct Asm {
  std::vector<std::uint8_t> b;
  std::vector<std::size_t> epi;  ///< rel32 sites that jump to the epilogue

  void u8_(unsigned v) { b.push_back(static_cast<std::uint8_t>(v)); }
  void u32_(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8_((v >> (8 * i)) & 0xff);
  }
  void u64_(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8_((v >> (8 * i)) & 0xff);
  }
  std::size_t pos() const { return b.size(); }

  // [rbx + disp32] modrm for `reg`.
  void mrb(unsigned reg, std::int32_t d) {
    u8_(0x83 | (reg << 3));
    u32_(static_cast<std::uint32_t>(d));
  }
  // [rbx + rdx*8 + disp32] (TLB arrays).
  void mrb_rdx8(unsigned reg, std::int32_t d) {
    u8_(0x84 | (reg << 3));
    u8_(0xD3);
    u32_(static_cast<std::uint32_t>(d));
  }
  // [rdx + rsi] (host page + offset).
  void mrdx_rsi(unsigned reg) {
    u8_(0x04 | (reg << 3));
    u8_(0x32);
  }
  // [rdx + disp32] (host page + offset known at compile time).
  void mrdx_d(unsigned reg, std::int32_t d) {
    u8_(0x82 | (reg << 3));
    u32_(static_cast<std::uint32_t>(d));
  }

  void ld(unsigned r, std::int32_t d) { u8_(0x48); u8_(0x8B); mrb(r, d); }
  void st(unsigned r, std::int32_t d) { u8_(0x48); u8_(0x89); mrb(r, d); }
  void ld32(unsigned r, std::int32_t d) { u8_(0x8B); mrb(r, d); }
  /// 64-bit `op reg, [rbx+d]`: 0x03 add, 0x2B sub, 0x23 and, 0x0B or,
  /// 0x33 xor, 0x3B cmp.
  void alu(std::uint8_t op, unsigned r, std::int32_t d) {
    u8_(0x48); u8_(op); mrb(r, d);
  }
  void alu32(std::uint8_t op, unsigned r, std::int32_t d) {
    u8_(op); mrb(r, d);
  }
  void mov_ri64(unsigned r, std::uint64_t v) {
    u8_(0x48); u8_(0xB8 + r); u64_(v);
  }
  void mov_ri32(unsigned r, std::uint32_t v) { u8_(0xB8 + r); u32_(v); }
  /// `op rax, imm32` short forms: 0x05 add, 0x2D sub, 0x25 and, 0x0D or,
  /// 0x35 xor, 0x3D cmp.
  void alui_rax(std::uint8_t op, std::int32_t v) {
    u8_(0x48); u8_(op); u32_(static_cast<std::uint32_t>(v));
  }
  void alui_eax(std::uint8_t op, std::int32_t v) {
    u8_(op); u32_(static_cast<std::uint32_t>(v));
  }
  /// shift sub-opcodes: 4 shl, 5 shr, 7 sar.
  void shift_i(unsigned sub, unsigned count, bool w64) {
    if (w64) u8_(0x48);
    u8_(0xC1); u8_(0xC0 | (sub << 3)); u8_(count & 63);
  }
  void shift_cl(unsigned sub, bool w64) {
    if (w64) u8_(0x48);
    u8_(0xD3); u8_(0xC0 | (sub << 3));
  }
  void cdqe() { u8_(0x48); u8_(0x98); }
  /// setcc al; movzx eax, al. cc: 0x2 b, 0xC l.
  void setcc(unsigned cc) {
    u8_(0x0F); u8_(0x90 + cc); u8_(0xC0);
    u8_(0x0F); u8_(0xB6); u8_(0xC0);
  }
  void add_mem_i32(std::int32_t d, std::int32_t v) {  // add qword [rbx+d],imm
    u8_(0x48); u8_(0x81); mrb(0, d); u32_(static_cast<std::uint32_t>(v));
  }
  void inc_mem(std::int32_t d) { u8_(0x48); u8_(0xFF); mrb(0, d); }
  void mov_mem_i32(std::int32_t d, std::uint32_t v) {  // mov dword [rbx+d],imm
    u8_(0xC7); mrb(0, d); u32_(v);
  }
  void xor_mem_i8(std::int32_t d, unsigned v) {  // xor qword [rbx+d], imm8
    u8_(0x48); u8_(0x83); mrb(6, d); u8_(v);
  }
  void call_rax() { u8_(0xFF); u8_(0xD0); }

  /// jcc rel32; returns fixup site. cc: 0x2 b, 0x3 ae, 0x4 e, 0x5 ne,
  /// 0x7 a, 0xC l, 0xD ge.
  std::size_t jcc(unsigned cc) {
    u8_(0x0F); u8_(0x80 + cc); u32_(0);
    return pos() - 4;
  }
  std::size_t jmp_() {
    u8_(0xE9); u32_(0);
    return pos() - 4;
  }
  void bind(std::size_t site) {
    const std::int32_t rel = static_cast<std::int32_t>(pos() - (site + 4));
    std::memcpy(&b[site], &rel, 4);
  }
  void jmp_epilogue() {
    u8_(0xE9);
    epi.push_back(pos());
    u32_(0);
  }
  void call_abs(std::uint64_t fn) { mov_ri64(RAX, fn); call_rax(); }

  // movsd xmm`x` ops against [rbx+d]: 0x10 load, 0x11 store, 0x58 add,
  // 0x5C sub, 0x59 mul, 0x5E div.
  void sse_d(std::uint8_t op, std::int32_t d, unsigned x = 0) {
    u8_(0xF2); u8_(0x0F); u8_(op); mrb(x, d);
  }
  void movq_xmm_rax(unsigned x) {
    u8_(0x66); u8_(0x48); u8_(0x0F); u8_(0x6E); u8_(0xC0 | (x << 3));
  }
  void btc_rax_63() { u8_(0x48); u8_(0x0F); u8_(0xBA); u8_(0xF8); u8_(63); }
  /// vfmadd213sd xmm0, xmm1, xmm2 (xmm0 = xmm1 * xmm0 + xmm2): the bytes
  /// glibc's FMA3 `fma(x, y, z)` runs with x, y, z in xmm0, xmm1, xmm2, so
  /// the same NaN wins when several inputs are NaN.
  void vfmadd213sd() {
    u8_(0xC4); u8_(0xE2); u8_(0xF1); u8_(0xA9); u8_(0xC2);
  }
};

/// Integer registers whose value is known at compile time inside one
/// block: x0, plus what lui, auipc, addi and addiw derive from known
/// values. Any other write to a register forgets it.
struct KnownRegs {
  std::uint32_t mask = 1;  ///< bit r set: v[r] holds x[r]
  std::uint64_t v[32] = {};

  bool get(unsigned r, std::uint64_t* out) const {
    if (!(mask >> r & 1)) return false;
    *out = v[r];
    return true;
  }
  void forget(unsigned r) { if (r) mask &= ~(1u << r); }

  /// Track the effect of `insn` (at `pc`) on the integer registers. The
  /// derived values are computed exactly as the templates compute them.
  void step(const isa::Instruction& insn, std::uint64_t pc) {
    const isa::OperandProgram p = isa::operand_program(insn);
    const auto imm32 = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(p.imm)));
    std::uint64_t b = 0, val = 0;
    bool derived = false;
    switch (insn.mnemonic()) {
      case Mnemonic::lui: val = imm32; derived = true; break;
      case Mnemonic::auipc:
        val = pc + static_cast<std::uint64_t>(p.imm);
        derived = true;
        break;
      case Mnemonic::addi:
        derived = get(p.src[0], &b);
        val = b + imm32;
        break;
      case Mnemonic::addiw:
        derived = get(p.src[0], &b);
        val = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(b + imm32)));
        break;
      default:
        break;
    }
    for (unsigned i = 0; i < insn.num_operands(); ++i) {
      const isa::Operand& o = insn.operand(i);
      if (o.kind == isa::Operand::Kind::Reg && o.writes() &&
          o.reg.cls == isa::RegClass::Int)
        forget(o.reg.num);
    }
    if (derived && p.rd != 0) {
      mask |= 1u << p.rd;
      v[p.rd] = val;
    }
  }
};

/// Where a TLB probe left the host address of a hit, and the jumps it
/// took to the slow path. `fixed`: the guest address `addr` was known at
/// compile time, the hit is [rdx + page offset] and rax is not set;
/// otherwise rax = guest address and the hit is [rdx + rsi].
struct Probe {
  std::vector<std::size_t> to_slow;
  bool fixed = false;
  std::uint64_t addr = 0;

  void host_operand(Asm& a, unsigned reg) const {
    if (fixed) a.mrdx_d(reg, static_cast<std::int32_t>(addr & 4095));
    else a.mrdx_rsi(reg);
  }
  /// Slow-path prologue: bind the misses, rdi = JitState, rsi = address.
  void enter_slow(Asm& a) const {
    for (std::size_t s : to_slow) a.bind(s);
    a.u8_(0x48); a.u8_(0x89); a.u8_(0xDF);      // mov rdi, rbx
    if (fixed) a.mov_ri64(RSI, addr);
    else { a.u8_(0x48); a.u8_(0x89); a.u8_(0xC6); }  // mov rsi, rax
  }
};

struct XBlock {
  BlockIR ir;
  std::uint8_t* code = nullptr;
  std::size_t size = 0;
  struct Edge {
    std::uint32_t site = 0;  ///< offset of the patchable jmp's rel32
    std::uint32_t stub = 0;  ///< offset of the unresolved-target stub
    XBlock* chained = nullptr;
    bool used = false;
  };
  Edge edges[2];  ///< [0] taken, [1] fall
};

class X64Tier final : public Tier {
 public:
  explicit X64Tier(const Config& cfg)
      : Tier(cfg), fma_(x64_fma_available()) {
    for (DispEntry& e : disp_) e = {~0ULL, nullptr};
  }

  ~X64Tier() override {
    if (arena_) munmap(arena_, arena_size_);
  }

  bool init() {
    arena_size_ = cfg_.arena_bytes < (64u << 10) ? (64u << 10)
                                                 : cfg_.arena_bytes;
    void* p = mmap(nullptr, arena_size_, PROT_READ | PROT_WRITE | PROT_EXEC,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    arena_ = static_cast<std::uint8_t*>(p);
    // Fixed preamble: epilogue, then the entry thunk.
    static const std::uint8_t preamble[] = {
        0x5B, 0xC3,                    // epilogue: pop rbx; ret
        0x53, 0x48, 0x89, 0xFB,        // entry: push rbx; mov rbx, rdi
        0xFF, 0xE6,                    //        jmp rsi
    };
    std::memcpy(arena_, preamble, sizeof(preamble));
    epilogue_ = arena_;
    entry_ = reinterpret_cast<EntryFn>(
        reinterpret_cast<std::uintptr_t>(arena_ + 2));
    used_ = reset_mark_ = (sizeof(preamble) + 15) & ~std::size_t{15};
    return true;
  }

  const char* backend_name() const override { return "x64"; }

 protected:
  bool emit_block(Machine& m, const BlockIR& ir) override;

  bool has_block(std::uint64_t pc) const override {
    return blocks_.count(pc) != 0;
  }

  void run_session(Machine& m) override {
    JitState& st = Runtime::state(m);
    for (;;) {
      XBlock* blk = find(st.pc);
      entry_(&st, blk->code);
      if (st.exit_kind == kExitEdge) {
        XBlock* next = find(st.pc);
        if (!next) return;
        const EdgeRef& er = edge_refs_[st.exit_edge];
        XBlock::Edge& e = er.owner->edges[er.slot];
        patch_rel32(er.owner->code + e.site, next->code);
        e.chained = next;
        ++stats_.chains_installed;
        continue;
      }
      if (st.exit_kind == kExitDispatch) {
        XBlock* next = find(st.pc);
        if (!next) return;
        disp_[(st.pc >> 1) & (kDispEntries - 1)] = {st.pc, next->code};
        ++stats_.dispatch_entries;
        continue;
      }
      return;  // budget or interpreter handoff
    }
  }

  std::uint64_t drop_range(std::uint64_t lo, std::uint64_t hi) override {
    // Keep dropped blocks alive until the sweep finishes: the dispatch and
    // edge sweeps below still read their code pointers.
    std::vector<std::unique_ptr<XBlock>> dead_list;
    std::unordered_set<const XBlock*> dead;
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
    // Unchain survivors that jump into dropped code: point their edge sites
    // back at the original side-exit stubs.
    for (auto& [pc, b] : blocks_) {
      for (XBlock::Edge& e : b->edges) {
        if (e.used && e.chained && dead.count(e.chained)) {
          patch_rel32(b->code + e.site, b->code + e.stub);
          e.chained = nullptr;
          ++stats_.chains_broken;
        }
      }
    }
    for (DispEntry& e : disp_) {
      const auto it = e.code ? code_owner_.find(e.code) : code_owner_.end();
      if (it != code_owner_.end() && dead.count(it->second))
        e = {~0ULL, nullptr};
    }
    for (const auto& d : dead_list) code_owner_.erase(d->code);
    for (EdgeRef& er : edge_refs_) {
      if (er.owner && dead.count(er.owner)) er.owner = nullptr;
    }
    return dead.size();
  }

  std::uint64_t drop_all() override {
    const std::uint64_t n = blocks_.size();
    blocks_.clear();
    code_owner_.clear();
    edge_refs_.clear();
    for (DispEntry& e : disp_) e = {~0ULL, nullptr};
    used_ = reset_mark_;  // the whole arena is reusable again
    return n;
  }

 private:
  using EntryFn = void (*)(JitState*, const std::uint8_t*);

  struct DispEntry {
    std::uint64_t tag;
    const std::uint8_t* code;
  };
  struct EdgeRef {
    XBlock* owner;
    std::uint8_t slot;
  };

  XBlock* find(std::uint64_t pc) {
    const auto it = blocks_.find(pc);
    return it == blocks_.end() ? nullptr : it->second.get();
  }

  static void patch_rel32(std::uint8_t* site, const std::uint8_t* target) {
    // Same-thread store into code we are not currently executing:
    // architecturally safe on x86 (coherent icache, no remote threads).
    const std::int32_t rel =
        static_cast<std::int32_t>(target - (site + 4));
    std::memcpy(site, &rel, 4);
  }

  bool emit_insn(Asm& a, const isa::Instruction& insn, std::uint64_t pc);
  void emit_load(Asm& a, std::int32_t dst, unsigned base, std::int64_t disp,
                 unsigned size, bool sign, bool box);
  void emit_store(Asm& a, std::int32_t src, unsigned base, std::int64_t disp,
                  unsigned size);
  Probe emit_tlb_probe(Asm& a, unsigned base, std::int64_t disp,
                       unsigned size, bool write);
  void emit_fma(Asm& a, const isa::OperandProgram& p, bool neg_mul,
                bool neg_add);
  void emit_profile_call(Asm& a, const BlockIR* ir, bool taken);
  void emit_acct(Asm& a, std::uint32_t n, std::uint64_t cycles) {
    a.add_mem_i32(kInstretD, static_cast<std::int32_t>(n));
    a.add_mem_i32(kCyclesD, static_cast<std::int32_t>(cycles));
  }

  static constexpr std::size_t kDispEntries = 4096;

  std::uint8_t* arena_ = nullptr;
  std::size_t arena_size_ = 0;
  std::size_t used_ = 0;
  std::size_t reset_mark_ = 0;
  const std::uint8_t* epilogue_ = nullptr;
  EntryFn entry_ = nullptr;

  std::unordered_map<std::uint64_t, std::unique_ptr<XBlock>> blocks_;
  std::unordered_map<const std::uint8_t*, const XBlock*> code_owner_;
  std::vector<EdgeRef> edge_refs_;
  DispEntry disp_[kDispEntries];
  const bool fma_;    ///< host runs vfmadd213sd the way glibc's fma does
  KnownRegs known_;   ///< of the block being emitted
};

void X64Tier::emit_profile_call(Asm& a, const BlockIR* ir, bool taken) {
  a.u8_(0x48); a.u8_(0x89); a.u8_(0xDF);  // mov rdi, rbx
  a.mov_ri64(RSI, reinterpret_cast<std::uint64_t>(ir));
  a.mov_ri32(RDX, taken ? 1 : 0);
  a.call_abs(reinterpret_cast<std::uint64_t>(&rvdyn_jit_profile));
}

// On TLB hit leaves rdx = host page base and, unless the guest address is
// known at compile time, rax = guest address and rsi = page offset (see
// Probe). Stores probe the write TLB (filled only by the dirty-marking slow
// path), loads the read TLB.
Probe X64Tier::emit_tlb_probe(Asm& a, unsigned base, std::int64_t disp,
                              unsigned size, bool write) {
  const std::int32_t tag_d = write ? kTlbWTagD : kTlbTagD;
  const std::int32_t host_d = write ? kTlbWHostD : kTlbHostD;
  Probe probe;
  std::uint64_t b = 0;
  if (known_.get(base, &b)) {
    const std::uint64_t addr =
        b + static_cast<std::uint64_t>(static_cast<std::int32_t>(disp));
    const std::uint64_t page = addr >> 12;
    // The page number must fit a positive imm32 (so it can never match the
    // ~0 empty tag), and the access must stay inside the page.
    if (page <= 0x7fffffffULL && (addr & 4095) + size <= 4096) {
      const std::int32_t slot = 8 * static_cast<std::int32_t>(
                                        page & (kTlbEntries - 1));
      a.u8_(0x48); a.u8_(0x81); a.mrb(7, tag_d + slot);  // cmp tag[slot],
      a.u32_(static_cast<std::uint32_t>(page));          //     page
      probe.to_slow.push_back(a.jcc(0x5));               // jne slow
      a.ld(RDX, host_d + slot);                          // mov rdx, host[slot]
      probe.fixed = true;
      probe.addr = addr;
      return probe;
    }
  }
  a.ld(RAX, x_disp(base));
  if (disp) a.alui_rax(0x05, static_cast<std::int32_t>(disp));
  a.u8_(0x48); a.u8_(0x89); a.u8_(0xC1);              // mov rcx, rax
  a.u8_(0x48); a.u8_(0xC1); a.u8_(0xE9); a.u8_(12);   // shr rcx, 12
  a.u8_(0x89); a.u8_(0xCA);                           // mov edx, ecx
  a.u8_(0x81); a.u8_(0xE2); a.u32_(kTlbEntries - 1);  // and edx, 255
  a.u8_(0x48); a.u8_(0x3B); a.mrb_rdx8(RCX, tag_d);   // cmp rcx, tag[rdx]
  probe.to_slow.push_back(a.jcc(0x5));                // jne slow
  a.u8_(0x89); a.u8_(0xC6);                           // mov esi, eax
  a.u8_(0x81); a.u8_(0xE6); a.u32_(4095);             // and esi, 4095
  if (size > 1) {
    a.u8_(0x81); a.u8_(0xFE); a.u32_(4096 - size);    // cmp esi, 4096-size
    probe.to_slow.push_back(a.jcc(0x7));              // ja slow (page cross)
  }
  a.u8_(0x48); a.u8_(0x8B); a.mrb_rdx8(RDX, host_d);  // mov rdx, host[rdx]
  return probe;
}

void X64Tier::emit_load(Asm& a, std::int32_t dst, unsigned base,
                        std::int64_t disp, unsigned size, bool sign,
                        bool box) {
  const Probe probe =
      emit_tlb_probe(a, base, disp, size, /*write=*/false);
  switch (size | (sign ? 0x100 : 0)) {
    case 1: a.u8_(0x0F); a.u8_(0xB6); break;               // movzx b
    case 0x101: a.u8_(0x48); a.u8_(0x0F); a.u8_(0xBE); break;
    case 2: a.u8_(0x0F); a.u8_(0xB7); break;               // movzx w
    case 0x102: a.u8_(0x48); a.u8_(0x0F); a.u8_(0xBF); break;
    case 4: a.u8_(0x8B); break;                            // mov eax
    case 0x104: a.u8_(0x48); a.u8_(0x63); break;           // movsxd
    default: a.u8_(0x48); a.u8_(0x8B); break;              // mov rax
  }
  probe.host_operand(a, RAX);
  const std::size_t done = a.jmp_();
  probe.enter_slow(a);
  a.mov_ri32(RDX, size | (sign ? 0x100 : 0));
  a.call_abs(reinterpret_cast<std::uint64_t>(&rvdyn_jit_load));
  a.bind(done);
  if (box) {
    a.mov_ri64(RCX, 0xffffffff00000000ULL);
    a.u8_(0x48); a.u8_(0x09); a.u8_(0xC8);  // or rax, rcx
  }
  a.st(RAX, dst);
}

void X64Tier::emit_store(Asm& a, std::int32_t src, unsigned base,
                         std::int64_t disp, unsigned size) {
  const Probe probe =
      emit_tlb_probe(a, base, disp, size, /*write=*/true);
  a.ld(RCX, src);  // value
  switch (size) {
    case 1: a.u8_(0x88); break;
    case 2: a.u8_(0x66); a.u8_(0x89); break;
    case 4: a.u8_(0x89); break;
    default: a.u8_(0x48); a.u8_(0x89); break;
  }
  probe.host_operand(a, RCX);
  const std::size_t done = a.jmp_();
  probe.enter_slow(a);
  a.ld(RDX, src);
  a.mov_ri32(RCX, size);
  a.call_abs(reinterpret_cast<std::uint64_t>(&rvdyn_jit_store));
  a.bind(done);
}

// rd = fma(±rs1, rs2, ±rs3) with the interpreter's operand order. A negated
// operand has its sign bit flipped in rax before the move to xmm, which is
// what the interpreter's unary minus does, NaNs included.
void X64Tier::emit_fma(Asm& a, const isa::OperandProgram& p, bool neg_mul,
                       bool neg_add) {
  const bool neg[3] = {neg_mul, false, neg_add};
  for (unsigned i = 0; i < 3; ++i) {
    if (neg[i]) {
      a.ld(RAX, f_disp(p.src[i]));
      a.btc_rax_63();
      a.movq_xmm_rax(i);
    } else {
      a.sse_d(0x10, f_disp(p.src[i]), i);
    }
  }
  a.vfmadd213sd();
  a.sse_d(0x11, f_disp(p.rd));
}

bool X64Tier::emit_insn(Asm& a, const isa::Instruction& insn,
                        std::uint64_t pc) {
  const isa::OperandProgram p = isa::operand_program(insn);
  const auto rd = [&] { return xw_disp(p.rd); };
  const auto s = [&](unsigned i) { return x_disp(p.src[i]); };
  // `op rax, [rbx+src1]` flavours.
  const auto rr = [&](std::uint8_t op) {
    a.ld(RAX, s(0));
    a.alu(op, RAX, s(1));
    a.st(RAX, rd());
  };
  const auto rrw = [&](std::uint8_t op) {  // 32-bit + sign-extend
    a.ld32(RAX, s(0));
    a.alu32(op, RAX, s(1));
    a.cdqe();
    a.st(RAX, rd());
  };
  const auto ri = [&](std::uint8_t op) {
    a.ld(RAX, s(0));
    a.alui_rax(op, static_cast<std::int32_t>(p.imm));
    a.st(RAX, rd());
  };
  const auto sh_i = [&](unsigned sub, bool w64) {
    if (w64) { a.ld(RAX, s(0)); a.shift_i(sub, p.imm & 63, true); }
    else { a.ld32(RAX, s(0)); a.shift_i(sub, p.imm & 31, false); a.cdqe(); }
    a.st(RAX, rd());
  };
  const auto sh_r = [&](unsigned sub, bool w64) {
    a.ld(RCX, s(1));
    if (w64) { a.ld(RAX, s(0)); a.shift_cl(sub, true); }
    else { a.ld32(RAX, s(0)); a.shift_cl(sub, false); a.cdqe(); }
    a.st(RAX, rd());
  };
  const auto cmp_set = [&](unsigned cc, bool imm) {
    a.ld(RAX, s(0));
    if (imm) a.alui_rax(0x3D, static_cast<std::int32_t>(p.imm));
    else a.alu(0x3B, RAX, s(1));
    a.setcc(cc);
    a.st(RAX, rd());
  };
  const auto fp2 = [&](std::uint8_t op) {
    a.sse_d(0x10, f_disp(p.src[0]));
    a.sse_d(op, f_disp(p.src[1]));
    a.sse_d(0x11, f_disp(p.rd));
  };

  switch (insn.mnemonic()) {
    case Mnemonic::lui:
      a.u8_(0x48); a.u8_(0xC7); a.u8_(0xC0);  // mov rax, imm32 (sext)
      a.u32_(static_cast<std::uint32_t>(p.imm));
      a.st(RAX, rd());
      return true;
    case Mnemonic::auipc:
      a.mov_ri64(RAX, pc + static_cast<std::uint64_t>(p.imm));
      a.st(RAX, rd());
      return true;
    case Mnemonic::addi:
      a.ld(RAX, s(0));
      if (p.imm) a.alui_rax(0x05, static_cast<std::int32_t>(p.imm));
      a.st(RAX, rd());
      return true;
    case Mnemonic::andi: ri(0x25); return true;
    case Mnemonic::ori: ri(0x0D); return true;
    case Mnemonic::xori: ri(0x35); return true;
    case Mnemonic::slti: cmp_set(0xC, true); return true;
    case Mnemonic::sltiu: cmp_set(0x2, true); return true;
    case Mnemonic::slli: sh_i(4, true); return true;
    case Mnemonic::srli: sh_i(5, true); return true;
    case Mnemonic::srai: sh_i(7, true); return true;
    case Mnemonic::addiw:
      a.ld32(RAX, s(0));
      if (p.imm) a.alui_eax(0x05, static_cast<std::int32_t>(p.imm));
      a.cdqe();
      a.st(RAX, rd());
      return true;
    case Mnemonic::slliw: sh_i(4, false); return true;
    case Mnemonic::srliw: sh_i(5, false); return true;
    case Mnemonic::sraiw: sh_i(7, false); return true;
    case Mnemonic::add: rr(0x03); return true;
    case Mnemonic::sub: rr(0x2B); return true;
    case Mnemonic::and_: rr(0x23); return true;
    case Mnemonic::or_: rr(0x0B); return true;
    case Mnemonic::xor_: rr(0x33); return true;
    case Mnemonic::slt: cmp_set(0xC, false); return true;
    case Mnemonic::sltu: cmp_set(0x2, false); return true;
    case Mnemonic::sll: sh_r(4, true); return true;
    case Mnemonic::srl: sh_r(5, true); return true;
    case Mnemonic::sra: sh_r(7, true); return true;
    case Mnemonic::addw: rrw(0x03); return true;
    case Mnemonic::subw: rrw(0x2B); return true;
    case Mnemonic::sllw: sh_r(4, false); return true;
    case Mnemonic::srlw: sh_r(5, false); return true;
    case Mnemonic::sraw: sh_r(7, false); return true;
    case Mnemonic::mul:
      a.ld(RAX, s(0));
      a.u8_(0x48); a.u8_(0x0F); a.u8_(0xAF); a.mrb(RAX, s(1));
      a.st(RAX, rd());
      return true;
    case Mnemonic::mulw:
      a.ld32(RAX, s(0));
      a.u8_(0x0F); a.u8_(0xAF); a.mrb(RAX, s(1));
      a.cdqe();
      a.st(RAX, rd());
      return true;
    case Mnemonic::fadd_d: fp2(0x58); return true;
    case Mnemonic::fsub_d: fp2(0x5C); return true;
    case Mnemonic::fmul_d: fp2(0x59); return true;
    case Mnemonic::fdiv_d: fp2(0x5E); return true;
    case Mnemonic::fmadd_d:
    case Mnemonic::fmsub_d:
    case Mnemonic::fnmsub_d:
    case Mnemonic::fnmadd_d: {
      if (!fma_) return false;  // the generic helper calls glibc's fma
      const Mnemonic mn = insn.mnemonic();
      emit_fma(a, p, mn == Mnemonic::fnmsub_d || mn == Mnemonic::fnmadd_d,
               mn == Mnemonic::fmsub_d || mn == Mnemonic::fnmadd_d);
      return true;
    }
    case Mnemonic::fmv_d_x:
      a.ld(RAX, s(0));
      a.st(RAX, f_disp(p.rd));
      return true;
    case Mnemonic::fmv_x_d:
      a.ld(RAX, f_disp(p.src[0]));
      a.st(RAX, rd());
      return true;
    case Mnemonic::lb:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 1, true, false);
      return true;
    case Mnemonic::lbu:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 1, false, false);
      return true;
    case Mnemonic::lh:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 2, true, false);
      return true;
    case Mnemonic::lhu:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 2, false, false);
      return true;
    case Mnemonic::lw:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 4, true, false);
      return true;
    case Mnemonic::lwu:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 4, false, false);
      return true;
    case Mnemonic::ld:
      emit_load(a, rd(), p.mem_base, p.mem_disp, 8, false, false);
      return true;
    case Mnemonic::fld:
      emit_load(a, f_disp(p.rd), p.mem_base, p.mem_disp, 8, false, false);
      return true;
    case Mnemonic::flw:
      emit_load(a, f_disp(p.rd), p.mem_base, p.mem_disp, 4, false, true);
      return true;
    case Mnemonic::sb:
      emit_store(a, s(0), p.mem_base, p.mem_disp, 1);
      return true;
    case Mnemonic::sh:
      emit_store(a, s(0), p.mem_base, p.mem_disp, 2);
      return true;
    case Mnemonic::sw:
      emit_store(a, s(0), p.mem_base, p.mem_disp, 4);
      return true;
    case Mnemonic::sd:
      emit_store(a, s(0), p.mem_base, p.mem_disp, 8);
      return true;
    case Mnemonic::fsw:
      emit_store(a, f_disp(p.src[0]), p.mem_base, p.mem_disp, 4);
      return true;
    case Mnemonic::fsd:
      emit_store(a, f_disp(p.src[0]), p.mem_base, p.mem_disp, 8);
      return true;
    default:
      return false;
  }
}

bool X64Tier::emit_block(Machine& m, const BlockIR& ir) {
  auto blk = std::make_unique<XBlock>();
  blk->ir = ir;
  const BlockIR& bir = blk->ir;  // stable storage for imm64 references
  const bool prof = Runtime::profiling(m);

  Asm a;
  // Budget gate + entry accounting.
  a.ld(RAX, kBudgetD);
  a.alui_rax(0x3D, static_cast<std::int32_t>(bir.n_retired));  // cmp
  const std::size_t to_budget = a.jcc(0x2);                    // jb
  a.alui_rax(0x2D, static_cast<std::int32_t>(bir.n_retired));  // sub
  a.st(RAX, kBudgetD);
  a.inc_mem(kEnteredD);

  // Body templates (generic-helper call when no template exists).
  known_ = KnownRegs{};
  for (std::size_t i = 0; i < bir.body.size(); ++i) {
    const isa::Instruction& insn = bir.body[i];
    if (!emit_insn(a, insn, bir.body_pc[i])) {
      a.u8_(0x48); a.u8_(0x89); a.u8_(0xDF);  // mov rdi, rbx
      a.mov_ri64(RSI, reinterpret_cast<std::uint64_t>(&bir.body[i]));
      a.mov_ri64(RDX, bir.body_pc[i]);
      a.call_abs(reinterpret_cast<std::uint64_t>(&rvdyn_jit_value));
    }
    known_.step(insn, bir.body_pc[i]);
    if (insn.mnemonic() == cfg_.sabotage) {
      const isa::OperandProgram p = isa::operand_program(insn);
      if (p.has_rd && p.rd_fp) {
        a.xor_mem_i8(f_disp(p.rd), 1);
      } else if (p.has_rd && p.rd != 0) {
        a.xor_mem_i8(x_disp(p.rd), 1);
        known_.forget(p.rd);
      }
    }
  }

  // Terminal. Direct edges end in a patchable jmp rel32 (initially aimed at
  // their side-exit stub); jalr goes through the inline dispatch table.
  std::size_t site_taken = 0, site_fall = 0;
  bool want_taken = false, want_fall = false;
  std::size_t to_disp_stub = 0;
  bool want_disp = false;

  switch (bir.term) {
    case TermKind::Interp:
      emit_acct(a, bir.n_retired, bir.cost_fall);
      if (prof) emit_profile_call(a, &bir, false);
      a.mov_mem_i32(kExitKindD, kExitInterp);
      a.mov_ri64(RAX, bir.fall_target);
      a.st(RAX, kPcD);
      a.jmp_epilogue();
      break;
    case TermKind::CondBranch: {
      unsigned cc = 0;
      switch (bir.term_insn.mnemonic()) {
        case Mnemonic::beq: cc = 0x4; break;
        case Mnemonic::bne: cc = 0x5; break;
        case Mnemonic::blt: cc = 0xC; break;
        case Mnemonic::bge: cc = 0xD; break;
        case Mnemonic::bltu: cc = 0x2; break;
        default: cc = 0x3; break;  // bgeu
      }
      a.ld(RAX, x_disp(bir.br_rs1));
      a.alu(0x3B, RAX, x_disp(bir.br_rs2));
      const std::size_t to_taken = a.jcc(cc);
      emit_acct(a, bir.n_retired, bir.cost_fall);
      if (prof) emit_profile_call(a, &bir, false);
      site_fall = a.jmp_();
      want_fall = true;
      a.bind(to_taken);
      emit_acct(a, bir.n_retired, bir.cost_taken);
      if (prof) emit_profile_call(a, &bir, true);
      site_taken = a.jmp_();
      want_taken = true;
      break;
    }
    case TermKind::Jal:
      if (bir.link_rd) {
        a.mov_ri64(RAX, bir.link_value);
        a.st(RAX, xw_disp(bir.link_rd));
      }
      emit_acct(a, bir.n_retired, bir.cost_taken);
      if (prof) emit_profile_call(a, &bir, true);
      site_taken = a.jmp_();
      want_taken = true;
      break;
    case TermKind::Jalr: {
      a.ld(RAX, x_disp(bir.jalr_rs1));
      if (bir.jalr_imm)
        a.alui_rax(0x05, static_cast<std::int32_t>(bir.jalr_imm));
      a.u8_(0x48); a.u8_(0x83); a.u8_(0xE0); a.u8_(0xFE);  // and rax, -2
      a.st(RAX, kPcD);
      if (bir.link_rd) {
        a.mov_ri64(RCX, bir.link_value);
        a.st(RCX, xw_disp(bir.link_rd));
      }
      emit_acct(a, bir.n_retired, bir.cost_taken);
      if (prof) emit_profile_call(a, &bir, true);
      a.ld(RAX, kPcD);
      a.u8_(0x48); a.u8_(0x89); a.u8_(0xC1);              // mov rcx, rax
      a.u8_(0x48); a.u8_(0xC1); a.u8_(0xE9); a.u8_(1);    // shr rcx, 1
      a.u8_(0x89); a.u8_(0xCA);                           // mov edx, ecx
      a.u8_(0x81); a.u8_(0xE2); a.u32_(kDispEntries - 1); // and edx, 4095
      a.u8_(0x48); a.u8_(0xC1); a.u8_(0xE2); a.u8_(4);    // shl rdx, 4
      a.mov_ri64(RSI, reinterpret_cast<std::uint64_t>(&disp_[0]));
      a.u8_(0x48); a.u8_(0x01); a.u8_(0xF2);              // add rdx, rsi
      a.u8_(0x48); a.u8_(0x3B); a.u8_(0x02);              // cmp rax, [rdx]
      to_disp_stub = a.jcc(0x5);                          // jne
      want_disp = true;
      a.inc_mem(kDispHitsD);
      a.u8_(0xFF); a.u8_(0x62); a.u8_(0x08);              // jmp [rdx+8]
      break;
    }
  }

  // Stubs. Budget first, then the unresolved-edge stubs, then dispatch.
  a.bind(to_budget);
  a.mov_mem_i32(kExitKindD, kExitBudget);
  a.mov_ri64(RAX, bir.start);
  a.st(RAX, kPcD);
  a.jmp_epilogue();

  // Edge ids are registered only after the arena copy succeeds (a capacity
  // flush in between would clear edge_refs_ and dangle baked-in ids), so
  // the stub carries a placeholder id patched below.
  struct PendingEdge {
    std::uint8_t slot;
    std::uint32_t site, stub, id_imm;
  };
  PendingEdge pending[2];
  unsigned n_pending = 0;
  const auto emit_edge_stub = [&](std::uint8_t slot, std::uint64_t target,
                                  std::size_t site) {
    const std::uint32_t stub = static_cast<std::uint32_t>(a.pos());
    a.bind(site);  // unresolved edge: the patchable jmp lands on its stub
    a.mov_mem_i32(kExitKindD, kExitEdge);
    a.mov_mem_i32(kExitEdgeD, 0);
    const std::uint32_t id_imm = static_cast<std::uint32_t>(a.pos() - 4);
    a.mov_ri64(RAX, target);
    a.st(RAX, kPcD);
    a.jmp_epilogue();
    pending[n_pending++] = {slot, static_cast<std::uint32_t>(site), stub,
                           id_imm};
  };
  if (want_taken) emit_edge_stub(0, bir.taken_target, site_taken);
  if (want_fall) emit_edge_stub(1, bir.fall_target, site_fall);
  if (want_disp) {
    a.bind(to_disp_stub);
    a.mov_mem_i32(kExitKindD, kExitDispatch);
    a.jmp_epilogue();
  }

  // Copy into the arena; retry once after a capacity flush.
  const std::size_t need = (a.b.size() + 15) & ~std::size_t{15};
  if (used_ + need > arena_size_) {
    invalidate_all(InvalidateCause::Capacity);
    if (used_ + need > arena_size_) return false;  // block bigger than arena
  }
  std::uint8_t* code = arena_ + used_;
  used_ += need;
  std::memcpy(code, a.b.data(), a.b.size());
  for (std::size_t site : a.epi)
    patch_rel32(code + site, epilogue_);
  for (unsigned i = 0; i < n_pending; ++i) {
    const PendingEdge& pe = pending[i];
    const std::uint32_t id = static_cast<std::uint32_t>(edge_refs_.size());
    edge_refs_.push_back({blk.get(), pe.slot});
    std::memcpy(code + pe.id_imm, &id, 4);
    XBlock::Edge& e = blk->edges[pe.slot];
    e.used = true;
    e.site = pe.site;
    e.stub = pe.stub;
  }
  blk->code = code;
  blk->size = a.b.size();
  stats_.code_bytes += a.b.size();
  code_owner_[code] = blk.get();
  blocks_[bir.start] = std::move(blk);
  return true;
}

}  // namespace

bool x64_fma_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2");
  }();
  return ok;
}

bool x64_backend_available() {
  static const bool ok = [] {
    void* p = mmap(nullptr, 4096, PROT_READ | PROT_WRITE | PROT_EXEC,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    munmap(p, 4096);
    return true;
  }();
  return ok;
}

std::unique_ptr<Tier> make_x64_tier(const Config& cfg) {
  auto t = std::make_unique<X64Tier>(cfg);
  if (!t->init()) return nullptr;
  return t;
}

}  // namespace rvdyn::emu::jit

#else  // non-x86-64 host, or JIT compiled out

namespace rvdyn::emu::jit {
bool x64_backend_available() { return false; }
bool x64_fma_available() { return false; }
std::unique_ptr<Tier> make_x64_tier(const Config&) { return nullptr; }
}  // namespace rvdyn::emu::jit

#endif
