#include "emu/machine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bits.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "semantics/eval.hpp"

namespace rvdyn::emu {

namespace {

using isa::Instruction;
using isa::Mnemonic;

double as_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t from_double(double d) { return std::bit_cast<std::uint64_t>(d); }

// Single-precision values live NaN-boxed in the 64-bit FP registers.
float as_float(std::uint64_t bits) {
  // An improperly-boxed value reads as canonical NaN per the spec.
  if ((bits >> 32) != 0xffffffffu)
    return std::numeric_limits<float>::quiet_NaN();
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}
std::uint64_t box_float(float f) {
  return 0xffffffff00000000ULL | std::bit_cast<std::uint32_t>(f);
}

// fclass bit positions.
enum : std::uint64_t {
  kNegInf = 1 << 0,
  kNegNormal = 1 << 1,
  kNegSubnormal = 1 << 2,
  kNegZero = 1 << 3,
  kPosZero = 1 << 4,
  kPosSubnormal = 1 << 5,
  kPosNormal = 1 << 6,
  kPosInf = 1 << 7,
  kSignalingNan = 1 << 8,
  kQuietNan = 1 << 9,
};

template <typename T>
std::uint64_t fclass_of(T v) {
  const bool neg = std::signbit(v);
  switch (std::fpclassify(v)) {
    case FP_INFINITE: return neg ? kNegInf : kPosInf;
    case FP_NORMAL: return neg ? kNegNormal : kPosNormal;
    case FP_SUBNORMAL: return neg ? kNegSubnormal : kPosSubnormal;
    case FP_ZERO: return neg ? kNegZero : kPosZero;
    default: return kQuietNan;  // signaling-NaN detection not modelled
  }
}

// Saturating float->int conversions per the RISC-V F/D spec.
template <typename I, typename F>
std::uint64_t fcvt_to_int(F v) {
  if (std::isnan(v)) return static_cast<std::uint64_t>(std::numeric_limits<I>::max());
  if (v <= static_cast<F>(std::numeric_limits<I>::min()))
    return static_cast<std::uint64_t>(std::numeric_limits<I>::min());
  if (v >= static_cast<F>(std::numeric_limits<I>::max()))
    return static_cast<std::uint64_t>(std::numeric_limits<I>::max());
  return static_cast<std::uint64_t>(static_cast<I>(v));
}

}  // namespace

Machine::~Machine() { publish_metrics(); }

void Machine::publish_metrics() {
#if RVDYN_OBS_ENABLED
  const CacheStats& c = cstats_;
  const CacheStats& p = published_;
  RVDYN_OBS_COUNT_N("rvdyn.emu.icache.hit", c.icache_hits - p.icache_hits);
  RVDYN_OBS_COUNT_N("rvdyn.emu.icache.miss", c.icache_misses - p.icache_misses);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.hit", c.bcache_hits - p.bcache_hits);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.miss", c.bcache_misses - p.bcache_misses);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.built", c.blocks_built - p.blocks_built);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.entered",
                    c.blocks_entered - p.blocks_entered);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.evict.write_code",
                    c.evict_write_code - p.evict_write_code);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.evict.fencei",
                    c.evict_fencei - p.evict_fencei);
  RVDYN_OBS_COUNT_N("rvdyn.emu.bcache.evict.capacity",
                    c.evict_capacity - p.evict_capacity);
  RVDYN_OBS_COUNT_N("rvdyn.emu.fencei_flushes",
                    c.fencei_flushes - p.fencei_flushes);
  RVDYN_OBS_GAUGE("rvdyn.emu.instret", st_.instret);
  RVDYN_OBS_GAUGE("rvdyn.emu.cycles", st_.cycles);
  published_ = cstats_;
  decoder_.publish_stats();
#if RVDYN_JIT_ENABLED
  if (jit_) jit_->publish_metrics();
#endif
#endif
}

#if RVDYN_JIT_ENABLED
void Machine::set_jit_enabled(bool on) {
  if (!on && jit_) {
    jit_->publish_metrics();
    // Drop code rather than the tier itself: the epoch bump marks every
    // bcache jit_epoch stamp stale, so blocks recompile on re-enable.
    jit_->invalidate_all(jit::InvalidateCause::Config);
  }
  jit_enabled_ = on;
}
#endif

void Machine::load(const symtab::Symtab& binary) {
  RVDYN_OBS_SPAN("rvdyn.emu.load");
  for (const auto& sec : binary.sections()) {
    if (!sec.is_alloc()) continue;
    if (sec.type == symtab::SHT_NOBITS) {
      if (sec.nobits_size) mem_.map(sec.addr, sec.nobits_size);
      continue;
    }
    if (sec.data.empty()) continue;
    mem_.write_bytes(sec.addr, sec.data.data(), sec.data.size());
  }
  st_.pc = binary.entry;
  mem_.map(kStackTop - kStackSize, kStackSize);
  set_x(2, kStackTop - 64);  // sp, with a little headroom for argv scaffolding
  stop_ = StopReason::Running;
  flush_code_caches();
}

void Machine::flush_code_caches() {
#if RVDYN_JIT_ENABLED
  // Compiled blocks are invalidated by the same events that flush the
  // interpreter caches; the cause carries over for eviction attribution.
  if (jit_) {
    jit::InvalidateCause cause = jit::InvalidateCause::Config;
    if (flush_pending_ & kFlushFenceI) cause = jit::InvalidateCause::FenceI;
    else if (flush_pending_ & kFlushWriteCode)
      cause = jit::InvalidateCause::WriteCode;
    jit_->invalidate_all(cause);
  }
#endif
  for (ICacheLine& line : icache_) line.tag = ~0ULL;
  // Attribute the dropped block entries to whichever event forced the
  // flush; a fence.i wins because the full flush is architecturally its.
  RVDYN_OBS_STAT({
    const std::uint64_t dropped = bcache_.size();
    if (flush_pending_ & kFlushFenceI) {
      cstats_.evict_fencei += dropped;
      ++cstats_.fencei_flushes;
    } else if (flush_pending_ & kFlushWriteCode) {
      cstats_.evict_write_code += dropped;
    }
  });
  bcache_.clear();
  flush_pending_ = 0;
}

void Machine::write_code(std::uint64_t addr, const std::uint8_t* data,
                         std::size_t n) {
  mem_.write_bytes(addr, data, n);
  evict_code_range(addr, addr + n);
}

void Machine::evict_code_range(std::uint64_t lo, std::uint64_t hi) {
  // Invalidate decoded entries that may overlap the range (entries start
  // at most 3 bytes before lo).
  for (std::uint64_t a = lo >= 3 ? lo - 3 : 0; a < hi; ++a) {
    ICacheLine& line = icache_[(a >> 1) & (kICacheLines - 1)];
    if (line.tag == a) line.tag = ~0ULL;
  }
#if RVDYN_JIT_ENABLED
  // Precisely drop (and unchain) compiled blocks overlapping the range;
  // safe even mid-run because compiled code is never executing while the
  // debugger surface runs.
  if (jit_) jit_->invalidate_range(lo, hi, jit::InvalidateCause::WriteCode);
#endif
  if (in_block_) {
    // Patching from inside block execution (e.g. a trace hook): erasing
    // bcache_ here would destroy the vector being iterated, so defer to
    // a full flush at the next safe point instead.
    flush_pending_ |= kFlushWriteCode;
    return;
  }
  for (auto it = bcache_.begin(); it != bcache_.end();) {
    if (it->second.start < hi && it->second.end > lo) {
      RVDYN_OBS_STAT(++cstats_.evict_write_code);
      it = bcache_.erase(it);
    } else {
      ++it;
    }
  }
}

Machine::Snapshot Machine::take_snapshot() {
  Snapshot s;
  std::memcpy(s.x, st_.x, sizeof(s.x));
  std::memcpy(s.f, st_.f, sizeof(s.f));
  s.pc = st_.pc;
  s.instret = st_.instret;
  s.cycles = st_.cycles;
  s.brk = brk_;
  s.mmap_top = mmap_top_;
  s.reservation = reservation_;
  s.csr_scratch = csr_scratch_;
  s.exit_code = exit_code_;
  s.stop = stop_;
  s.out_size = out_.size();
  mem_.snapshot();
  // The snapshot cleared every page's dirty mark; drop the write TLB so
  // the first store per page goes back through the marking slow path.
  st_.flush_write_tlb();
  return s;
}

Machine::RestoreStats Machine::reset_to_snapshot(const Snapshot& s) {
  RestoreStats r;
  // For each page the reset cleans or drops, before Memory rewrites or
  // frees it: a page holding decoded/compiled code is evicted exactly like
  // a write_code into it would be (otherwise stale host code keeps
  // executing the pre-restore bytes), and the JIT TLB loses the entries the
  // page may no longer have — the write entry of a page that is clean again,
  // so its next store re-marks it dirty, and both entries of a freed page.
  // Exempt pages keep theirs, so the coverage snippet's stores stay inline.
  const Memory::ResetStats ms =
      mem_.reset([&](std::uint64_t num, bool holds_code, bool dropped) {
        if (holds_code) {
          const std::uint64_t lo = num << Memory::kPageBits;
          evict_code_range(lo, lo + Memory::kPageSize);
          r.code_invalidated = true;
        }
        if (dropped) st_.drop_page(num);
        else st_.drop_write_entry(num);
      });
  r.pages_restored = ms.pages_restored;
  r.pages_dropped = ms.pages_dropped;

  std::memcpy(st_.x, s.x, sizeof(s.x));
  std::memcpy(st_.f, s.f, sizeof(s.f));
  st_.pc = s.pc;
  st_.instret = s.instret;
  st_.cycles = s.cycles;
  brk_ = s.brk;
  mmap_top_ = s.mmap_top;
  reservation_ = s.reservation;
  if (!csr_scratch_.empty() || !s.csr_scratch.empty())
    csr_scratch_ = s.csr_scratch;
  exit_code_ = s.exit_code;
  stop_ = s.stop;
  out_.resize(s.out_size);
  return r;
}

bool Machine::fetch(std::uint64_t pc, Instruction* out, unsigned* len) {
  ICacheLine& line = icache_[(pc >> 1) & (kICacheLines - 1)];
  if (line.tag == pc) {
    RVDYN_OBS_STAT(++cstats_.icache_hits);
    *out = line.insn;
    *len = line.len;
    return line.len != 0;
  }
  RVDYN_OBS_STAT(++cstats_.icache_misses);
  // Fetch without mapping pages as a side effect: a compressed instruction
  // in the last two mapped bytes of a page must decode, and the bytes past
  // it must stay unmapped.
  std::uint8_t buf[4];
  std::size_t avail = 4;
  if (!mem_.try_read_bytes(pc, buf, 4)) {
    if (!mem_.try_read_bytes(pc, buf, 2)) return false;  // pc unmapped
    avail = 2;
  }
  const unsigned n = decoder_.decode(buf, avail, out);
  // Don't cache a failure seen through a truncated page-tail read: mapping
  // the next page later can legitimately turn it into a valid instruction.
  if (n != 0 || avail == 4) {
    line.tag = pc;
    line.len = n;
    line.insn = *out;
  }
  if (n != 0) {
    // Flag the page(s) this instruction occupies so snapshot restore knows
    // which restored pages may hold decoded/compiled code. Miss-path only:
    // nothing on the hot hit path.
    mem_.mark_code(pc);
    if ((pc + n - 1) >> Memory::kPageBits != pc >> Memory::kPageBits)
      mem_.mark_code(pc + n - 1);
  }
  *len = n;
  return n != 0;
}

unsigned insn_cycle_charge(const CycleModel& model, const Instruction& insn,
                           bool taken_branch) {
  unsigned c = model.base;
  if (insn.reads_memory()) c = model.load;
  else if (insn.writes_memory()) c = model.store;
  if (insn.has_flag(isa::F_MULDIV)) {
    const Mnemonic m = insn.mnemonic();
    const bool is_div = m == Mnemonic::div || m == Mnemonic::divu ||
                        m == Mnemonic::rem || m == Mnemonic::remu ||
                        m == Mnemonic::divw || m == Mnemonic::divuw ||
                        m == Mnemonic::remw || m == Mnemonic::remuw;
    c = is_div ? model.div : model.mul;
  } else if (insn.has_flag(isa::F_FLOAT)) {
    const Mnemonic m = insn.mnemonic();
    const bool is_fdiv = m == Mnemonic::fdiv_s || m == Mnemonic::fdiv_d ||
                         m == Mnemonic::fsqrt_s || m == Mnemonic::fsqrt_d;
    if (!insn.reads_memory() && !insn.writes_memory())
      c = is_fdiv ? model.fdiv : model.fp;
  }
  if (taken_branch) c += model.branch_taken - 1;
  return c;
}

void Machine::charge(const Instruction& insn, bool taken_branch) {
  st_.cycles += insn_cycle_charge(model_, insn, taken_branch);
}

Machine::BlockEntry* Machine::lookup_or_build_block(std::uint64_t pc) {
  const auto it = bcache_.find(pc);
  if (it != bcache_.end()) {
    RVDYN_OBS_STAT(++cstats_.bcache_hits);
    return &it->second;
  }
  RVDYN_OBS_STAT(++cstats_.bcache_misses);
  BlockEntry blk;
  blk.start = pc;
  std::uint64_t a = pc;
  Instruction insn;
  unsigned len = 0;
  while (blk.insns.size() < kMaxBlockInsns) {
    if (!fetch(a, &insn, &len)) break;
    blk.insns.push_back(insn);
    a += len;
    // Straight-line runs only: stop at anything that redirects or may stop
    // execution (branches/jumps, ecall, ebreak, fence/fence.i).
    if (insn.is_control_flow() ||
        (insn.flags() & (isa::F_ECALL | isa::F_EBREAK | isa::F_FENCE)))
      break;
  }
  if (blk.insns.empty()) return nullptr;
  blk.end = a;
  if (bcache_.size() >= kMaxBlocks) {
    RVDYN_OBS_STAT(cstats_.evict_capacity += bcache_.size());
    bcache_.clear();
  }
  RVDYN_OBS_STAT(++cstats_.blocks_built);
  const auto ins = bcache_.emplace(pc, std::move(blk)).first;
  return &ins->second;
}

StopReason Machine::run(std::uint64_t max_steps) {
  RVDYN_OBS_SPAN("rvdyn.emu.run");
  stop_ = StopReason::Running;
  std::uint64_t remaining = max_steps;
#if RVDYN_JIT_ENABLED
  // Compiled code bypasses the per-insn hook/watchpoint checks, so the JIT
  // stands down entirely whenever either is active.
  const bool jit_ok =
      jit_enabled_ && trace_ == nullptr && watchpoints_.empty();
#endif
  while (remaining > 0) {
    if (flush_pending_) flush_code_caches();
    std::uint64_t slice = remaining;
#if RVDYN_OBS_ENABLED
    // Exact-budget sampling: fire the hook with instret exactly on its
    // target, then cap this iteration's slice at the distance to the next
    // target. Blocks (compiled or cached) that would overrun the cap fall
    // through to exec_one and single-step up to the boundary, so the
    // sample point is an architectural invariant across execution tiers.
    if (sample_hook_) {
      while (st_.instret >= next_sample_) {
        sample_hook_(*this);
        next_sample_ += sample_interval_;
      }
      slice = std::min(slice, next_sample_ - st_.instret);
    }
#endif
#if RVDYN_JIT_ENABLED
    if (jit_ok && jit_ && jit_->has_code()) {
      const std::uint64_t session_pc = st_.pc;
      const std::uint64_t done = jit_->execute(*this, slice);
      if (done != 0) {
        trace_block(session_pc);
        remaining -= done;
        continue;
      }
    }
#endif
    BlockEntry* blk = lookup_or_build_block(st_.pc);
    if (blk != nullptr && blk->insns.size() <= slice) {
#if RVDYN_JIT_ENABLED
      if (jit_ok) {
        if (blk->exec_count < jit_cfg_.hot_threshold) {
          ++blk->exec_count;
        } else if (!jit_ || blk->jit_epoch != jit_->epoch()) {
          if (!jit_) jit_ = jit::Tier::create(jit_cfg_);
          // Stamp the epoch first: a failed compile is remembered and the
          // block is not re-offered until the next invalidation.
          blk->jit_epoch = jit_->epoch();
          if (jit_->compile(*this, blk->start, blk->insns)) continue;
        }
      }
#endif
      // Execute the whole straight-line run without per-instruction
      // fetch/dispatch. Only the last instruction can redirect pc, so each
      // iteration resumes exactly where the next cached insn was decoded.
      RVDYN_OBS_STAT(++cstats_.blocks_entered);
      trace_block(blk->start);
      in_block_ = true;
      for (const Instruction& insn : blk->insns) {
        const StopReason r = exec_insn(insn, insn.length());
        --remaining;
        if (r != StopReason::Running) {
          in_block_ = false;
          stop_ = r;
          return r;
        }
      }
      in_block_ = false;
      continue;
    }
    trace_block(st_.pc);
    const StopReason r = exec_one();
    --remaining;
    if (r != StopReason::Running) {
      stop_ = r;
      return r;
    }
  }
  return StopReason::Running;
}

StopReason Machine::step() {
  stop_ = exec_one();
  return stop_;
}

StopReason Machine::step_bytes(const std::uint8_t* bytes, std::size_t n) {
  if (flush_pending_) flush_code_caches();
  Instruction insn;
  const unsigned len = decoder_.decode(bytes, n, &insn);
  stop_ = len == 0 ? StopReason::IllegalInsn : exec_insn(insn, len);
  return stop_;
}

std::vector<Machine::BlockTraceEntry> Machine::recent_blocks() const {
  std::vector<BlockTraceEntry> out;
  const std::uint64_t n = std::min<std::uint64_t>(block_trace_count_,
                                                  kBlockTraceCap);
  out.reserve(n);
  // Oldest retained entry sits at block_trace_next_ once the ring wrapped.
  std::size_t i = block_trace_count_ > kBlockTraceCap ? block_trace_next_ : 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    out.push_back(block_trace_[i]);
    i = (i + 1) % kBlockTraceCap;
  }
  return out;
}

unsigned Machine::set_watchpoint(std::uint64_t addr, std::uint64_t size,
                                 bool on_read, bool on_write) {
  const unsigned id = next_watch_id_++;
  watchpoints_.push_back({id, addr, size, on_read, on_write});
  return id;
}

void Machine::clear_watchpoint(unsigned id) {
  for (auto it = watchpoints_.begin(); it != watchpoints_.end(); ++it) {
    if (it->id == id) {
      watchpoints_.erase(it);
      return;
    }
  }
}

bool Machine::check_watchpoints(std::uint64_t pc, const Instruction& insn) {
  if (watchpoints_.empty()) return false;
  for (unsigned i = 0; i < insn.num_operands(); ++i) {
    const isa::Operand& op = insn.operand(i);
    if (!op.is_mem()) continue;
    const std::uint64_t lo =
        get_x(op.reg.num) + static_cast<std::uint64_t>(op.imm);
    const std::uint64_t hi = lo + (op.size ? op.size : 1);
    for (const Watchpoint& w : watchpoints_) {
      if (hi <= w.addr || lo >= w.addr + w.size) continue;
      const bool write = op.writes();
      if ((write && w.on_write) || (!write && w.on_read)) {
        watch_hit_ = {w.id, lo, pc, write};
        return true;
      }
    }
  }
  return false;
}

StopReason Machine::exec_one() {
  if (flush_pending_) flush_code_caches();
  Instruction insn;
  unsigned len = 0;
  if (!fetch(st_.pc, &insn, &len))
    return mem_.is_mapped(st_.pc) ? StopReason::IllegalInsn : StopReason::BadFetch;
  return exec_insn(insn, len);
}

StopReason Machine::exec_insn(const Instruction& insn, unsigned len) {
  if (trace_) trace_(st_.pc, insn);
  // Per-PC "hardware" counters: hit now, cycle attribution after charge.
  PcCount* prof = nullptr;
  std::uint64_t prof_c0 = 0;
  if (pc_profile_enabled_) {
    prof = &pc_profile_[st_.pc];
    ++prof->hits;
    prof_c0 = st_.cycles;
  }
  const bool watch_fires = check_watchpoints(st_.pc, insn);

  const std::uint64_t next_pc = st_.pc + len;
  bool taken = false;
  std::uint64_t new_pc = next_pc;

  auto xr = [&](unsigned opi) { return get_x(insn.operand(opi).reg.num); };
  auto wx = [&](std::uint64_t v) { set_x(insn.operand(0).reg.num, v); };
  auto imm = [&](unsigned opi) {
    return static_cast<std::uint64_t>(insn.operand(opi).imm);
  };

  switch (insn.mnemonic()) {
    case Mnemonic::jal:
      wx(next_pc);
      new_pc = st_.pc + imm(1);
      taken = true;
      break;
    case Mnemonic::jalr: {
      const std::uint64_t target = (xr(1) + imm(2)) & ~1ULL;
      wx(next_pc);
      new_pc = target;
      taken = true;
      break;
    }
    case Mnemonic::beq: taken = xr(0) == xr(1); break;
    case Mnemonic::bne: taken = xr(0) != xr(1); break;
    case Mnemonic::blt:
      taken = static_cast<std::int64_t>(xr(0)) < static_cast<std::int64_t>(xr(1));
      break;
    case Mnemonic::bge:
      taken = static_cast<std::int64_t>(xr(0)) >= static_cast<std::int64_t>(xr(1));
      break;
    case Mnemonic::bltu: taken = xr(0) < xr(1); break;
    case Mnemonic::bgeu: taken = xr(0) >= xr(1); break;

    case Mnemonic::fence:
    case Mnemonic::fence_i:
      // Deferred: a fence.i inside a cached block must not destroy the
      // block vector mid-iteration. The flush happens before the next fetch.
      if (insn.mnemonic() == Mnemonic::fence_i) flush_pending_ |= kFlushFenceI;
      break;
    case Mnemonic::ecall: {
      const StopReason r = syscall();
      if (r != StopReason::Running) {
        // The ecall itself executed and retired; account for it before
        // reporting the stop so instret/cycles include it.
        charge(insn, false);
        ++st_.instret;
        if (prof) prof->cycles += st_.cycles - prof_c0;
        return r;
      }
      break;
    }
    case Mnemonic::ebreak:
      // pc stays at the ebreak; the debugger decides what happens next.
      return StopReason::Breakpoint;

    // ---- Zicsr (cycle/time/instret and a tolerant default) ----
    case Mnemonic::csrrw:
    case Mnemonic::csrrs:
    case Mnemonic::csrrc:
    case Mnemonic::csrrwi:
    case Mnemonic::csrrsi:
    case Mnemonic::csrrci: {
      const std::int64_t csr = insn.operand(1).imm;
      std::uint64_t old = 0;
      switch (csr) {
        case 0xC00: old = st_.cycles; break;
        case 0xC01: old = virtual_ns(); break;
        case 0xC02: old = st_.instret; break;
        default: old = csr_scratch_[csr]; break;
      }
      std::uint64_t wrval = 0;
      const Mnemonic m = insn.mnemonic();
      if (m == Mnemonic::csrrw || m == Mnemonic::csrrs || m == Mnemonic::csrrc)
        wrval = xr(2);
      else
        wrval = imm(2);
      std::uint64_t newval = old;
      if (m == Mnemonic::csrrw || m == Mnemonic::csrrwi) newval = wrval;
      if (m == Mnemonic::csrrs || m == Mnemonic::csrrsi) newval = old | wrval;
      if (m == Mnemonic::csrrc || m == Mnemonic::csrrci) newval = old & ~wrval;
      if (csr < 0xC00) csr_scratch_[csr] = newval;  // counters are read-only
      wx(old);
      break;
    }

    default:
      // Every value-semantics instruction funnels through exec_value —
      // the same switch JIT-compiled code reuses for its generic helper.
      if (!exec_value(insn, st_.pc)) return StopReason::IllegalInsn;
      break;
  }

  if (insn.is_cond_branch() && taken)
    new_pc = st_.pc + static_cast<std::uint64_t>(insn.branch_offset());

  charge(insn, taken);
  ++st_.instret;
  if (prof) prof->cycles += st_.cycles - prof_c0;
  st_.pc = new_pc;
  // A data watchpoint reports after the access completes (pc already
  // advanced), matching how hardware debug traps behave.
  if (watch_fires) return StopReason::Watchpoint;
  return StopReason::Running;
}

bool Machine::exec_value(const Instruction& insn, std::uint64_t pc) {
  (void)pc;  // auipc only
  auto xr = [&](unsigned opi) { return get_x(insn.operand(opi).reg.num); };
  auto fr = [&](unsigned opi) { return st_.f[insn.operand(opi).reg.num]; };
  auto wx = [&](std::uint64_t v) { set_x(insn.operand(0).reg.num, v); };
  auto wf = [&](std::uint64_t v) { st_.f[insn.operand(0).reg.num] = v; };
  auto imm = [&](unsigned opi) {
    return static_cast<std::uint64_t>(insn.operand(opi).imm);
  };
  auto mem_addr = [&](unsigned opi) {
    const isa::Operand& m = insn.operand(opi);
    return get_x(m.reg.num) + static_cast<std::uint64_t>(m.imm);
  };

  using semantics::rv_div_s;
  using semantics::rv_div_u;
  using semantics::rv_rem_s;
  using semantics::rv_rem_u;

  switch (insn.mnemonic()) {
    // ---- RV64I ----
    case Mnemonic::lui: wx(imm(1)); break;
    case Mnemonic::auipc: wx(pc + imm(1)); break;
    case Mnemonic::lb: wx(static_cast<std::uint64_t>(sext(mem_.read(mem_addr(1), 1), 8))); break;
    case Mnemonic::lh: wx(static_cast<std::uint64_t>(sext(mem_.read(mem_addr(1), 2), 16))); break;
    case Mnemonic::lw: wx(static_cast<std::uint64_t>(sext(mem_.read(mem_addr(1), 4), 32))); break;
    case Mnemonic::ld: wx(mem_.read(mem_addr(1), 8)); break;
    case Mnemonic::lbu: wx(mem_.read(mem_addr(1), 1)); break;
    case Mnemonic::lhu: wx(mem_.read(mem_addr(1), 2)); break;
    case Mnemonic::lwu: wx(mem_.read(mem_addr(1), 4)); break;
    case Mnemonic::sb: mem_.write(mem_addr(1), xr(0), 1); break;
    case Mnemonic::sh: mem_.write(mem_addr(1), xr(0), 2); break;
    case Mnemonic::sw: mem_.write(mem_addr(1), xr(0), 4); break;
    case Mnemonic::sd: mem_.write(mem_addr(1), xr(0), 8); break;

    case Mnemonic::addi: wx(xr(1) + imm(2)); break;
    case Mnemonic::slti:
      wx(static_cast<std::int64_t>(xr(1)) < insn.operand(2).imm ? 1 : 0);
      break;
    case Mnemonic::sltiu: wx(xr(1) < imm(2) ? 1 : 0); break;
    case Mnemonic::xori: wx(xr(1) ^ imm(2)); break;
    case Mnemonic::ori: wx(xr(1) | imm(2)); break;
    case Mnemonic::andi: wx(xr(1) & imm(2)); break;
    case Mnemonic::slli: wx(xr(1) << (imm(2) & 63)); break;
    case Mnemonic::srli: wx(xr(1) >> (imm(2) & 63)); break;
    case Mnemonic::srai:
      wx(static_cast<std::uint64_t>(static_cast<std::int64_t>(xr(1)) >>
                                    (imm(2) & 63)));
      break;
    case Mnemonic::add: wx(xr(1) + xr(2)); break;
    case Mnemonic::sub: wx(xr(1) - xr(2)); break;
    case Mnemonic::sll: wx(xr(1) << (xr(2) & 63)); break;
    case Mnemonic::slt:
      wx(static_cast<std::int64_t>(xr(1)) < static_cast<std::int64_t>(xr(2)) ? 1 : 0);
      break;
    case Mnemonic::sltu: wx(xr(1) < xr(2) ? 1 : 0); break;
    case Mnemonic::xor_: wx(xr(1) ^ xr(2)); break;
    case Mnemonic::srl: wx(xr(1) >> (xr(2) & 63)); break;
    case Mnemonic::sra:
      wx(static_cast<std::uint64_t>(static_cast<std::int64_t>(xr(1)) >>
                                    (xr(2) & 63)));
      break;
    case Mnemonic::or_: wx(xr(1) | xr(2)); break;
    case Mnemonic::and_: wx(xr(1) & xr(2)); break;

    // Zicond (RVA23 profile, paper §3.4).
    case Mnemonic::czero_eqz: wx(xr(2) == 0 ? 0 : xr(1)); break;
    case Mnemonic::czero_nez: wx(xr(2) != 0 ? 0 : xr(1)); break;

    // Zba (RVA23): address generation.
    case Mnemonic::add_uw: wx(xr(2) + zext(xr(1), 32)); break;
    case Mnemonic::sh1add: wx(xr(2) + (xr(1) << 1)); break;
    case Mnemonic::sh2add: wx(xr(2) + (xr(1) << 2)); break;
    case Mnemonic::sh3add: wx(xr(2) + (xr(1) << 3)); break;
    case Mnemonic::sh1add_uw: wx(xr(2) + (zext(xr(1), 32) << 1)); break;
    case Mnemonic::sh2add_uw: wx(xr(2) + (zext(xr(1), 32) << 2)); break;
    case Mnemonic::sh3add_uw: wx(xr(2) + (zext(xr(1), 32) << 3)); break;
    case Mnemonic::slli_uw: wx(zext(xr(1), 32) << (imm(2) & 63)); break;

    // Zbb (RVA23): basic bit manipulation.
    case Mnemonic::andn: wx(xr(1) & ~xr(2)); break;
    case Mnemonic::orn: wx(xr(1) | ~xr(2)); break;
    case Mnemonic::xnor: wx(~(xr(1) ^ xr(2))); break;
    case Mnemonic::clz:
      wx(xr(1) == 0 ? 64
                    : static_cast<std::uint64_t>(__builtin_clzll(xr(1))));
      break;
    case Mnemonic::ctz:
      wx(xr(1) == 0 ? 64
                    : static_cast<std::uint64_t>(__builtin_ctzll(xr(1))));
      break;
    case Mnemonic::cpop:
      wx(static_cast<std::uint64_t>(__builtin_popcountll(xr(1))));
      break;
    case Mnemonic::clzw: {
      const std::uint32_t v = static_cast<std::uint32_t>(xr(1));
      wx(v == 0 ? 32 : static_cast<std::uint64_t>(__builtin_clz(v)));
      break;
    }
    case Mnemonic::ctzw: {
      const std::uint32_t v = static_cast<std::uint32_t>(xr(1));
      wx(v == 0 ? 32 : static_cast<std::uint64_t>(__builtin_ctz(v)));
      break;
    }
    case Mnemonic::cpopw:
      wx(static_cast<std::uint64_t>(
          __builtin_popcount(static_cast<std::uint32_t>(xr(1)))));
      break;
    case Mnemonic::max:
      wx(static_cast<std::int64_t>(xr(1)) > static_cast<std::int64_t>(xr(2))
             ? xr(1)
             : xr(2));
      break;
    case Mnemonic::maxu: wx(std::max(xr(1), xr(2))); break;
    case Mnemonic::min:
      wx(static_cast<std::int64_t>(xr(1)) < static_cast<std::int64_t>(xr(2))
             ? xr(1)
             : xr(2));
      break;
    case Mnemonic::minu: wx(std::min(xr(1), xr(2))); break;
    case Mnemonic::sext_b: wx(static_cast<std::uint64_t>(sext(xr(1), 8))); break;
    case Mnemonic::sext_h: wx(static_cast<std::uint64_t>(sext(xr(1), 16))); break;
    case Mnemonic::zext_h: wx(zext(xr(1), 16)); break;
    case Mnemonic::rol: {
      const unsigned n = xr(2) & 63;
      wx(n == 0 ? xr(1) : (xr(1) << n) | (xr(1) >> (64 - n)));
      break;
    }
    case Mnemonic::ror: {
      const unsigned n = xr(2) & 63;
      wx(n == 0 ? xr(1) : (xr(1) >> n) | (xr(1) << (64 - n)));
      break;
    }
    case Mnemonic::rori: {
      const unsigned n = imm(2) & 63;
      wx(n == 0 ? xr(1) : (xr(1) >> n) | (xr(1) << (64 - n)));
      break;
    }
    case Mnemonic::rolw: {
      const std::uint32_t v = static_cast<std::uint32_t>(xr(1));
      const unsigned n = xr(2) & 31;
      const std::uint32_t r = n == 0 ? v : (v << n) | (v >> (32 - n));
      wx(static_cast<std::uint64_t>(sext(r, 32)));
      break;
    }
    case Mnemonic::rorw:
    case Mnemonic::roriw: {
      const std::uint32_t v = static_cast<std::uint32_t>(xr(1));
      const unsigned n =
          (insn.mnemonic() == Mnemonic::rorw ? xr(2) : imm(2)) & 31;
      const std::uint32_t r = n == 0 ? v : (v >> n) | (v << (32 - n));
      wx(static_cast<std::uint64_t>(sext(r, 32)));
      break;
    }
    case Mnemonic::rev8: wx(__builtin_bswap64(xr(1))); break;
    case Mnemonic::orc_b: {
      std::uint64_t out = 0;
      for (unsigned i = 0; i < 8; ++i)
        if ((xr(1) >> (8 * i)) & 0xff) out |= 0xffULL << (8 * i);
      wx(out);
      break;
    }

    case Mnemonic::addiw: wx(static_cast<std::uint64_t>(sext(xr(1) + imm(2), 32))); break;
    case Mnemonic::slliw: wx(static_cast<std::uint64_t>(sext(xr(1) << (imm(2) & 31), 32))); break;
    case Mnemonic::srliw:
      wx(static_cast<std::uint64_t>(sext(zext(xr(1), 32) >> (imm(2) & 31), 32)));
      break;
    case Mnemonic::sraiw:
      wx(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(sext(xr(1), 32)) >> (imm(2) & 31)));
      break;
    case Mnemonic::addw: wx(static_cast<std::uint64_t>(sext(xr(1) + xr(2), 32))); break;
    case Mnemonic::subw: wx(static_cast<std::uint64_t>(sext(xr(1) - xr(2), 32))); break;
    case Mnemonic::sllw:
      wx(static_cast<std::uint64_t>(sext(xr(1) << (xr(2) & 31), 32)));
      break;
    case Mnemonic::srlw:
      wx(static_cast<std::uint64_t>(sext(zext(xr(1), 32) >> (xr(2) & 31), 32)));
      break;
    case Mnemonic::sraw:
      wx(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(sext(xr(1), 32)) >> (xr(2) & 31)));
      break;

    // ---- M ----
    case Mnemonic::mul: wx(xr(1) * xr(2)); break;
    case Mnemonic::mulh:
      wx(static_cast<std::uint64_t>(
          (static_cast<__int128>(static_cast<std::int64_t>(xr(1))) *
           static_cast<__int128>(static_cast<std::int64_t>(xr(2)))) >> 64));
      break;
    case Mnemonic::mulhsu:
      wx(static_cast<std::uint64_t>(
          (static_cast<__int128>(static_cast<std::int64_t>(xr(1))) *
           static_cast<unsigned __int128>(xr(2))) >> 64));
      break;
    case Mnemonic::mulhu:
      wx(static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(xr(1)) *
           static_cast<unsigned __int128>(xr(2))) >> 64));
      break;
    case Mnemonic::div: wx(rv_div_s(xr(1), xr(2))); break;
    case Mnemonic::divu: wx(rv_div_u(xr(1), xr(2))); break;
    case Mnemonic::rem: wx(rv_rem_s(xr(1), xr(2))); break;
    case Mnemonic::remu: wx(rv_rem_u(xr(1), xr(2))); break;
    case Mnemonic::mulw:
      wx(static_cast<std::uint64_t>(sext(xr(1) * xr(2), 32)));
      break;
    case Mnemonic::divw:
      wx(static_cast<std::uint64_t>(sext(
          rv_div_s(static_cast<std::uint64_t>(sext(xr(1), 32)),
                   static_cast<std::uint64_t>(sext(xr(2), 32))), 32)));
      break;
    case Mnemonic::divuw:
      wx(static_cast<std::uint64_t>(
          sext(rv_div_u(zext(xr(1), 32), zext(xr(2), 32)), 32)));
      break;
    case Mnemonic::remw:
      wx(static_cast<std::uint64_t>(sext(
          rv_rem_s(static_cast<std::uint64_t>(sext(xr(1), 32)),
                   static_cast<std::uint64_t>(sext(xr(2), 32))), 32)));
      break;
    case Mnemonic::remuw:
      wx(static_cast<std::uint64_t>(
          sext(rv_rem_u(zext(xr(1), 32), zext(xr(2), 32)), 32)));
      break;

    // ---- A (single hart: lr/sc always succeed, amos are plain RMW) ----
    case Mnemonic::lr_w:
      wx(static_cast<std::uint64_t>(sext(mem_.read(mem_addr(1), 4), 32)));
      reservation_ = mem_addr(1);
      break;
    case Mnemonic::lr_d:
      wx(mem_.read(mem_addr(1), 8));
      reservation_ = mem_addr(1);
      break;
    case Mnemonic::sc_w:
    case Mnemonic::sc_d: {
      const unsigned size = insn.mnemonic() == Mnemonic::sc_w ? 4 : 8;
      const std::uint64_t addr = mem_addr(2);
      if (reservation_ == addr) {
        mem_.write(addr, xr(1), size);
        wx(0);
      } else {
        wx(1);
      }
      reservation_ = ~0ULL;
      break;
    }
    case Mnemonic::amoswap_w: case Mnemonic::amoadd_w: case Mnemonic::amoxor_w:
    case Mnemonic::amoand_w: case Mnemonic::amoor_w: case Mnemonic::amomin_w:
    case Mnemonic::amomax_w: case Mnemonic::amominu_w: case Mnemonic::amomaxu_w:
    case Mnemonic::amoswap_d: case Mnemonic::amoadd_d: case Mnemonic::amoxor_d:
    case Mnemonic::amoand_d: case Mnemonic::amoor_d: case Mnemonic::amomin_d:
    case Mnemonic::amomax_d: case Mnemonic::amominu_d: case Mnemonic::amomaxu_d: {
      const Mnemonic m = insn.mnemonic();
      const bool is_w = m <= Mnemonic::amomaxu_w;
      const unsigned size = is_w ? 4 : 8;
      const std::uint64_t addr = mem_addr(2);
      std::uint64_t old = mem_.read(addr, size);
      if (is_w) old = static_cast<std::uint64_t>(sext(old, 32));
      const std::uint64_t src = xr(1);
      std::uint64_t nv = 0;
      auto smin = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? a : b;
      };
      auto smax = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::int64_t>(a) > static_cast<std::int64_t>(b) ? a : b;
      };
      switch (m) {
        case Mnemonic::amoswap_w: case Mnemonic::amoswap_d: nv = src; break;
        case Mnemonic::amoadd_w: case Mnemonic::amoadd_d: nv = old + src; break;
        case Mnemonic::amoxor_w: case Mnemonic::amoxor_d: nv = old ^ src; break;
        case Mnemonic::amoand_w: case Mnemonic::amoand_d: nv = old & src; break;
        case Mnemonic::amoor_w: case Mnemonic::amoor_d: nv = old | src; break;
        case Mnemonic::amomin_w:
          nv = smin(old, static_cast<std::uint64_t>(sext(src, 32))); break;
        case Mnemonic::amomin_d: nv = smin(old, src); break;
        case Mnemonic::amomax_w:
          nv = smax(old, static_cast<std::uint64_t>(sext(src, 32))); break;
        case Mnemonic::amomax_d: nv = smax(old, src); break;
        case Mnemonic::amominu_w:
          nv = std::min(zext(old, 32), zext(src, 32)); break;
        case Mnemonic::amominu_d: nv = std::min(old, src); break;
        case Mnemonic::amomaxu_w:
          nv = std::max(zext(old, 32), zext(src, 32)); break;
        case Mnemonic::amomaxu_d: nv = std::max(old, src); break;
        default: break;
      }
      mem_.write(addr, nv, size);
      wx(old);
      break;
    }

    // ---- F/D loads, stores, moves ----
    case Mnemonic::flw: wf(0xffffffff00000000ULL | mem_.read(mem_addr(1), 4)); break;
    case Mnemonic::fld: wf(mem_.read(mem_addr(1), 8)); break;
    case Mnemonic::fsw: mem_.write(mem_addr(1), fr(0) & 0xffffffffULL, 4); break;
    case Mnemonic::fsd: mem_.write(mem_addr(1), fr(0), 8); break;
    case Mnemonic::fmv_x_w:
      wx(static_cast<std::uint64_t>(sext(fr(1), 32)));
      break;
    case Mnemonic::fmv_w_x: wf(0xffffffff00000000ULL | zext(xr(1), 32)); break;
    case Mnemonic::fmv_x_d: wx(fr(1)); break;
    case Mnemonic::fmv_d_x: wf(xr(1)); break;

    // ---- D arithmetic ----
    case Mnemonic::fadd_d: wf(from_double(as_double(fr(1)) + as_double(fr(2)))); break;
    case Mnemonic::fsub_d: wf(from_double(as_double(fr(1)) - as_double(fr(2)))); break;
    case Mnemonic::fmul_d: wf(from_double(as_double(fr(1)) * as_double(fr(2)))); break;
    case Mnemonic::fdiv_d: wf(from_double(as_double(fr(1)) / as_double(fr(2)))); break;
    case Mnemonic::fsqrt_d: wf(from_double(std::sqrt(as_double(fr(1))))); break;
    case Mnemonic::fmadd_d:
      wf(from_double(std::fma(as_double(fr(1)), as_double(fr(2)), as_double(fr(3)))));
      break;
    case Mnemonic::fmsub_d:
      wf(from_double(std::fma(as_double(fr(1)), as_double(fr(2)), -as_double(fr(3)))));
      break;
    case Mnemonic::fnmsub_d:
      wf(from_double(std::fma(-as_double(fr(1)), as_double(fr(2)), as_double(fr(3)))));
      break;
    case Mnemonic::fnmadd_d:
      wf(from_double(std::fma(-as_double(fr(1)), as_double(fr(2)), -as_double(fr(3)))));
      break;
    case Mnemonic::fsgnj_d:
      wf((fr(1) & ~(1ULL << 63)) | (fr(2) & (1ULL << 63)));
      break;
    case Mnemonic::fsgnjn_d:
      wf((fr(1) & ~(1ULL << 63)) | (~fr(2) & (1ULL << 63)));
      break;
    case Mnemonic::fsgnjx_d: wf(fr(1) ^ (fr(2) & (1ULL << 63))); break;
    case Mnemonic::fmin_d:
      wf(from_double(std::fmin(as_double(fr(1)), as_double(fr(2)))));
      break;
    case Mnemonic::fmax_d:
      wf(from_double(std::fmax(as_double(fr(1)), as_double(fr(2)))));
      break;
    case Mnemonic::feq_d: wx(as_double(fr(1)) == as_double(fr(2)) ? 1 : 0); break;
    case Mnemonic::flt_d: wx(as_double(fr(1)) < as_double(fr(2)) ? 1 : 0); break;
    case Mnemonic::fle_d: wx(as_double(fr(1)) <= as_double(fr(2)) ? 1 : 0); break;
    case Mnemonic::fclass_d: wx(fclass_of(as_double(fr(1)))); break;
    case Mnemonic::fcvt_w_d: wx(static_cast<std::uint64_t>(sext(fcvt_to_int<std::int32_t>(as_double(fr(1))), 32))); break;
    case Mnemonic::fcvt_wu_d: wx(static_cast<std::uint64_t>(sext(fcvt_to_int<std::uint32_t>(as_double(fr(1))), 32))); break;
    case Mnemonic::fcvt_l_d: wx(fcvt_to_int<std::int64_t>(as_double(fr(1)))); break;
    case Mnemonic::fcvt_lu_d: wx(fcvt_to_int<std::uint64_t>(as_double(fr(1)))); break;
    case Mnemonic::fcvt_d_w: wf(from_double(static_cast<double>(static_cast<std::int32_t>(xr(1))))); break;
    case Mnemonic::fcvt_d_wu: wf(from_double(static_cast<double>(static_cast<std::uint32_t>(xr(1))))); break;
    case Mnemonic::fcvt_d_l: wf(from_double(static_cast<double>(static_cast<std::int64_t>(xr(1))))); break;
    case Mnemonic::fcvt_d_lu: wf(from_double(static_cast<double>(xr(1)))); break;
    case Mnemonic::fcvt_d_s: wf(from_double(static_cast<double>(as_float(fr(1))))); break;
    case Mnemonic::fcvt_s_d: wf(box_float(static_cast<float>(as_double(fr(1))))); break;

    // ---- F arithmetic ----
    case Mnemonic::fadd_s: wf(box_float(as_float(fr(1)) + as_float(fr(2)))); break;
    case Mnemonic::fsub_s: wf(box_float(as_float(fr(1)) - as_float(fr(2)))); break;
    case Mnemonic::fmul_s: wf(box_float(as_float(fr(1)) * as_float(fr(2)))); break;
    case Mnemonic::fdiv_s: wf(box_float(as_float(fr(1)) / as_float(fr(2)))); break;
    case Mnemonic::fsqrt_s: wf(box_float(std::sqrt(as_float(fr(1))))); break;
    case Mnemonic::fmadd_s:
      wf(box_float(std::fma(as_float(fr(1)), as_float(fr(2)), as_float(fr(3)))));
      break;
    case Mnemonic::fmsub_s:
      wf(box_float(std::fma(as_float(fr(1)), as_float(fr(2)), -as_float(fr(3)))));
      break;
    case Mnemonic::fnmsub_s:
      wf(box_float(std::fma(-as_float(fr(1)), as_float(fr(2)), as_float(fr(3)))));
      break;
    case Mnemonic::fnmadd_s:
      wf(box_float(std::fma(-as_float(fr(1)), as_float(fr(2)), -as_float(fr(3)))));
      break;
    case Mnemonic::fsgnj_s: {
      const std::uint32_t a = static_cast<std::uint32_t>(fr(1));
      const std::uint32_t b = static_cast<std::uint32_t>(fr(2));
      wf(0xffffffff00000000ULL | ((a & 0x7fffffffu) | (b & 0x80000000u)));
      break;
    }
    case Mnemonic::fsgnjn_s: {
      const std::uint32_t a = static_cast<std::uint32_t>(fr(1));
      const std::uint32_t b = static_cast<std::uint32_t>(fr(2));
      wf(0xffffffff00000000ULL | ((a & 0x7fffffffu) | (~b & 0x80000000u)));
      break;
    }
    case Mnemonic::fsgnjx_s: {
      const std::uint32_t a = static_cast<std::uint32_t>(fr(1));
      const std::uint32_t b = static_cast<std::uint32_t>(fr(2));
      wf(0xffffffff00000000ULL | (a ^ (b & 0x80000000u)));
      break;
    }
    case Mnemonic::fmin_s: wf(box_float(std::fmin(as_float(fr(1)), as_float(fr(2))))); break;
    case Mnemonic::fmax_s: wf(box_float(std::fmax(as_float(fr(1)), as_float(fr(2))))); break;
    case Mnemonic::feq_s: wx(as_float(fr(1)) == as_float(fr(2)) ? 1 : 0); break;
    case Mnemonic::flt_s: wx(as_float(fr(1)) < as_float(fr(2)) ? 1 : 0); break;
    case Mnemonic::fle_s: wx(as_float(fr(1)) <= as_float(fr(2)) ? 1 : 0); break;
    case Mnemonic::fclass_s: wx(fclass_of(as_float(fr(1)))); break;
    case Mnemonic::fcvt_w_s: wx(static_cast<std::uint64_t>(sext(fcvt_to_int<std::int32_t>(as_float(fr(1))), 32))); break;
    case Mnemonic::fcvt_wu_s: wx(static_cast<std::uint64_t>(sext(fcvt_to_int<std::uint32_t>(as_float(fr(1))), 32))); break;
    case Mnemonic::fcvt_l_s: wx(fcvt_to_int<std::int64_t>(as_float(fr(1)))); break;
    case Mnemonic::fcvt_lu_s: wx(fcvt_to_int<std::uint64_t>(as_float(fr(1)))); break;
    case Mnemonic::fcvt_s_w: wf(box_float(static_cast<float>(static_cast<std::int32_t>(xr(1))))); break;
    case Mnemonic::fcvt_s_wu: wf(box_float(static_cast<float>(static_cast<std::uint32_t>(xr(1))))); break;
    case Mnemonic::fcvt_s_l: wf(box_float(static_cast<float>(static_cast<std::int64_t>(xr(1))))); break;
    case Mnemonic::fcvt_s_lu: wf(box_float(static_cast<float>(xr(1)))); break;

    default:
      return false;
  }
  return true;
}

StopReason Machine::syscall() {
  const std::uint64_t nr = get_x(17);  // a7
  const std::uint64_t a0 = get_x(10), a1 = get_x(11), a2 = get_x(12);
  switch (nr) {
    case 64: {  // write(fd, buf, count)
      if (a0 == 1 || a0 == 2) {
        std::string chunk(a2, '\0');
        mem_.read_bytes(a1, reinterpret_cast<std::uint8_t*>(chunk.data()), a2);
        out_ += chunk;
      }
      set_x(10, a2);
      break;
    }
    case 93:  // exit
    case 94:  // exit_group
      exit_code_ = static_cast<int>(a0);
      return StopReason::Exited;
    case 113: {  // clock_gettime(clk, *ts) — virtual cycle clock
      const std::uint64_t ns = virtual_ns();
      mem_.write(a1, ns / 1'000'000'000ULL, 8);
      mem_.write(a1 + 8, ns % 1'000'000'000ULL, 8);
      set_x(10, 0);
      break;
    }
    case 214:  // brk
      if (a0 != 0) {
        if (a0 > brk_) mem_.map(brk_, a0 - brk_);
        brk_ = a0;
      }
      set_x(10, brk_);
      break;
    case 222: {  // mmap(addr, len, ...) — anonymous only
      const std::uint64_t len = align_up(a1 ? a1 : 1, Memory::kPageSize);
      const std::uint64_t base = mmap_top_;
      mem_.map(base, len);
      mmap_top_ += len;
      set_x(10, base);
      break;
    }
    case 57:   // close
    case 80:   // fstat
    case 96:   // set_tid_address
    case 98:   // futex
    case 160:  // uname
    case 174:  // getuid-family
      set_x(10, 0);
      break;
    default:
      return StopReason::BadSyscall;
  }
  return StopReason::Running;
}

}  // namespace rvdyn::emu
