#include "stackwalk/stackwalker.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "dataflow/stack_height.hpp"
#include "emu/machine.hpp"
#include "proccontrol/process.hpp"

namespace rvdyn::stackwalk {

namespace {

/// ThreadAccess over a debugger-controlled process.
class ProcessAccess : public ThreadAccess {
 public:
  explicit ProcessAccess(proccontrol::Process& p) : p_(p) {}
  std::uint64_t pc() const override { return p_.pc(); }
  std::uint64_t get_reg(isa::Reg r) const override { return p_.get_reg(r); }
  std::uint64_t read_mem(std::uint64_t addr, unsigned size) const override {
    return p_.machine().memory().peek(addr, size);
  }
  const std::uint8_t* page_data(std::uint64_t addr) const override {
    return p_.machine().memory().page_data(addr);
  }

 private:
  proccontrol::Process& p_;
};

static_assert(std::is_trivially_copyable_v<Frame>);

/// The caller's frame-pointer value at `loc`'s point: still in x8 when the
/// function has not touched it, else loaded from the prologue's save slot,
/// else unknown (0). Returning the callee's register value when the callee
/// repurposed x8 would hand FramePointerStepper a stale chain and let it
/// fabricate frames.
std::uint64_t recover_caller_fp(WalkContext& ctx, const Location& loc,
                                const Frame& frame, std::uint64_t entry_sp) {
  if (loc.point->state.fp_original) return frame.fp;
  const auto slot = loc.analysis->fp_save_slot();
  if (slot && loc.point->fp_saved)
    return ctx.read_word(entry_sp + static_cast<std::uint64_t>(*slot));
  return 0;
}

}  // namespace

std::uint64_t MachineAccess::pc() const { return m_.pc(); }

std::uint64_t MachineAccess::get_reg(isa::Reg r) const {
  return m_.get_reg(r);
}

std::uint64_t MachineAccess::read_mem(std::uint64_t addr,
                                      unsigned size) const {
  // peek, not read(): the zero-fill-on-touch path would map pages as a
  // side effect of the walker probing a garbage pointer, and a sampler
  // must leave the sampled machine bit-identical.
  return m_.memory().peek(addr, size);
}

const std::uint8_t* MachineAccess::page_data(std::uint64_t addr) const {
  return m_.memory().page_data(addr);
}

WalkContext::WalkContext(ThreadAccess& thread, const parse::CodeObject& co)
    : thread_(thread), co_(co) {}

WalkContext::~WalkContext() = default;

const dataflow::StackHeightAnalysis& WalkContext::analysis(
    const parse::Function& f) {
  auto& slot = analyses_[&f];
  if (!slot) slot = std::make_unique<dataflow::StackHeightAnalysis>(f);
  return *slot;
}

void WalkContext::invalidate_analyses() {
  analyses_.clear();
  memo_.fill(Memo{});
}

WalkContext::Memo& WalkContext::memo(std::uint64_t pc) {
  Memo& m = memo_[(pc >> 1) % kMemoSlots];
  if (m.pc != pc) {
    m = Memo{};
    m.pc = pc;
  }
  return m;
}

Location WalkContext::locate(std::uint64_t pc) {
  Memo& m = memo(pc);
  if (!m.located) {
    if (const parse::Function* f = co_.function_containing(pc)) {
      m.loc.func = f;
      m.loc.analysis = &analysis(*f);
      m.loc.point = m.loc.analysis->point_at(pc);
    }
    m.located = true;
  }
  return m.loc;
}

bool WalkContext::plausible_code_addr(std::uint64_t pc) {
  if (pc == 0) return false;
  Memo& m = memo(pc);
  if (!m.code_known) {
    m.in_code = co_.symtab().in_code(pc);
    m.code_known = true;
  }
  return m.in_code;
}

std::uint64_t WalkContext::read_word(std::uint64_t addr) {
  constexpr std::uint64_t kPageSize = emu::Memory::kPageSize;
  const std::uint64_t off = addr & (kPageSize - 1);
  if (off > kPageSize - 8) return thread_.read_mem(addr, 8);
  const std::uint64_t num = addr >> emu::Memory::kPageBits;
  if (num != page_num_) {
    page_ = thread_.page_data(addr);
    page_num_ = num;
  }
  if (!page_) return 0;
  std::uint64_t v = 0;
  std::memcpy(&v, page_ + off, 8);
  return v;
}

std::optional<Frame> FramePointerStepper::step(WalkContext& ctx,
                                               const Frame& frame) {
  // RISC-V fp-chain layout: [fp-8] = saved ra, [fp-16] = caller's fp.
  const std::uint64_t fp = frame.fp;
  if (fp == 0 || (fp & 7) != 0) return std::nullopt;
  if (fp <= frame.sp || fp - frame.sp > (1u << 20)) return std::nullopt;
  const std::uint64_t ra = ctx.read_word(fp - 8);
  const std::uint64_t caller_fp = ctx.read_word(fp - 16);
  if (!ctx.plausible_code_addr(ra)) return std::nullopt;
  Frame out;
  out.pc = ra;
  out.sp = fp;  // caller's sp when it made the call
  out.fp = caller_fp;
  return out;
}

std::optional<Frame> SpHeightStepper::step(WalkContext& ctx,
                                           const Frame& frame) {
  const Location loc = ctx.locate(frame.pc);
  if (!loc.point || !loc.point->state.sp) return std::nullopt;
  const auto slot = loc.analysis->ra_save_slot();
  // Only step through the save slot when the save provably executed; on a
  // leaf path (or mid-prologue) the LeafStepper's ra register is the truth.
  if (!slot || !loc.point->ra_saved) return std::nullopt;
  const std::uint64_t entry_sp =
      frame.sp - static_cast<std::uint64_t>(*loc.point->state.sp);
  const std::uint64_t ra =
      ctx.read_word(entry_sp + static_cast<std::uint64_t>(*slot));
  if (!ctx.plausible_code_addr(ra)) return std::nullopt;
  Frame out;
  out.pc = ra;
  out.sp = entry_sp;
  out.fp = recover_caller_fp(ctx, loc, frame, entry_sp);
  return out;
}

std::optional<Frame> LeafStepper::step(WalkContext& ctx, const Frame& frame) {
  if (!ctx.plausible_code_addr(frame.ra)) return std::nullopt;
  Frame out;
  out.pc = frame.ra;
  out.sp = frame.sp;
  out.fp = frame.fp;
  // A stop mid-prologue (after `addi sp, sp, -N`, before `sd ra`) has
  // already moved sp: undo the known height so the caller frame carries the
  // caller's sp, and recover the caller's fp if the prologue spilled it.
  const Location loc = ctx.locate(frame.pc);
  if (loc.point && loc.point->state.sp) {
    out.sp = frame.sp - static_cast<std::uint64_t>(*loc.point->state.sp);
    out.fp = recover_caller_fp(ctx, loc, frame, out.sp);
  }
  return out;
}

StackWalker::StackWalker(ThreadAccess& thread, const parse::CodeObject& co)
    : ctx_(thread, co) {
  // Order matters: sp-height is the most precise; leaf-ra only applies to
  // the top frame (ra register still live); the fp chain runs last because
  // a stale fp register in a leaf would otherwise skip the caller's frame.
  steppers_.push_back(std::make_unique<SpHeightStepper>());
  steppers_.push_back(std::make_unique<LeafStepper>());
  steppers_.push_back(std::make_unique<FramePointerStepper>());
}

StackWalker::StackWalker(proccontrol::Process& proc,
                         const parse::CodeObject& co)
    : owned_(std::make_unique<ProcessAccess>(proc)), ctx_(*owned_, co) {
  steppers_.push_back(std::make_unique<SpHeightStepper>());
  steppers_.push_back(std::make_unique<LeafStepper>());
  steppers_.push_back(std::make_unique<FramePointerStepper>());
}

StackWalker::~StackWalker() = default;

void StackWalker::add_stepper(std::unique_ptr<FrameStepper> stepper) {
  steppers_.insert(steppers_.begin(), std::move(stepper));
}

const parse::Function* StackWalker::annotate(Frame* f) {
  const parse::Function* func = ctx_.locate(f->pc).func;
  if (func) {
    f->func_name = func->name();
    f->func_entry = func->entry();
  }
  return func;
}

std::vector<Frame> StackWalker::walk(unsigned max_depth) {
  ctx_.begin_walk();
  std::vector<Frame> out;
  out.reserve(std::min(max_depth, 64u));
  Frame cur;
  ThreadAccess& thread = ctx_.thread();
  cur.pc = thread.pc();
  cur.sp = thread.get_reg(isa::sp);
  cur.fp = thread.get_reg(isa::fp);
  cur.ra = thread.get_reg(isa::ra);
  const parse::Function* cur_func = annotate(&cur);

  // The program's entry function has no caller: once the walk reaches it,
  // stale register contents (ra left over from a completed call) must not
  // fabricate an extra frame above it.
  const parse::Function* entry_func =
      ctx_.locate(ctx_.co().symtab().entry).func;

  for (unsigned depth = 0; depth < max_depth; ++depth) {
    if (entry_func && cur_func == entry_func) {
      cur.stepper = "";
      out.push_back(cur);
      break;
    }
    std::optional<Frame> caller;
    const char* used = "";
    for (const auto& stepper : steppers_) {
      caller = stepper->step(ctx_, cur);
      if (caller) {
        used = stepper->name();
        break;
      }
    }
    cur.stepper = used;
    // Stop when no stepper applies, and on trivial self-loops (corrupt
    // chains).
    const bool last =
        !caller || (caller->pc == cur.pc && caller->sp == cur.sp);
    out.push_back(cur);
    if (last) break;
    cur = *caller;
    cur.ra = 0;  // only the top frame's ra register is meaningful
    cur_func = annotate(&cur);
  }
  return out;
}

}  // namespace rvdyn::stackwalk
