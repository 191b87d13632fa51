// Runtime: the JIT's door into Machine private state, plus the C-ABI slow
// paths emitted code calls for TLB misses, page-crossing accesses, and
// instructions without a template.
#include "emu/jit/jit.hpp"

#if RVDYN_JIT_ENABLED

#include "common/bits.hpp"
#include "emu/jit/jit_ir.hpp"
#include "emu/machine.hpp"

namespace rvdyn::emu::jit {

JitState& Runtime::state(Machine& m) { return m.st_; }
Memory& Runtime::memory(Machine& m) { return m.mem_; }
const CycleModel& Runtime::model(Machine& m) { return m.model_; }
bool Runtime::profiling(Machine& m) { return m.pc_profile_enabled_; }

bool Runtime::exec_value(Machine& m, const isa::Instruction& insn,
                         std::uint64_t pc) {
  return m.exec_value(insn, pc);
}

void Runtime::profile_block(Machine& m, const BlockIR& ir, bool taken) {
  // Bit-exact with the interpreter's per-insn attribution: every retired
  // insn bumps hits and accrues its own cycle charge at its own pc; a
  // taken terminal accrues the redirect extra on top.
  for (const PcCharge& c : ir.charges) {
    Machine::PcCount& e = m.pc_profile_[c.pc];
    ++e.hits;
    e.cycles += c.charge;
  }
  if (taken && ir.term != TermKind::Interp)
    m.pc_profile_[ir.term_pc].cycles += ir.taken_extra;
}

std::uint8_t* Runtime::tlb_fill(JitState& st, std::uint64_t addr) {
  Machine& m = *static_cast<Machine*>(st.machine);
  std::uint8_t* base = m.mem_.page_ptr(addr);  // page base, zero-fill on touch
  const std::uint64_t page = addr >> Memory::kPageBits;
  const unsigned idx = page & (kTlbEntries - 1);
  st.tlb_tag[idx] = page;
  st.tlb_host[idx] = base;
  return base + (addr & (Memory::kPageSize - 1));
}

std::uint8_t* Runtime::tlb_fill_w(JitState& st, std::uint64_t addr) {
  Machine& m = *static_cast<Machine*>(st.machine);
  // page_ptr_w marks the page dirty before the write TLB can serve any
  // inline store to it — the invariant exact dirty tracking rests on.
  std::uint8_t* base = m.mem_.page_ptr_w(addr);
  const std::uint64_t page = addr >> Memory::kPageBits;
  const unsigned idx = page & (kTlbEntries - 1);
  st.tlb_wtag[idx] = page;
  st.tlb_whost[idx] = base;
  // A writable page is readable too; warm the read entry as well.
  st.tlb_tag[idx] = page;
  st.tlb_host[idx] = base;
  return base + (addr & (Memory::kPageSize - 1));
}

}  // namespace rvdyn::emu::jit

using rvdyn::emu::jit::JitState;
using rvdyn::emu::jit::Runtime;

extern "C" std::uint64_t rvdyn_jit_load(JitState* st, std::uint64_t addr,
                                        std::uint32_t size_sign) {
  const unsigned size = size_sign & 0xff;
  auto& m = *static_cast<rvdyn::emu::Machine*>(st->machine);
  std::uint64_t v = Runtime::memory(m).read(addr, size);
  if (size_sign & 0x100)
    v = static_cast<std::uint64_t>(rvdyn::sext(v, 8 * size));
  Runtime::tlb_fill(*st, addr);  // warm the entry for the next access
  return v;
}

extern "C" void rvdyn_jit_store(JitState* st, std::uint64_t addr,
                                std::uint64_t value, std::uint32_t size) {
  auto& m = *static_cast<rvdyn::emu::Machine*>(st->machine);
  ++st->slow_stores;
  Runtime::memory(m).write(addr, value, size);
  Runtime::tlb_fill_w(*st, addr);
}

extern "C" void rvdyn_jit_value(JitState* st, const void* insn,
                                std::uint64_t pc) {
  auto& m = *static_cast<rvdyn::emu::Machine*>(st->machine);
  ++st->helper_calls;
  Runtime::exec_value(m, *static_cast<const rvdyn::isa::Instruction*>(insn),
                      pc);
}

extern "C" void rvdyn_jit_profile(JitState* st, const void* meta,
                                  std::uint64_t taken) {
  auto& m = *static_cast<rvdyn::emu::Machine*>(st->machine);
  Runtime::profile_block(
      m, *static_cast<const rvdyn::emu::jit::BlockIR*>(meta), taken != 0);
}

#endif  // RVDYN_JIT_ENABLED
