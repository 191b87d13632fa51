#include "proccontrol/process.hpp"

#include "isa/decoder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvdyn::proccontrol {

namespace {

using emu::Machine;
using emu::StopReason;

constexpr std::uint8_t kEbreak32[4] = {0x73, 0x00, 0x10, 0x00};
constexpr std::uint8_t kEbreak16[2] = {0x02, 0x90};  // c.ebreak

}  // namespace

std::unique_ptr<Process> Process::launch(const symtab::Symtab& binary) {
  auto m = std::make_unique<Machine>(binary.extensions());
  m->load(binary);
  return std::unique_ptr<Process>(new Process(std::move(m)));
}

std::unique_ptr<Process> Process::attach(std::unique_ptr<emu::Machine> m) {
  return std::unique_ptr<Process>(new Process(std::move(m)));
}

unsigned Process::insn_width_at(std::uint64_t addr) {
  const std::uint16_t half =
      static_cast<std::uint16_t>(machine_->memory().read(addr, 2));
  return isa::is_compressed_encoding(half) ? 2u : 4u;
}

Process::SavedBytes Process::plant_trap(std::uint64_t addr) {
  RVDYN_OBS_COUNT("rvdyn.proc.breakpoints_inserted");
  SavedBytes saved;
  saved.size = static_cast<std::uint8_t>(insn_width_at(addr));
  machine_->memory().read_bytes(addr, saved.bytes.data(), saved.size);
  machine_->write_code(addr, saved.size == 2 ? kEbreak16 : kEbreak32,
                       saved.size);
  return saved;
}

void Process::insert_breakpoint(std::uint64_t addr) {
  if (breakpoints_.count(addr)) return;
  breakpoints_.emplace(addr, plant_trap(addr));
}

void Process::remove_breakpoint(std::uint64_t addr) {
  auto it = breakpoints_.find(addr);
  if (it == breakpoints_.end()) return;
  restore(addr, it->second);
  breakpoints_.erase(it);
}

std::optional<Event> Process::translate_stop(StopReason r) {
  switch (r) {
    case StopReason::Exited:
      return Event{Event::Kind::Exited, machine_->pc(),
                   machine_->exit_code()};
    case StopReason::Breakpoint: {
      const std::uint64_t at = machine_->pc();
      // Trap springboards redirect silently (the paper's §3.1.2 worst-case
      // entry patch); real breakpoints surface to the tool.
      auto redirect = trap_redirects_.find(at);
      if (redirect != trap_redirects_.end() && !breakpoints_.count(at)) {
        RVDYN_OBS_COUNT("rvdyn.proc.trap_redirects");
        machine_->set_pc(redirect->second);
        // Each springboard trap costs a debugger round trip (§3.1.2's
        // "inefficient" worst case); charge it to the virtual clock.
        machine_->add_cycles(machine_->cycle_model().trap_roundtrip);
        return std::nullopt;  // keep running
      }
      return Event{Event::Kind::Stopped, at, 0};
    }
    case StopReason::Watchpoint:
      return Event{Event::Kind::WatchHit, machine_->watch_hit().pc, 0};
    case StopReason::Running:
      return Event{Event::Kind::LimitReached, machine_->pc(), 0};
    default:
      return Event{Event::Kind::Crashed, machine_->pc(), 0};
  }
}

StopReason Process::step_over_breakpoint() {
  const std::uint64_t at = machine_->pc();
  auto it = breakpoints_.find(at);
  if (it == breakpoints_.end()) return StopReason::Running;
  // Execute the saved original instruction in place of the trap, the way
  // displaced-stepping debuggers do, instead of ptrace's restore / step /
  // re-insert dance: same architectural effect, but no code write, so no
  // decoded or compiled code covering the breakpoint is evicted. The
  // stepped instruction may itself terminate the process (an exiting
  // ecall) or fault; that outcome must surface, not be swallowed.
  return machine_->step_bytes(it->second.bytes.data(), it->second.size);
}

Event Process::continue_run(std::uint64_t max_steps) {
  RVDYN_OBS_SPAN("rvdyn.proc.continue_run");
  const StopReason stepped = step_over_breakpoint();
  if (stepped != StopReason::Running) {
    if (auto ev = translate_stop(stepped)) return *ev;
  }
  std::uint64_t budget = max_steps;
  while (true) {
    const StopReason r = machine_->run(budget);
    budget = max_steps;  // each resume gets the full budget
    if (auto ev = translate_stop(r)) return *ev;
  }
}

Event Process::step_native() {
  // Breakpoint bytes at pc must not be executed: step the real insn.
  const std::uint64_t at = machine_->pc();
  auto it = breakpoints_.find(at);
  if (it != breakpoints_.end()) {
    step_over_breakpoint();
    return Event{Event::Kind::Stepped, machine_->pc(), 0};
  }
  const StopReason r = machine_->step();
  if (r == StopReason::Running)
    return Event{Event::Kind::Stepped, machine_->pc(), 0};
  if (auto ev = translate_stop(r)) return *ev;
  // A trap redirect happened during the step; report the landing spot.
  return Event{Event::Kind::Stepped, machine_->pc(), 0};
}

Process::Successors Process::successors_of(std::uint64_t addr) {
  std::uint8_t buf[4];
  machine_->memory().read_bytes(addr, buf, 4);
  isa::Instruction insn;
  const unsigned len = decoder_.decode(buf, 4, &insn);
  if (len == 0) return {};
  const std::uint64_t next = addr + len;
  if (insn.is_cond_branch())
    return {{next, addr + static_cast<std::uint64_t>(insn.branch_offset())},
            2};
  if (insn.is_jal())
    return {{addr + static_cast<std::uint64_t>(insn.branch_offset())}, 1};
  if (insn.is_jalr()) {
    const std::uint64_t target =
        (machine_->get_reg(insn.operand(1).reg) +
         static_cast<std::uint64_t>(insn.operand(2).imm)) & ~1ULL;
    return {{target}, 1};
  }
  return {{next}, 1};
}

Event Process::step_emulated() {
  const std::uint64_t at = machine_->pc();
  if (breakpoints_.count(at)) {
    step_over_breakpoint();
    return Event{Event::Kind::Stepped, machine_->pc(), 0};
  }
  const Successors succs = successors_of(at);
  if (succs.n == 0) {  // undecodable: let the machine report the fault
    const StopReason r = machine_->step();
    if (auto ev = translate_stop(r)) return *ev;
    return Event{Event::Kind::Stepped, machine_->pc(), 0};
  }
  // Plant temporary traps at each successor (skipping existing ones),
  // resume, then remove. This is the software single-step of §3.2.6.
  std::array<std::uint64_t, 2> planted{};
  std::array<SavedBytes, 2> saved{};
  unsigned n = 0;
  for (unsigned i = 0; i < succs.n; ++i) {
    const std::uint64_t s = succs.pc[i];
    if (breakpoints_.count(s) || (n != 0 && planted[0] == s)) continue;
    planted[n] = s;
    saved[n++] = plant_trap(s);
  }
  const StopReason r = machine_->run();
  // Last planted first: a trap planted over an earlier one's bytes saved
  // those bytes, so restoring in reverse leaves the original code.
  while (n != 0) {
    --n;
    restore(planted[n], saved[n]);
  }
  if (r == StopReason::Breakpoint) {
    const std::uint64_t stop = machine_->pc();
    auto redirect = trap_redirects_.find(stop);
    if (redirect != trap_redirects_.end() && !breakpoints_.count(stop))
      machine_->set_pc(redirect->second);
    return Event{Event::Kind::Stepped, machine_->pc(), 0};
  }
  if (auto ev = translate_stop(r)) return *ev;
  return Event{Event::Kind::Stepped, machine_->pc(), 0};
}

void Process::install_trap_table(const std::vector<patch::TrapEntry>& traps) {
  for (const auto& t : traps) trap_redirects_[t.from] = t.to;
}

void Process::remove_trap_table(const std::vector<patch::TrapEntry>& traps) {
  for (const auto& t : traps) trap_redirects_.erase(t.from);
}

void Process::apply_patch(patch::BinaryEditor& editor) {
  RVDYN_OBS_SPAN("rvdyn.proc.apply_patch");
  editor.commit_to(space_).throw_if_error();
}

void Process::revert_patch(patch::BinaryEditor& editor) {
  RVDYN_OBS_SPAN("rvdyn.proc.revert_patch");
  editor.revert_from(space_).throw_if_error();
}

// ---- ProcessSpace: the dynamic AddressSpace backend ----------------------

void ProcessSpace::map_region(const patch::MappedRegion& region) {
  // The emulated memory is demand-allocated: writing the bytes maps them.
  proc_->machine().write_code(region.addr, region.bytes.data(),
                              region.bytes.size());
  RVDYN_OBS_COUNT_N("rvdyn.proc.patch_bytes_written", region.bytes.size());
}

void ProcessSpace::write_code(std::uint64_t addr, const std::uint8_t* data,
                              std::size_t n) {
  proc_->machine().write_code(addr, data, n);
  RVDYN_OBS_COUNT_N("rvdyn.proc.patch_bytes_written", n);
}

std::vector<std::uint8_t> ProcessSpace::read_code(std::uint64_t addr,
                                                  std::size_t n) const {
  std::vector<std::uint8_t> out(n);
  proc_->machine().memory().read_bytes(addr, out.data(), n);
  return out;
}

void ProcessSpace::install_traps(const std::vector<patch::TrapEntry>& traps) {
  proc_->install_trap_table(traps);
  RVDYN_OBS_COUNT_N("rvdyn.proc.traps_installed", traps.size());
}

void ProcessSpace::remove_traps(const std::vector<patch::TrapEntry>& traps) {
  proc_->remove_trap_table(traps);
}

}  // namespace rvdyn::proccontrol
