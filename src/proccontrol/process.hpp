// ProcControlAPI: OS-independent process control (paper §2.2, §3.2.6).
//
// Debugger-grade control over an emulated RISC-V process: launch or attach,
// breakpoints (by patching ebreak into the code, exactly as ptrace-based
// debuggers do), memory/register access, and single-stepping. Because
// RISC-V ptrace lacks PTRACE_SINGLESTEP, the paper's port emulates stepping
// with breakpoints; both that emulation and the native step are provided so
// their costs can be compared (bench A5). Resuming from a breakpoint
// executes the saved original instruction in the trap's place (displaced
// stepping) rather than restoring, stepping and re-planting it, so a
// continue writes no code; inserting and removing breakpoints, including
// step_emulated's temporary successor traps, still do. A step allocates
// nothing: its traps live in fixed two-slot arrays, not the breakpoint map.
//
// Dynamic instrumentation: ProcessSpace implements patch::AddressSpace
// over the live (emulated) process, so BinaryEditor::commit_to() installs
// — and revert_from() removes — instrumentation through exactly the same
// engine path as static rewriting: the paper's "attach and instrument a
// running process" flow (Figure 1).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "emu/machine.hpp"
#include "isa/decoder.hpp"
#include "patch/address_space.hpp"
#include "patch/editor.hpp"

namespace rvdyn::proccontrol {

class Process;

/// Dynamic-instrumentation backend of patch::AddressSpace: regions become
/// fresh pages in the emulated memory, code writes go through the
/// machine's decode-cache-invalidating path, and trap entries become
/// debugger-runtime redirects.
class ProcessSpace : public patch::AddressSpace {
 public:
  explicit ProcessSpace(Process* proc) : proc_(proc) {}

  const char* backend() const override { return "process"; }
  void map_region(const patch::MappedRegion& region) override;
  void write_code(std::uint64_t addr, const std::uint8_t* data,
                  std::size_t n) override;
  std::vector<std::uint8_t> read_code(std::uint64_t addr,
                                      std::size_t n) const override;
  void install_traps(const std::vector<patch::TrapEntry>& traps) override;
  void remove_traps(const std::vector<patch::TrapEntry>& traps) override;

 private:
  Process* proc_;
};

/// What stopped the process.
struct Event {
  enum class Kind {
    Stopped,      ///< hit a user breakpoint
    Stepped,      ///< single-step completed
    Exited,       ///< process exited (code in `exit_code`)
    Crashed,      ///< illegal instruction / bad fetch / bad syscall
    LimitReached, ///< step budget exhausted (still runnable)
    WatchHit,     ///< a data watchpoint fired (details in machine().watch_hit())
  };
  Kind kind = Kind::Stopped;
  std::uint64_t addr = 0;
  int exit_code = 0;
};

class Process {
 public:
  /// Spawn: create a fresh process image from `binary` (Figure 1's
  /// create-and-instrument form).
  static std::unique_ptr<Process> launch(const symtab::Symtab& binary);

  /// Attach to an already-running machine (Figure 1's attach form).
  static std::unique_ptr<Process> attach(std::unique_ptr<emu::Machine> m);

  // --- watchpoints (data breakpoints) ---
  unsigned set_watchpoint(std::uint64_t addr, std::uint64_t size,
                          bool on_read = false, bool on_write = true) {
    return machine_->set_watchpoint(addr, size, on_read, on_write);
  }
  void clear_watchpoint(unsigned id) { machine_->clear_watchpoint(id); }

  // --- breakpoints ---
  /// Insert a breakpoint at `addr` (replaces the instruction with a trap of
  /// matching width). Idempotent.
  void insert_breakpoint(std::uint64_t addr);
  void remove_breakpoint(std::uint64_t addr);
  bool has_breakpoint(std::uint64_t addr) const {
    return breakpoints_.count(addr) != 0;
  }

  // --- execution ---
  /// Resume until an event (stepping over a breakpoint at the current pc
  /// first, as debuggers do).
  Event continue_run(std::uint64_t max_steps = ~0ULL);

  /// True hardware-style single-step (what ptrace lacks on RISC-V).
  Event step_native();

  /// Breakpoint-emulated single-step (paper §3.2.6): plant temporary traps
  /// at every possible successor of the current instruction, run, remove.
  Event step_emulated();

  // --- state access ---
  std::uint64_t pc() const { return machine_->pc(); }
  void set_pc(std::uint64_t a) { machine_->set_pc(a); }
  std::uint64_t get_reg(isa::Reg r) const { return machine_->get_reg(r); }
  void set_reg(isa::Reg r, std::uint64_t v) { machine_->set_reg(r, v); }
  std::uint64_t read_mem(std::uint64_t addr, unsigned size) {
    return machine_->memory().read(addr, size);
  }
  void write_mem(std::uint64_t addr, std::uint64_t v, unsigned size) {
    machine_->memory().write(addr, v, size);
  }
  /// Code writes go through the machine so its decode cache invalidates.
  void write_code(std::uint64_t addr, const std::uint8_t* data,
                  std::size_t n) {
    machine_->write_code(addr, data, n);
  }

  // --- dynamic instrumentation ---
  /// This process viewed as a relocation-commit target. The editor's
  /// commit_to(address_space()) is what apply_patch() does.
  patch::AddressSpace& address_space() { return space_; }

  /// Apply a BinaryEditor's PatchPlan to this live process: maps the
  /// patch-area regions, writes the springboards, and installs the trap
  /// table (BinaryEditor::commit_to over address_space()).
  void apply_patch(patch::BinaryEditor& editor);

  /// Remove previously applied instrumentation: restore the original
  /// springboarded bytes and drop the trap redirects — the engine's
  /// first-class removal (BinaryEditor::revert_from). The patch area stays
  /// mapped (execution already inside it finishes normally) but no new
  /// entries divert into it.
  void revert_patch(patch::BinaryEditor& editor);

  /// Install / remove trap-springboard redirects (normally via
  /// apply_patch / revert_patch).
  void install_trap_table(const std::vector<patch::TrapEntry>& traps);
  void remove_trap_table(const std::vector<patch::TrapEntry>& traps);

  // --- profiling (tool-facing "hardware" counter surface) ---
  /// Emulated hardware counter file: instret, cycles, cache hit/miss.
  emu::Machine::HwCounterFile hw_counters() const {
    return machine_->hw_counters();
  }
  /// Per-PC hit/cycle profiling; hits at a block's start address equal the
  /// number of times that block was entered.
  void enable_pc_profile(bool on) { machine_->enable_pc_profile(on); }
  bool pc_profile_enabled() const { return machine_->pc_profile_enabled(); }
  const std::unordered_map<std::uint64_t, emu::Machine::PcCount>& pc_profile()
      const {
    return machine_->pc_profile();
  }
  void clear_pc_profile() { machine_->clear_pc_profile(); }

  emu::Machine& machine() { return *machine_; }
  const emu::Machine& machine() const { return *machine_; }

 private:
  explicit Process(std::unique_ptr<emu::Machine> m)
      : machine_(std::move(m)) {}

  /// The instruction bytes a planted trap displaced.
  struct SavedBytes {
    std::array<std::uint8_t, 4> bytes{};
    std::uint8_t size = 0;  ///< 2 or 4
  };
  /// Up to two possible successor pcs of one instruction.
  struct Successors {
    std::array<std::uint64_t, 2> pc{};
    unsigned n = 0;  ///< 0 when the instruction does not decode
  };

  /// Width (2 or 4) of the instruction at `addr`.
  unsigned insn_width_at(std::uint64_t addr);
  /// Write a trap of matching width over the instruction at `addr`.
  SavedBytes plant_trap(std::uint64_t addr);
  void restore(std::uint64_t addr, const SavedBytes& saved) {
    machine_->write_code(addr, saved.bytes.data(), saved.size);
  }
  /// All possible successor pcs of the instruction at `addr`.
  Successors successors_of(std::uint64_t addr);
  /// Map a machine stop to an Event, applying trap-table redirects.
  std::optional<Event> translate_stop(emu::StopReason r);
  /// Step across a breakpoint at the current pc by executing its saved
  /// original instruction (the trap stays planted); returns the machine's
  /// stop reason when the stepped instruction itself terminated/faulted.
  emu::StopReason step_over_breakpoint();

  std::unique_ptr<emu::Machine> machine_;
  ProcessSpace space_{this};
  isa::Decoder decoder_;  ///< step_emulated's; publishes its tallies once
  std::map<std::uint64_t, SavedBytes> breakpoints_;
  std::map<std::uint64_t, std::uint64_t> trap_redirects_;
};

}  // namespace rvdyn::proccontrol
