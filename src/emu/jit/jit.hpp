// rvdyn::emu::jit — baseline dynamic binary translator for hot basic blocks.
//
// When the interpreter's bcache observes a stable basic block crossing a
// hotness threshold, the Machine hands it to a Tier, which compiles it to
// host code and thereafter executes it natively, chaining compiled blocks
// on their fallthrough/taken edges and resolving jalr targets through an
// inline direct-mapped dispatch table. Two backends implement the Tier
// contract:
//
//  * x64      — copy-and-patch template emission into an RWX mmap arena,
//               guest register file pinned to rbx (x86-64 Linux only, and
//               only where mmap(PROT_EXEC) W^X policy allows an RWX arena);
//  * threaded — tail-dispatched continuation ops (pre-decoded operand
//               programs run through per-op function pointers), the
//               portable fallback.
//
// The side-exit contract: compiled code returns to the session loop with
// full architectural state materialized in the Machine's JitState (pc,
// registers, instret, cycles), so emu::Machine::step() semantics are
// preserved bit-exactly across any exit — trap, syscall, unresolved
// target, or budget exhaustion. Instructions that can trap or read the
// virtual clock mid-block (ecall/ebreak/fence/csr) are never compiled;
// blocks side-exit to the interpreter just before them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "emu/jit/jit_state.hpp"
#include "isa/instruction.hpp"

namespace rvdyn::emu {
class Machine;
class Memory;
struct CycleModel;
}  // namespace rvdyn::emu

namespace rvdyn::emu::jit {

struct BlockIR;

/// Per-retired-instruction profile record: (guest pc, not-taken charge).
struct PcCharge {
  std::uint64_t pc;
  std::uint32_t charge;
};

enum class BackendKind { Auto, X64, Threaded };

/// Why compiled blocks were dropped (mirrors the bcache eviction causes).
enum class InvalidateCause { WriteCode, FenceI, Capacity, Config };

struct Config {
  BackendKind backend = BackendKind::Auto;
  /// Interpreter passes through a cached block before it is compiled.
  std::uint32_t hot_threshold = 16;
  std::size_t arena_bytes = 4u << 20;  ///< x64 code arena size
  std::size_t max_blocks = 4096;       ///< compiled blocks before a full drop
  /// Testing hook: compile this mnemonic *wrong* (flip bit 0 of its result)
  /// so the lockstep oracle's meta-test can prove a bad template is caught.
  isa::Mnemonic sabotage = isa::Mnemonic::kInvalid;
};

struct Stats {
  // compile side
  std::uint64_t blocks_compiled = 0;
  std::uint64_t insns_compiled = 0;
  std::uint64_t compile_rejected = 0;   ///< blocks with no compilable prefix
  std::uint64_t compile_truncated = 0;  ///< blocks cut short of a terminal
  std::uint64_t code_bytes = 0;         ///< host code emitted (x64 backend)
  std::uint64_t compile_ns = 0;         ///< wall time spent compiling
  // run side
  std::uint64_t sessions = 0;        ///< entries from Machine::run
  std::uint64_t blocks_entered = 0;  ///< compiled blocks executed
  std::uint64_t insns_retired = 0;   ///< guest insns retired in compiled code
  std::uint64_t dispatch_hits = 0;   ///< inline jalr-table hits
  std::uint64_t helper_calls = 0;    ///< insns run by the generic helper
  std::uint64_t slow_stores = 0;     ///< stores run by the C slow path
  std::uint64_t exit_edge = 0;       ///< session ends: uncompiled direct edge
  std::uint64_t exit_dispatch = 0;   ///< session ends: uncompiled jalr target
  std::uint64_t exit_budget = 0;     ///< session ends: step budget
  std::uint64_t exit_interp = 0;     ///< session ends: interpreter handoff
  // chaining
  std::uint64_t chains_installed = 0;
  std::uint64_t chains_broken = 0;    ///< unchained by invalidation
  std::uint64_t dispatch_entries = 0; ///< jalr-table installs
  // invalidation (compiled blocks dropped, by cause)
  std::uint64_t evict_write_code = 0;
  std::uint64_t evict_fencei = 0;
  std::uint64_t evict_capacity = 0;
  std::uint64_t evict_config = 0;
};

/// Attribution side-table record for one compiled block: which guest range
/// the host code covers, how many instructions one pass retires, and the
/// per-pc cycle charge vector — everything a profiler needs to map a pc
/// observed at a side-exit (always a precise guest pc; see the side-exit
/// contract above) back to compiled-code occupancy and cost. Kept by the
/// backend-neutral Tier, in sync with compile/invalidate.
struct BlockInfo {
  std::uint64_t start = 0;
  std::uint64_t end = 0;        ///< one past the last compiled guest byte
  std::uint32_t n_retired = 0;  ///< guest insns retired per pass
  std::uint64_t cost_fall = 0;  ///< cycles: fallthrough / not-taken pass
  std::uint64_t cost_taken = 0; ///< cycles: taken pass
  std::vector<PcCharge> charges;  ///< per-insn (pc, not-taken cycles)
};

/// One compiled-code tier. Created lazily by the Machine on the first
/// threshold crossing; all entry points are called from the owning
/// Machine's thread only.
class Tier {
 public:
  /// Resolve `cfg.backend` (Auto prefers x64 when available) and build the
  /// tier. Never fails: the threaded backend has no platform requirements.
  static std::unique_ptr<Tier> create(const Config& cfg);

  virtual ~Tier() = default;

  virtual const char* backend_name() const = 0;

  /// Compile the bcache block starting at `start`. Idempotent: returns true
  /// without work when `start` is already compiled. Returns false when no
  /// compilable prefix exists (the interpreter keeps the block).
  bool compile(Machine& m, std::uint64_t start,
               const std::vector<isa::Instruction>& insns);

  /// Execute compiled code at the machine's pc until a side exit that
  /// cannot be resolved inside the tier. Returns retired instructions
  /// (0 = no code at pc, or a config drift forced a flush). State is fully
  /// materialized on return.
  std::uint64_t execute(Machine& m, std::uint64_t max_steps);

  /// Drop (and unchain) compiled blocks overlapping [lo, hi).
  void invalidate_range(std::uint64_t lo, std::uint64_t hi,
                        InvalidateCause cause);
  /// Drop every compiled block.
  void invalidate_all(InvalidateCause cause);

  /// Attribution side-table lookup: the compiled block whose guest range
  /// [start, end) contains `pc`, or nullptr when `pc` is not inside any
  /// compiled block. Pointers stay valid until the next compile or
  /// invalidation. O(log live_blocks).
  const BlockInfo* block_info(std::uint64_t pc) const;

  /// Monotonic generation; bumped by every invalidation so the Machine's
  /// bcache entries know their compiled copy is gone and re-offer the block.
  std::uint32_t epoch() const { return epoch_; }
  bool has_code() const { return live_blocks_ != 0; }
  std::size_t live_blocks() const { return live_blocks_; }
  const Stats& stats() const { return stats_; }

  /// Push rvdyn.emu.jit.* counter deltas into obs::Registry.
  void publish_metrics();

 protected:
  explicit Tier(const Config& cfg) : cfg_(cfg) {}

  // Backend contract. `drop_*` return the number of blocks dropped.
  virtual bool emit_block(Machine& m, const BlockIR& ir) = 0;
  virtual bool has_block(std::uint64_t pc) const = 0;
  virtual void run_session(Machine& m) = 0;
  virtual std::uint64_t drop_range(std::uint64_t lo, std::uint64_t hi) = 0;
  virtual std::uint64_t drop_all() = 0;

  void charge_eviction(std::uint64_t dropped, InvalidateCause cause);

  Config cfg_;
  Stats stats_;
  Stats published_;  ///< snapshot at the last publish_metrics()
  std::size_t live_blocks_ = 0;
  std::uint32_t epoch_ = 1;  ///< bcache entries default to 0 == "stale"
  /// Attribution records keyed by block start, maintained in lockstep with
  /// the backend's compiled-block set by compile/invalidate_*.
  std::map<std::uint64_t, BlockInfo> infos_;

 private:
  /// Compile-time snapshots; drift (a tool mutating cycle_model() or
  /// toggling the pc profile between runs) invalidates all code so blocks
  /// recompile against the new configuration.
  bool have_snapshot_ = false;
  bool profile_compiled_ = false;
  unsigned char model_snapshot_[64] = {};
  bool config_drifted(Machine& m) const;
  void take_snapshot(Machine& m);
};

/// True when the x64 backend can run here (x86-64 Linux and the kernel's
/// W^X policy admits an RWX anonymous mapping).
bool x64_backend_available();

/// True when the x64 backend compiles fmadd.d, fmsub.d, fnmsub.d and
/// fnmadd.d to one `vfmadd213sd`: the host has FMA3 and AVX2, the condition
/// under which glibc's `fma` (the interpreter's semantics) runs that same
/// instruction. Elsewhere these forms call the generic helper.
bool x64_fma_available();

/// The JIT's only door into Machine private state. Machine befriends
/// Runtime so backends need no public Machine API beyond the debugger
/// surface; every slow-path helper funnels through here.
struct Runtime {
  static JitState& state(Machine& m);
  static Memory& memory(Machine& m);
  static const CycleModel& model(Machine& m);
  static bool profiling(Machine& m);
  /// Interpreter value semantics for one non-control-flow instruction —
  /// the generic fallback that keeps template coverage total without
  /// duplicating semantics.
  static bool exec_value(Machine& m, const isa::Instruction& insn,
                         std::uint64_t pc);
  /// Bump the per-PC profile for one pass through `ir` (taken/not-taken
  /// decides the final insn's extra charge), bit-exact with the
  /// interpreter's per-insn attribution.
  static void profile_block(Machine& m, const BlockIR& ir, bool taken);
  /// Fill the read-TLB entry for `addr`'s page (allocating the page
  /// zero-filled on first touch, matching the interpreter's load/store
  /// semantics) and return the host address of `addr`.
  static std::uint8_t* tlb_fill(JitState& st, std::uint64_t addr);
  /// Fill the write-TLB (and read-TLB) entry for `addr`'s page, marking
  /// the page dirty first so snapshot tracking stays exact under inline
  /// compiled stores.
  static std::uint8_t* tlb_fill_w(JitState& st, std::uint64_t addr);
};

}  // namespace rvdyn::emu::jit

#if RVDYN_JIT_ENABLED
// C-ABI slow paths called from emitted x64 code (SysV calling convention).
extern "C" {
/// Load `size` bytes at `addr`; bit 8 of `size_sign` set = sign-extend.
std::uint64_t rvdyn_jit_load(rvdyn::emu::jit::JitState* st,
                             std::uint64_t addr, std::uint32_t size_sign);
void rvdyn_jit_store(rvdyn::emu::jit::JitState* st, std::uint64_t addr,
                     std::uint64_t value, std::uint32_t size);
/// Generic value-op fallback: run one instruction through the
/// interpreter's exec_value switch.
void rvdyn_jit_value(rvdyn::emu::jit::JitState* st, const void* insn,
                     std::uint64_t pc);
/// Per-PC profile bump for one block pass; `meta` is the backend's
/// ProfileMeta (a BlockIR held alive by the compiled block).
void rvdyn_jit_profile(rvdyn::emu::jit::JitState* st, const void* meta,
                       std::uint64_t taken);
}
#endif
