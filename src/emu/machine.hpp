// RV64GC emulator: the hardware substrate (paper substitution for the
// SiFive P550 board the authors measured on).
//
// Interprets RV64GC user-level code loaded from an ELF model, with a small
// Linux-syscall surface and deterministic instruction/cycle accounting.
// `clock_gettime` reads the virtual cycle clock, so measured overheads are
// a pure function of the instructions the instrumentation adds — exactly
// the quantity the paper's Table (§4.3) reports.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "emu/jit/jit.hpp"
#include "emu/jit/jit_state.hpp"
#include "emu/memory.hpp"
#include "isa/decoder.hpp"
#include "obs/stats.hpp"  // header-only; resolves RVDYN_OBS_ENABLED for
                          // the inline trace_block/sample-hook gates
#include "symtab/symtab.hpp"

namespace rvdyn::emu {

/// Why execution stopped.
enum class StopReason {
  Running,      ///< step budget exhausted, process still runnable
  Exited,       ///< exit/exit_group syscall
  Breakpoint,   ///< executed an ebreak
  IllegalInsn,  ///< bytes did not decode (or out-of-profile instruction)
  BadFetch,     ///< pc in unmapped memory
  BadSyscall,   ///< unknown syscall number
  Watchpoint,   ///< a data watchpoint fired (pc = the accessing insn)
};

/// Cost model: per-instruction cycle charges, loosely following an in-order
/// core like the P550. Deterministic by construction.
struct CycleModel {
  unsigned base = 1;
  unsigned load = 2;
  unsigned store = 1;
  unsigned mul = 3;
  unsigned div = 20;
  unsigned fp = 4;
  unsigned fdiv = 20;
  unsigned branch_taken = 2;  ///< extra pipeline redirect cost included
  /// Cost of one trap-springboard round trip (debugger stop + redirect +
  /// resume) — approximates a ptrace stop on real hardware.
  unsigned trap_roundtrip = 2000;
  std::uint64_t hz = 1'400'000'000;  ///< virtual clock frequency (1.4 GHz)
};

/// Cycle charge for one retired instruction under `model` — the single
/// source of truth shared by the interpreter's per-insn accounting and the
/// JIT's compile-time whole-block cost precomputation.
unsigned insn_cycle_charge(const CycleModel& model,
                           const isa::Instruction& insn, bool taken_branch);

class Machine {
 public:
  explicit Machine(isa::ExtensionSet profile = isa::ExtensionSet::rv64gc())
      : decoder_(profile) {}

  /// Flushes any unpublished cache/decode metrics into obs::Registry.
  ~Machine();

  /// Map every allocatable section of `binary` and point pc at its entry.
  /// Also initializes sp to the top of a fresh stack region.
  void load(const symtab::Symtab& binary);

  /// Execute until a stop condition or until `max_steps` instructions.
  StopReason run(std::uint64_t max_steps = ~0ULL);

  /// Execute exactly one instruction (true hardware single-step — the
  /// facility RISC-V ptrace lacks; ProcControlAPI layers breakpoint-based
  /// stepping on top, per paper §3.2.6).
  StopReason step();

  /// step(), but executing the instruction encoded in `bytes` (n of them)
  /// in place of the one in memory at pc: no code is fetched or written,
  /// so no cached decode or compiled block is evicted. A debugger steps
  /// over a planted breakpoint this way, with the saved original bytes,
  /// and leaves the trap in place.
  StopReason step_bytes(const std::uint8_t* bytes, std::size_t n);

  // --- register and memory access (the debugger surface) ---
  std::uint64_t pc() const { return st_.pc; }
  void set_pc(std::uint64_t pc) { st_.pc = pc; }
  std::uint64_t get_x(unsigned i) const { return i == 0 ? 0 : st_.x[i]; }
  void set_x(unsigned i, std::uint64_t v) {
    if (i != 0) st_.x[i] = v;
  }
  std::uint64_t get_f(unsigned i) const { return st_.f[i]; }
  void set_f(unsigned i, std::uint64_t v) { st_.f[i] = v; }
  std::uint64_t get_reg(isa::Reg r) const {
    return r.cls == isa::RegClass::Int ? get_x(r.num) : get_f(r.num);
  }
  void set_reg(isa::Reg r, std::uint64_t v) {
    if (r.cls == isa::RegClass::Int) set_x(r.num, v);
    else set_f(r.num, v);
  }

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }

  /// Write bytes into the process image and invalidate the decoded-
  /// instruction cache for the touched range (debugger code patching).
  void write_code(std::uint64_t addr, const std::uint8_t* data, std::size_t n);

  // --- accounting ---
  std::uint64_t instret() const { return st_.instret; }
  std::uint64_t cycles() const { return st_.cycles; }

  /// Decoded-code cache traffic (observability builds only; all zero when
  /// RVDYN_OBS_ENABLED=0). Evictions are attributed to their cause so
  /// debugger patching churn (write_code), guest self-modification
  /// (fence.i) and capacity pressure can be told apart.
#define RVDYN_EMU_CACHE_STATS(X)                                        \
  X(icache_hits, "rvdyn.emu.icache.hit")                                \
  X(icache_misses, "rvdyn.emu.icache.miss")                             \
  X(bcache_hits, "rvdyn.emu.bcache.hit")    /* served from cache */     \
  X(bcache_misses, "rvdyn.emu.bcache.miss") /* had to build */          \
  X(blocks_built, "rvdyn.emu.bcache.built")                             \
  X(blocks_entered, "rvdyn.emu.bcache.entered") /* executed by run() */ \
  /* block entries lost to write_code, to fence.i, to the bound */      \
  X(evict_write_code, "rvdyn.emu.bcache.evict.write_code")              \
  X(evict_fencei, "rvdyn.emu.bcache.evict.fencei")                      \
  X(evict_capacity, "rvdyn.emu.bcache.evict.capacity")                  \
  X(fencei_flushes, "rvdyn.emu.fencei_flushes") /* full flushes */
  struct CacheStats {
    RVDYN_STATS(CacheStats, RVDYN_EMU_CACHE_STATS)
  };
  const CacheStats& cache_stats() const { return cstats_; }

  /// The emulator-side "hardware" counter file (paper §4's perf-counter
  /// surface): architectural counters plus the cache traffic a real PMU
  /// would expose. Reads are always valid; `cache` is cache_stats(), all
  /// zero in RVDYN_OBS=OFF builds.
  struct HwCounterFile {
    std::uint64_t instret = 0;
    std::uint64_t cycles = 0;
    CacheStats cache;
  };
  HwCounterFile hw_counters() const {
    return {st_.instret, st_.cycles, cstats_};
  }

  // --- per-PC profiling (emulator-side block frequency ground truth) ---
  /// When enabled, every retired instruction bumps a per-PC hit counter and
  /// accrues its cycle charge there. The hit count at a basic block's start
  /// address is exactly the number of times the block was entered — the
  /// value an instrumentation-based profiler must reproduce.
  void enable_pc_profile(bool on) { pc_profile_enabled_ = on; }
  bool pc_profile_enabled() const { return pc_profile_enabled_; }
  struct PcCount {
    std::uint64_t hits = 0;
    std::uint64_t cycles = 0;
  };
  const std::unordered_map<std::uint64_t, PcCount>& pc_profile() const {
    return pc_profile_;
  }
  void clear_pc_profile() { pc_profile_.clear(); }

  /// Push the cache/decode tallies accumulated since the last publish into
  /// obs::Registry (`rvdyn.emu.*`, `rvdyn.isa.*`) and set the instret /
  /// cycles gauges. No-op in RVDYN_OBS=OFF builds; also runs at destruction.
  void publish_metrics();
  /// Virtual nanoseconds elapsed (cycles / hz).
  std::uint64_t virtual_ns() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(st_.cycles) * 1e9 / static_cast<double>(model_.hz));
  }
  CycleModel& cycle_model() { return model_; }
  /// Charge extra virtual cycles (used by ProcControl for trap redirects).
  void add_cycles(std::uint64_t n) { st_.cycles += n; }

  // --- process state ---
  int exit_code() const { return exit_code_; }
  StopReason last_stop() const { return stop_; }
  /// Address of the faulting/stopping instruction for Breakpoint /
  /// IllegalInsn / BadFetch stops (pc is left at that instruction).
  std::uint64_t stop_pc() const { return st_.pc; }

  /// Captured stdout from write(1/2, ...) syscalls.
  const std::string& output() const { return out_; }

  /// Optional per-instruction hook (tracing tools, tests). Called with the
  /// pc and decoded instruction before it executes.
  using TraceHook = std::function<void(std::uint64_t, const isa::Instruction&)>;
  void set_trace(TraceHook hook) { trace_ = std::move(hook); }

  // --- deterministic sampling hook (obs::Sampler's driver) ---
  /// Called by run() with the machine stopped at an exact instruction
  /// boundary every `interval` retired instructions (instret == k·interval
  /// counted from installation). run() caps its execution slices — JIT
  /// session budgets, whole-block interpretation — at the distance to the
  /// next boundary and single-steps the remainder, so the hook observes the
  /// same (instret, pc, registers, memory) no matter which tier executed
  /// the preceding instructions: profiles sampled at JIT on and off are
  /// byte-identical. The JIT stays engaged; this is what makes sampling
  /// affordable where the per-insn TraceHook is not. Never fires in
  /// RVDYN_OBS=OFF builds (the run-loop checks compile away).
  using SampleHook = std::function<void(Machine&)>;
  void set_sample_hook(std::uint64_t interval, SampleHook hook) {
    sample_interval_ = interval == 0 ? 1 : interval;
    next_sample_ = st_.instret + sample_interval_;
    sample_hook_ = std::move(hook);
  }
  void clear_sample_hook() {
    sample_hook_ = nullptr;
    next_sample_ = ~0ULL;
  }
  std::uint64_t sample_interval() const { return sample_interval_; }

  // --- recent-block ring (postmortem evidence) ---
  /// When enabled, run() records every dispatch target it executes from —
  /// interpreted block entries, JIT session entries, single-step pcs — with
  /// the instret at entry. A trap handler reads back the last-K control-flow
  /// positions that led into the fault. Compiled out (always empty) in
  /// RVDYN_OBS=OFF builds.
  struct BlockTraceEntry {
    std::uint64_t pc = 0;
    std::uint64_t instret = 0;
  };
  void enable_block_trace(bool on) { block_trace_on_ = on; }
  bool block_trace_enabled() const { return block_trace_on_; }
  /// Ring contents, oldest first.
  std::vector<BlockTraceEntry> recent_blocks() const;
  void clear_block_trace() {
    block_trace_count_ = 0;
    block_trace_next_ = 0;
  }

  // --- snapshot / microsecond reset (the fuzzing substrate) ---
  /// Everything take_snapshot() captures outside guest memory: the full
  /// register file plus the Machine's process-model state. Guest memory is
  /// captured inside Memory (dirty-page snapshot), so reset cost scales
  /// with pages *touched*, not pages mapped.
  struct Snapshot {
    std::uint64_t x[32] = {};
    std::uint64_t f[32] = {};
    std::uint64_t pc = 0;
    std::uint64_t instret = 0;
    std::uint64_t cycles = 0;
    std::uint64_t brk = 0;
    std::uint64_t mmap_top = 0;
    std::uint64_t reservation = 0;
    std::unordered_map<std::int64_t, std::uint64_t> csr_scratch;
    int exit_code = 0;
    StopReason stop = StopReason::Running;
    std::size_t out_size = 0;  ///< captured-stdout length at snapshot time
  };

  struct RestoreStats {
    std::size_t pages_restored = 0;  ///< dirty pages copied back
    std::size_t pages_dropped = 0;   ///< post-snapshot pages unmapped
    bool code_invalidated = false;   ///< a restored page held cached code
  };

  /// Capture registers + process state and arm Memory's dirty tracking.
  /// Also flushes the JIT write TLB so the first post-snapshot store into
  /// each page re-marks it dirty.
  Snapshot take_snapshot();

  /// Rewind to `s`: restore registers/process state, copy back only the
  /// dirty pages, unmap post-snapshot pages, and drop exactly those pages'
  /// JIT TLB entries that would outlive their dirty mark or their page.
  /// When a restored or dropped page overlaps code that has been fetched,
  /// the decoded caches and compiled JIT blocks covering exactly those
  /// pages are evicted (the precise write_code discipline extended to
  /// snapshot restore) — compiled code for untouched pages survives, which
  /// is what keeps reset microsecond-scale.
  RestoreStats reset_to_snapshot(const Snapshot& s);

  // --- data watchpoints (hardware-debug-register analogue) ---
  /// Stop with StopReason::Watchpoint when [addr, addr+size) is accessed.
  /// The triggering instruction completes first; pc is left *after* it and
  /// watch_hit() describes the access. Returns a watchpoint id.
  unsigned set_watchpoint(std::uint64_t addr, std::uint64_t size,
                          bool on_read, bool on_write);
  void clear_watchpoint(unsigned id);

  struct WatchHit {
    unsigned id = 0;
    std::uint64_t addr = 0;   ///< accessed address
    std::uint64_t pc = 0;     ///< instruction that accessed it
    bool was_write = false;
  };
  const WatchHit& watch_hit() const { return watch_hit_; }

#if RVDYN_JIT_ENABLED
  // --- JIT tier (compiled-code execution engine behind run()) ---
  /// Tier configuration. Changes apply to future compiles; the tier itself
  /// is created lazily on the first hotness-threshold crossing. To force a
  /// clean slate after edits, toggle set_jit_enabled(false/true).
  jit::Config& jit_config() { return jit_cfg_; }
  void set_jit_enabled(bool on);
  bool jit_enabled() const { return jit_enabled_; }
  /// The live tier, or nullptr before any block turned hot.
  const jit::Tier* jit_tier() const { return jit_.get(); }
  /// Tier statistics (zeroes before the tier exists).
  jit::Stats jit_stats() const { return jit_ ? jit_->stats() : jit::Stats{}; }
#endif

  // Stack layout constants.
  static constexpr std::uint64_t kStackTop = 0x7f000000;
  static constexpr std::uint64_t kStackSize = 0x100000;  // 1 MiB

 private:
  friend struct jit::Runtime;

  StopReason exec_one();
  /// Execute one already-fetched instruction: trace hook, watchpoints,
  /// control flow and trap dispatch, accounting, pc update. Shared by
  /// exec_one and the cached-block loop in run().
  StopReason exec_insn(const isa::Instruction& insn, unsigned len);
  /// Pure architectural value effect (registers/memory/reservation) of one
  /// non-control-flow, non-trapping instruction — no pc/accounting/hooks.
  /// The switch the JIT's generic helper reuses so template coverage never
  /// duplicates semantics. Returns false for unknown mnemonics.
  bool exec_value(const isa::Instruction& insn, std::uint64_t pc);
  bool fetch(std::uint64_t pc, isa::Instruction* out, unsigned* len);
  StopReason syscall();
  void charge(const isa::Instruction& insn, bool taken_branch);

  isa::Decoder decoder_;
  Memory mem_;
  /// The architectural state, laid out for direct access from JIT-compiled
  /// code (x/f/pc/instret/cycles live here; the accessors above read it).
  jit::JitState st_;
  std::uint64_t brk_ = 0x50000000;
  std::uint64_t mmap_top_ = 0x60000000;
  std::uint64_t reservation_ = ~0ULL;  ///< lr/sc reservation address
  std::unordered_map<std::int64_t, std::uint64_t> csr_scratch_;
  CycleModel model_;
  int exit_code_ = 0;
  StopReason stop_ = StopReason::Running;
  std::string out_;
  TraceHook trace_;

  // --- decoded-code caches -------------------------------------------------
  // Two levels replace the old per-PC unordered_map:
  //  * a direct-mapped, tag-checked predecoded cache (one hash-free probe
  //    per fetch; len == 0 caches "these bytes do not decode"), and
  //  * a basic-block cache of straight-line decoded runs, so run() executes
  //    whole blocks without per-instruction fetch/dispatch.
  // Invalidation: write_code evicts precisely; fence.i flushes everything
  // (deferred via flush_pending_ so a fence.i *inside* a cached block does
  // not destroy the vector being iterated).
  struct ICacheLine {
    std::uint64_t tag = ~0ULL;  ///< pc of the cached decode, ~0 = empty
    unsigned len = 0;           ///< 0 = pc does not decode (cached failure)
    isa::Instruction insn;
  };
  static constexpr std::size_t kICacheLines = 4096;  // 2-byte-granular index
  std::vector<ICacheLine> icache_ = std::vector<ICacheLine>(kICacheLines);

  struct BlockEntry {
    std::uint64_t start = 0;
    std::uint64_t end = 0;  ///< one past the last decoded byte
    std::vector<isa::Instruction> insns;
    std::uint32_t exec_count = 0;  ///< run() entries (JIT hotness counter)
    std::uint32_t jit_epoch = 0;   ///< tier epoch this block was offered in
  };
  static constexpr std::size_t kMaxBlockInsns = 256;
  static constexpr std::size_t kMaxBlocks = 16384;  // crude size bound
  std::unordered_map<std::uint64_t, BlockEntry> bcache_;
  /// Deferred full-flush reasons (bitmask); flushed at the next safe point
  /// so a fence.i or write_code *inside* a cached block does not destroy
  /// the vector being iterated. The reason decides which eviction counter
  /// the dropped entries are charged to.
  enum : std::uint8_t { kFlushFenceI = 1, kFlushWriteCode = 2 };
  std::uint8_t flush_pending_ = 0;
  bool in_block_ = false;  ///< run() is iterating a cached block

  /// Cached block starting at `pc`, building it on miss; nullptr when the
  /// first instruction does not fetch (caller falls back to exec_one for
  /// the fault path).
  BlockEntry* lookup_or_build_block(std::uint64_t pc);
  void flush_code_caches();
  /// Precise eviction of decoded/compiled code overlapping [lo, hi) —
  /// write_code's invalidation body, shared with snapshot restore.
  void evict_code_range(std::uint64_t lo, std::uint64_t hi);

#if RVDYN_JIT_ENABLED
  jit::Config jit_cfg_;
  std::unique_ptr<jit::Tier> jit_;  ///< created lazily on first hot block
  bool jit_enabled_ = true;
#endif

  struct Watchpoint {
    unsigned id;
    std::uint64_t addr, size;
    bool on_read, on_write;
  };
  CacheStats cstats_;
  CacheStats published_;  ///< snapshot at the last publish_metrics()
  bool pc_profile_enabled_ = false;
  std::unordered_map<std::uint64_t, PcCount> pc_profile_;

  // --- sampling + postmortem block trace (run()-loop hooks) ---
  SampleHook sample_hook_;
  std::uint64_t sample_interval_ = 0;
  std::uint64_t next_sample_ = ~0ULL;  ///< instret of the next sample point

  static constexpr std::size_t kBlockTraceCap = 64;
  bool block_trace_on_ = false;
  std::uint64_t block_trace_count_ = 0;  ///< total recorded (≥ ring size)
  std::size_t block_trace_next_ = 0;
  BlockTraceEntry block_trace_[kBlockTraceCap];
  void trace_block(std::uint64_t pc) {
#if RVDYN_OBS_ENABLED
    if (!block_trace_on_) return;
    block_trace_[block_trace_next_] = {pc, st_.instret};
    block_trace_next_ = (block_trace_next_ + 1) % kBlockTraceCap;
    ++block_trace_count_;
#else
    (void)pc;
#endif
  }

  std::vector<Watchpoint> watchpoints_;
  unsigned next_watch_id_ = 1;
  WatchHit watch_hit_;
  /// Check the instruction's memory operand against the watch list; fills
  /// watch_hit_ and returns true when one fires.
  bool check_watchpoints(std::uint64_t pc, const isa::Instruction& insn);
};

}  // namespace rvdyn::emu
