// JitState: the emulator's architectural state laid out for direct access
// from JIT-compiled host code.
//
// The Machine embeds one JitState as its *only* copy of the guest register
// file, so entering and leaving compiled code moves no data: x86-64
// templates address the fields as [rbx + offset] with rbx pinned to the
// JitState base, the threaded-code backend addresses them by precomputed
// byte offsets, and the interpreter reads the same words through the
// Machine accessors. Side-exits therefore materialize full architectural
// state by construction — compiled code keeps instret/cycles up to date at
// block granularity and writes the exit pc before returning.
#pragma once

#include <cstdint>
#include <type_traits>

// Driven by the RVDYN_JIT CMake option (OFF passes RVDYN_JIT_ENABLED=0 on
// the command line); defaults to ON.
#ifndef RVDYN_JIT_ENABLED
#define RVDYN_JIT_ENABLED 1
#endif

namespace rvdyn::emu::jit {

/// Direct-mapped software-TLB geometry: {guest page number -> host page
/// base}. emu::Memory pages never move once allocated, so a filled entry
/// stays valid until its page is freed. Only a snapshot reset frees pages,
/// and it drops those pages' entries (see the invariant on JitState).
inline constexpr unsigned kTlbBits = 8;
inline constexpr unsigned kTlbEntries = 1u << kTlbBits;

/// Side-exit reasons compiled code reports in JitState::exit_kind.
enum ExitKind : std::uint32_t {
  kExitNone = 0,
  kExitEdge = 1,      ///< direct edge (branch/jal) to an unchained target
  kExitDispatch = 2,  ///< jalr target missed the inline dispatch table
  kExitBudget = 3,    ///< next block would overrun the session step budget
  kExitInterp = 4,    ///< next insn needs the interpreter (trap/syscall/...)
};

struct JitState {
  std::uint64_t x[32] = {};  ///< integer registers; x[0] is kept 0 by
                             ///< invariant so templates read it blindly
  std::uint64_t f[32] = {};  ///< FP registers (singles NaN-boxed)
  std::uint64_t pc = 0;
  std::uint64_t instret = 0;
  std::uint64_t cycles = 0;

  // --- session fields (meaningful only while compiled code runs) ---
  std::uint64_t budget = 0;  ///< remaining steps; blocks subtract up front
  std::uint64_t blocks_entered = 0;  ///< compiled blocks entered (stats)
  std::uint64_t dispatch_hits = 0;   ///< inline jalr-table hits (stats)
  std::uint64_t helper_calls = 0;    ///< generic-helper executions (stats)
  std::uint64_t slow_stores = 0;     ///< stores run by the C slow path
  std::uint64_t sink = 0;       ///< x0-write target (threaded backend)
  std::uint32_t exit_kind = 0;  ///< ExitKind of the last side exit
  std::uint32_t exit_edge = 0;  ///< edge id for kExitEdge
  void* machine = nullptr;      ///< owning emu::Machine, for slow helpers
  void* tier = nullptr;         ///< owning jit::Tier

  // Two TLBs: loads fill and probe the read TLB; stores probe a separate
  // write TLB whose entries are only ever installed by the store slow path
  // (which marks the page dirty first). Keeping the fill paths disjoint is
  // what makes dirty-page tracking exact under the JIT — a load must never
  // create an entry an inline store could silently write through.
  //
  // Invariant: a write entry exists only for a page that is dirty-marked,
  // dirty-exempt, or not tracked by a snapshot. Machine::take_snapshot()
  // clears every dirty mark, so it flushes the whole write TLB;
  // Machine::reset_to_snapshot() drops the write entry of each page it
  // cleans and both entries of each page it frees. Exempt pages (the
  // fuzzer's coverage map and scratch) keep their entries across resets.
  std::uint64_t tlb_tag[kTlbEntries];   ///< guest page number, ~0 = empty
  std::uint8_t* tlb_host[kTlbEntries];  ///< host base of that 4KiB page
  std::uint64_t tlb_wtag[kTlbEntries];  ///< write-TLB tags, ~0 = empty
  std::uint8_t* tlb_whost[kTlbEntries]; ///< write-TLB host bases

  JitState() {
    for (unsigned i = 0; i < kTlbEntries; ++i) {
      tlb_tag[i] = ~0ULL;
      tlb_host[i] = nullptr;
      tlb_wtag[i] = ~0ULL;
      tlb_whost[i] = nullptr;
    }
  }

  /// Drop every write-TLB entry. Required after Memory::snapshot() so the
  /// first store into each page goes back through the slow path and marks
  /// the page dirty.
  void flush_write_tlb() {
    for (unsigned i = 0; i < kTlbEntries; ++i) tlb_wtag[i] = ~0ULL;
  }
  /// Drop `page`'s write entry: the page is clean again, so its next store
  /// must re-mark it dirty through the slow path.
  void drop_write_entry(std::uint64_t page) {
    const unsigned i = page & (kTlbEntries - 1);
    if (tlb_wtag[i] == page) tlb_wtag[i] = ~0ULL;
  }
  /// Drop both of `page`'s entries: its host page is being freed.
  void drop_page(std::uint64_t page) {
    const unsigned i = page & (kTlbEntries - 1);
    if (tlb_tag[i] == page) tlb_tag[i] = ~0ULL;
    if (tlb_wtag[i] == page) tlb_wtag[i] = ~0ULL;
  }
};

static_assert(std::is_standard_layout_v<JitState>,
              "compiled code addresses JitState by fixed byte offsets");

}  // namespace rvdyn::emu::jit
