// rvdyn::fuzz — snapshot fuzzing engine built from the toolkits below it.
//
// Three pieces, each exercising a different layer of the stack:
//
//  * weave_coverage()  — PatchAPI static rewriting inserts an AFL-style
//    edge-hash snippet at every basic-block entry: each block hashes
//    `prev_block ^ cur_block` into a 64 KiB byte map living at a fixed
//    guest address, and bumps a `new_edges` counter the first time a map
//    slot goes nonzero. A lit slot holds `(hits << 1) | 1` mod 256, so it
//    never reads zero again and `new_edges` fires only on real novelty.
//    All bookkeeping is guest memory — no host callouts on the hot path,
//    so woven blocks stay JIT-compilable.
//
//  * Machine::take_snapshot()/reset_to_snapshot() (emu layer) — dirty-page
//    resets make one fuzz iteration "restore registers + copy back the few
//    pages the input touched" instead of a full reload: microseconds, not
//    milliseconds. The coverage map pages are marked dirty-exempt so the
//    map *survives* resets and accumulates across the whole campaign.
//
//  * Campaign — the loop: a corpus scheduled by coverage novelty, a
//    deterministic mutation engine, N workers each running its own loop
//    on its own thread (with a private Machine, snapshot and
//    `rvdyn.fuzz.w<i>.*` metric namespace), and crash triage through
//    obs::postmortem_report.
//
// Target contract: the mutatee exposes two data symbols, `fuzz_input` (a
// byte buffer) and `fuzz_len` (u64). Each iteration the harness resets the
// guest, writes the test case into those symbols, and runs to a stop.
// Breakpoint/IllegalInsn/BadFetch/BadSyscall stops are crashes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "emu/machine.hpp"
#include "patch/editor.hpp"
#include "symtab/symtab.hpp"

namespace rvdyn::fuzz {

// --- coverage map geometry --------------------------------------------------
// The map is a byte table indexed by `(prev >> 1) ^ cur` where prev/cur are
// 16-bit block ids; shifting prev keeps A->B distinct from B->A. Each lit
// byte has bit 0 set and the slot's hit count mod 128 in bits 7..1. Ids are
// 16-bit, so the xor never exceeds the map and the woven snippet needs no
// masking. The two u64 scratch slots (`prev`, `new_edges`) live in the page
// right after the map; the whole range is dirty-exempt, so coverage
// accumulates across snapshot resets while the harness re-zeroes the
// scratch slots explicitly each iteration.
inline constexpr unsigned kMapBits = 16;
inline constexpr std::uint64_t kMapSize = 1ULL << kMapBits;  // 64 KiB
inline constexpr std::uint64_t kMapBase = 0x6f000000;
inline constexpr std::uint64_t kPrevAddr = kMapBase + kMapSize;
inline constexpr std::uint64_t kNewEdgesAddr = kPrevAddr + 8;
/// Bytes to pass to Memory::set_dirty_exempt to cover map + scratch.
inline constexpr std::uint64_t kExemptSize = kMapSize + 4096;

/// Compile-time block id: 16-bit multiplicative hash of the block address.
inline std::uint16_t block_id(std::uint64_t block_addr) {
  const std::uint32_t h =
      static_cast<std::uint32_t>(block_addr >> 1) * 0x9E3779B1u;
  return static_cast<std::uint16_t>(h >> 16);
}

// --- weaving ----------------------------------------------------------------

/// A coverage-woven binary plus the editor session that produced it (kept
/// alive because its CodeObject powers crash symbolization).
struct WovenTarget {
  symtab::Symtab binary;
  std::unique_ptr<patch::BinaryEditor> editor;
  unsigned blocks_woven = 0;
  unsigned trap_entries = 0;  ///< nonzero means trap springboards were needed

  const parse::CodeObject& code() const { return editor->code(); }
};

/// Statically rewrite `binary` with the edge-coverage snippet at every
/// basic-block entry of every parsed function.
WovenTarget weave_coverage(const symtab::Symtab& binary);

/// Prepare a machine for fuzzing `t`: load the woven binary, map the
/// coverage range dirty-exempt, and zero the scratch slots.
void attach_coverage(emu::Machine& m, const WovenTarget& t);

/// Copy the 64 KiB map out of guest memory into `out`.
void read_map(emu::Machine& m, std::uint8_t* out);

// --- campaign-global coverage ----------------------------------------------

/// The cross-worker novelty filter: a host-side set of every map index any
/// worker has ever lit. Workers consult it only when their guest-side
/// `new_edges` counter says the run lit a local slot for the first time,
/// which happens at most once per edge per worker, so the 64 KiB merge and
/// its mutex are off the per-exec path.
class GlobalCoverage {
 public:
  GlobalCoverage() : seen_(kMapSize, 0) {}

  /// Merge a worker's map: returns how many indices were new globally.
  unsigned merge(const std::uint8_t* map);
  unsigned edges_seen() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::uint8_t> seen_;
  unsigned count_ = 0;
};

// --- corpus + mutation ------------------------------------------------------

/// Thread-safe input store with coverage-novelty energy scheduling: inputs
/// that lit more new edges when admitted get mutated more often.
class Corpus {
 public:
  /// Returns the new entry's index.
  std::size_t add(std::vector<std::uint8_t> bytes, unsigned novelty);
  /// Copy entry `idx`'s bytes into `out`, reusing its capacity; returns the
  /// entry's novelty.
  unsigned copy_entry(std::size_t idx, std::vector<std::uint8_t>& out) const;
  /// Copy the first min(n, entry size) bytes of entry `idx` to `dst`;
  /// returns how many were copied.
  std::size_t copy_prefix(std::size_t idx, std::uint8_t* dst,
                          std::size_t n) const;
  std::size_t size() const;
  /// Mutation rounds an entry earns per schedule: 1 + log2(novelty+1).
  static unsigned energy(unsigned novelty);
  /// Energy-weighted random pick: the entry a worker mutates next.
  std::size_t pick(std::uint64_t rng_state) const;

 private:
  struct Entry {
    std::vector<std::uint8_t> bytes;
    unsigned novelty = 0;  ///< globally-new edges at admission
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t total_energy_ = 0;
};

/// Deterministic mutation engine (xorshift-seeded): bit flips, byte sets,
/// bounded arithmetic, block duplication, truncation/extension, and splices
/// with a random corpus entry.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : s_(seed ? seed : 0x9E3779B97F4A7C15ULL) {}

  std::uint64_t next();
  void mutate(std::vector<std::uint8_t>& data, const Corpus& corpus,
              std::size_t max_len);

 private:
  std::uint64_t s_;
};

// --- campaign ---------------------------------------------------------------

struct CampaignOptions {
  unsigned workers = 1;
  std::uint64_t max_execs = 200000;    ///< global exec budget
  std::size_t max_input_len = 64;      ///< fuzz_input buffer capacity
  unsigned batch = 32;                 ///< execs per scheduled corpus item
  std::uint64_t seed = 1;              ///< campaign RNG seed
  bool stop_on_crash = true;
  std::uint64_t exec_step_budget = 1u << 20;  ///< per-exec guest step cap
  std::string metrics_prefix = "rvdyn.fuzz";  ///< ScopedView namespace
  bool collect_curve = true;           ///< record the coverage curve
};

struct CrashReport {
  std::vector<std::uint8_t> input;
  emu::StopReason reason = emu::StopReason::Running;
  std::uint64_t pc = 0;
  std::uint64_t found_at_exec = 0;
  std::string postmortem;
};

struct CampaignResult {
  std::uint64_t execs = 0;
  std::uint64_t hangs = 0;         ///< step-budget exhaustions
  std::size_t corpus_size = 0;
  unsigned edges_covered = 0;
  std::vector<CrashReport> crashes;
  /// (execs, edges) samples taken at every corpus admission.
  std::vector<std::pair<std::uint64_t, unsigned>> coverage_curve;

  bool found_crash() const { return !crashes.empty(); }
};

/// One fuzzing campaign over a coverage-woven target. Each worker is a
/// loop on its own thread: pick a corpus entry, mutate and execute it
/// batch × energy times, pick again. Each execution is snapshot-reset +
/// input write + run; `max_execs` caps the executions of all workers
/// together exactly. Per-worker metrics land under `<metrics_prefix>.w<i>.*`
/// (reset at campaign start via the scoped registry view, so back-to-back
/// campaigns never accumulate).
class Campaign {
 public:
  /// `target` must follow the fuzz_input/fuzz_len contract; it is woven
  /// here. Throws common::Error when the contract symbols are missing or
  /// weaving required trap springboards (which would make every woven
  /// block a Breakpoint stop and drown real crashes).
  explicit Campaign(const symtab::Symtab& target, CampaignOptions opts = {});
  ~Campaign();

  /// Seed the corpus (before run). Inputs longer than max_input_len are
  /// truncated.
  void add_seed(std::vector<std::uint8_t> input);

  CampaignResult run();

  const WovenTarget& target() const { return woven_; }

 private:
  struct Worker;
  void run_worker(unsigned widx);
  /// Take the next exec number from the global budget; false once the
  /// budget is spent or a crash stopped the campaign.
  bool claim_exec(std::uint64_t* exec_no);
  /// Run one test case as exec `exec_no` on `w`'s machine; returns true
  /// when it lit new global coverage and joined the corpus.
  bool execute_one(Worker& w, const std::vector<std::uint8_t>& input,
                   std::uint64_t exec_no);

  CampaignOptions opts_;
  WovenTarget woven_;
  std::uint64_t input_addr_ = 0;
  std::uint64_t len_addr_ = 0;
  Corpus corpus_;
  GlobalCoverage global_;
  std::vector<std::vector<std::uint8_t>> seeds_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex result_mu_;  ///< guards crashes/curve/hangs + postmortem parse
  CampaignResult result_;
  std::atomic<std::uint64_t> execs_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace rvdyn::fuzz
