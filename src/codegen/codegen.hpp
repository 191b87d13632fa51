// CodeGenAPI: lowers machine-independent snippets to RV64 instruction
// sequences (paper §2.2, §3.2.5).
//
// Two properties the paper calls out are implemented here:
//  - extension awareness: the generator refuses to emit instructions from
//    extensions the mutatee's profile lacks (SymtabAPI supplies it);
//  - the dead-register allocation optimization (§4.3): scratch registers
//    come from the dead set computed by DataflowAPI's liveness pass, and
//    only when none are available does the generator spill to the stack.
//    Disabling it (use_dead_registers=false) reproduces the always-spill
//    baseline the paper compares against.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/snippet.hpp"
#include "common/status.hpp"
#include "isa/extensions.hpp"
#include "isa/instruction.hpp"
#include "obs/stats.hpp"

namespace rvdyn::codegen {

struct GenOptions {
  isa::ExtensionSet extensions = isa::ExtensionSet::rv64gc();
  bool use_dead_registers = true;
};

/// Accounting for the ablation benchmarks. generate() adds to it, so one
/// record passed to several calls sums them (a rewrite's record sums every
/// snippet it lowers).
#define RVDYN_CODEGEN_GEN_STATS(X)                                        \
  X(n_insns, "rvdyn.patch.snippet_insns") /* instructions generated */    \
  /* scratch allocations served by dead registers, that forced a spill */ \
  X(scratch_from_dead, "rvdyn.patch.scratch_from_dead")                   \
  X(scratch_spilled, "rvdyn.patch.scratch_spilled")
struct GenStats {
  RVDYN_STATS(GenStats, RVDYN_CODEGEN_GEN_STATS)
};

class CodeGenerator {
 public:
  explicit CodeGenerator(GenOptions opts = {}) : opts_(opts) {}

  /// Lower `snippet` to instructions. `dead` is the register set known to
  /// be dead at the instrumentation point (from Liveness::dead_before);
  /// pass an empty set when liveness information is unavailable.
  /// All emitted instructions are standard 4-byte encodings. Throws Error
  /// for snippets requiring extensions outside the target profile.
  std::vector<isa::Instruction> generate(const Snippet& snippet,
                                         isa::RegSet dead,
                                         GenStats* stats = nullptr) const;

  const GenOptions& options() const { return opts_; }

 private:
  GenOptions opts_;
};

/// Encode a generated sequence as raw little-endian bytes.
std::vector<std::uint8_t> encode_sequence(
    const std::vector<isa::Instruction>& insns);

}  // namespace rvdyn::codegen
