// A2 — the dead-register allocation optimization (paper §4.3), isolated:
// identical snippet, identical points, with liveness-guided scratch
// allocation on vs off; plus a sweep over register pressure (how many
// dead registers the point offers).
#include <cinttypes>

#include "bench_util.hpp"
#include "codegen/codegen.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/summaries.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

int main() {
  const int n = 60;
  const auto bin = assembler::assemble(workloads::matmul_program(n, 1));
  const auto base = bench::run_binary(bin);
  std::printf("workload: %dx%d matmul; BB counters on every matmul block\n\n",
              n, n);

  std::printf("%-22s %12s %10s %12s %12s\n", "mode", "snippet-insns",
              "spills", "cycles", "overhead");
  for (const bool dead : {false, true}) {
    auto inst = bench::instrument_counter(bin, "matmul",
                                          patch::PointType::BlockEntry, dead);
    const auto r = bench::run_binary(inst.bin, &inst.traps, inst.counter_addr);
    std::printf("%-22s %12" PRIu64 " %10" PRIu64 " %12llu %11.1f%%\n",
                dead ? "dead-reg (RISC-V)" : "always-spill (x86)",
                inst.stats.gen.n_insns, inst.stats.gen.scratch_spilled,
                static_cast<unsigned long long>(r.cycles),
                bench::pct_overhead(base.cycles, r.cycles));
  }

  // Interprocedural sharpening (beyond the paper): dead registers at the
  // call sites of the call-churn workload under the ABI call model vs
  // summary-driven liveness.
  {
    const auto churn = assembler::assemble(workloads::call_churn_program(8));
    parse::CodeObject co(churn);
    co.parse();
    const dataflow::Summaries sums(co);
    const auto* f = co.function_named("wrapper");
    const parse::Block* callsite = nullptr;
    for (const auto& [a, b] : f->blocks())
      for (const auto& e : b->succs())
        if (e.type == parse::EdgeType::Call) callsite = b.get();
    const std::size_t term = callsite->insns().size() - 1;
    dataflow::Liveness abi(*f);
    dataflow::Liveness sharp(*f, &sums);
    std::printf(
        "\ndead registers at wrapper's call site: %u (ABI call model) -> "
        "%u (interprocedural summaries)\n",
        abi.dead_before(callsite, term).count(),
        sharp.dead_before(callsite, term).count());
  }

  // Register-pressure sweep at the codegen level: the counter snippet with
  // k dead registers available (k < needed forces partial spills).
  std::printf("\ncounter snippet vs available dead registers:\n");
  std::printf("%8s %14s %10s\n", "dead", "snippet-insns", "spills");
  codegen::Variable v;
  v.addr = 0x200000;
  v.size = 8;
  for (unsigned k = 0; k <= 4; ++k) {
    isa::RegSet dead;
    for (unsigned i = 0; i < k; ++i) dead.add(isa::x(5 + i));  // t0..
    codegen::CodeGenerator gen;
    codegen::GenStats stats;
    gen.generate(*codegen::increment(v), dead, &stats);
    std::printf("%8u %14" PRIu64 " %10" PRIu64 "\n", k, stats.n_insns,
                stats.scratch_spilled);
  }

  std::printf(
      "\nexpected: always-spill needs sp-adjust + save/restore around every "
      "counter\n(the paper's x86 column behaviour); two dead registers "
      "suffice for the\ncounter snippet, so spills drop to zero.\n");
  return 0;
}
