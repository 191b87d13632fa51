// Relocation-engine benchmark: commit latency of the pass pipeline, the
// displacement-strategy ladder the springboards land on, and the code-size
// effect of the RVC re-compression pass — per workload and per insertion
// mix. Writes BENCH_patch.json (JsonWriter shape + rvdyn_meta provenance).
#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

struct Case {
  const char* name;
  std::string src;
  const char* func;           ///< instrumented function
  patch::PointType type;      ///< where the counter goes
};

struct Measured {
  double commit_ns_min = 0;   ///< best-of-N full build_plan+apply latency
  double commit_ns_mean = 0;
  patch::RewriteStats stats;
};

Measured measure(const symtab::Symtab& bin, const Case& c, int reps) {
  Measured out;
  double total = 0;
  for (int i = 0; i < reps; ++i) {
    patch::BinaryEditor editor(bin);
    const auto counter = editor.alloc_var("counter");
    const auto* f = editor.code().function_named(c.func);
    if (!f) {
      std::fprintf(stderr, "no function named %s\n", c.func);
      std::exit(1);
    }
    editor.insert_at(f->entry(), c.type, codegen::increment(counter));
    const auto t0 = std::chrono::steady_clock::now();
    editor.commit();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    total += ns;
    if (i == 0 || ns < out.commit_ns_min) out.commit_ns_min = ns;
    out.stats = editor.stats();
  }
  out.commit_ns_mean = total / reps;
  return out;
}

}  // namespace

int main() {
  const Case cases[] = {
      {"matmul/func_entry", workloads::matmul_program(40, 1), "matmul",
       patch::PointType::FuncEntry},
      {"matmul/block_entry", workloads::matmul_program(40, 1), "matmul",
       patch::PointType::BlockEntry},
      {"call_churn/func_exit", workloads::call_churn_program(100), "wrapper",
       patch::PointType::FuncExit},
      {"dispatch/block_entry", workloads::dispatch_program(50), "dispatch",
       patch::PointType::BlockEntry},
      {"sort/backedge", workloads::sort_program(64), "isort",
       patch::PointType::LoopBackedge},
  };
  constexpr int kReps = 5;

  bench::JsonWriter json("BENCH_patch.json");
  std::printf("%-22s %12s %8s %8s %8s %8s %10s %10s\n", "case", "commit_ns",
              "cj", "jal", "auipc", "trap", "pre_rvc_B", "post_rvc_B");
  for (const auto& c : cases) {
    const auto bin = assembler::assemble(c.src);
    const auto m = measure(bin, c, kReps);
    const auto& s = m.stats;
    const auto& r = s.reloc;
    std::printf("%-22s %12.0f %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %10llu %10llu\n",
                c.name,
                m.commit_ns_min, s.entry_cj, s.entry_jal, s.entry_auipc_jalr,
                s.entry_trap,
                static_cast<unsigned long long>(r.bytes_before_rvc),
                static_cast<unsigned long long>(r.bytes_after_rvc));
    json.add(c.name,
             {{"commit_ns_min", m.commit_ns_min},
              {"commit_ns_mean", m.commit_ns_mean},
              // displacement-ladder histogram (springboard strategies)
              {"entry_cj", double(s.entry_cj)},
              {"entry_jal", double(s.entry_jal)},
              {"entry_auipc_jalr", double(s.entry_auipc_jalr)},
              {"entry_trap", double(s.entry_trap)},
              // relocated-branch forms after relaxation
              {"branch_c2", double(r.branch_c2)},
              {"branch_near", double(r.branch_near)},
              {"branch_long", double(r.branch_long)},
              {"jump_c2", double(r.jump_c2)},
              {"jump_near", double(r.jump_near)},
              {"relax_iterations", double(r.relax_iterations)},
              // RVC re-compression effect on the relocated image
              {"bytes_before_rvc", double(r.bytes_before_rvc)},
              {"bytes_after_rvc", double(r.bytes_after_rvc)},
              {"rvc_recompressed", double(r.rvc_recompressed)},
              {"relocated_functions", double(s.relocated_functions)},
              {"snippet_insns", double(s.snippet_insns)}});
  }
  if (!json.write()) {
    std::fprintf(stderr, "failed to write BENCH_patch.json\n");
    return 1;
  }
  std::printf("wrote BENCH_patch.json\n");
  return 0;
}
