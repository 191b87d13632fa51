// JIT tier benchmark: interpreter vs. compiled-code throughput on the hot-
// loop workloads, plus the tier's own economics — compile latency, chain
// hit rate (block-to-block transfers that stayed inside a session), jalr
// dispatch hit rate, and eviction counts. Writes BENCH_jit.json.
//
// Hand-rolled timing (steady_clock around Machine::run) rather than
// google-benchmark: each entry is one pair of long deterministic runs and
// the quantity of interest is the ratio, not nanosecond noise.
// Observability flags (kept out of the timed runs so they cannot skew the
// committed numbers):
//   --flamegraph <path>  extra sampled JIT run per workload, merged folded
//                        stacks written to <path>
//   --postmortem         print an obs::postmortem_report of the final
//                        machine state of the last extra run
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "bench_util.hpp"
#include "emu/machine.hpp"
#include "obs/postmortem.hpp"
#include "obs/sampler.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

struct Timed {
  double seconds = 0;
  std::uint64_t instret = 0;
  emu::Machine m;  // kept alive so stats can be read after the run

  Timed(const symtab::Symtab& bin, bool jit) {
#if RVDYN_JIT_ENABLED
    m.set_jit_enabled(jit);
#else
    (void)jit;
#endif
    m.load(bin);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = m.run(4'000'000'000ULL);
    const auto t1 = std::chrono::steady_clock::now();
    if (r != emu::StopReason::Exited) {
      std::fprintf(stderr, "workload did not exit (stop=%d)\n",
                   static_cast<int>(r));
      std::exit(1);
    }
    seconds = std::chrono::duration<double>(t1 - t0).count();
    instret = m.instret();
  }

  double ips() const { return seconds > 0 ? instret / seconds : 0; }
};

}  // namespace

int main(int argc, char** argv) {
  std::string flame_path;
  bool postmortem = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--flamegraph" && i + 1 < argc) {
      flame_path = argv[++i];
    } else if (a == "--postmortem") {
      postmortem = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--flamegraph <path>] [--postmortem]\n", argv[0]);
      return 2;
    }
  }

  const struct {
    const char* name;
    std::string src;
  } workloads[] = {
      {"matmul", workloads::matmul_program(48, 2)},
      {"sort", workloads::sort_program(1500)},
      {"fib", workloads::fib_program(27)},
      {"dispatch", workloads::dispatch_program(200000)},
      {"call_churn", workloads::call_churn_program(300000)},
  };

  bench::JsonWriter out("BENCH_jit.json");
  std::printf("%-12s %12s %12s %7s %9s %8s %8s\n", "workload", "interp_ips",
              "jit_ips", "speedup", "jit_cover", "chain%", "disp%");
  for (const auto& w : workloads) {
    const auto bin = assembler::assemble(w.src);
    Timed interp(bin, /*jit=*/false);
    Timed jit(bin, /*jit=*/true);
    if (interp.instret != jit.instret) {
      std::fprintf(stderr, "%s: instret mismatch interp=%llu jit=%llu\n",
                   w.name, static_cast<unsigned long long>(interp.instret),
                   static_cast<unsigned long long>(jit.instret));
      return 1;
    }
    std::vector<std::pair<std::string, double>> metrics = {
        {"interp_insns_per_s", interp.ips()},
        {"jit_insns_per_s", jit.ips()},
        {"speedup", interp.seconds > 0 ? interp.seconds / jit.seconds : 0},
        {"insns", static_cast<double>(interp.instret)},
    };
    double jit_cover = 0, chain_rate = 0, disp_rate = 0;
#if RVDYN_JIT_ENABLED
    const emu::jit::Stats s = jit.m.jit_stats();
    jit_cover = jit.instret ? static_cast<double>(s.insns_retired) /
                                  static_cast<double>(jit.instret)
                            : 0;
    // Of all compiled-block entries, how many arrived via an in-session
    // transfer (chained edge or dispatch hit) rather than a fresh session?
    chain_rate = s.blocks_entered
                     ? static_cast<double>(s.blocks_entered - s.sessions) /
                           static_cast<double>(s.blocks_entered)
                     : 0;
    const double disp_total =
        static_cast<double>(s.dispatch_hits + s.exit_dispatch);
    disp_rate = disp_total > 0 ? s.dispatch_hits / disp_total : 0;
    metrics.insert(
        metrics.end(),
        {
            {"jit_coverage", jit_cover},
            {"blocks_compiled", static_cast<double>(s.blocks_compiled)},
            {"insns_compiled", static_cast<double>(s.insns_compiled)},
            {"compile_ms_total", s.compile_ns / 1e6},
            {"compile_us_per_block",
             s.blocks_compiled ? s.compile_ns / 1e3 / s.blocks_compiled : 0},
            {"code_bytes", static_cast<double>(s.code_bytes)},
            {"chain_hit_rate", chain_rate},
            {"dispatch_hit_rate", disp_rate},
            {"helper_calls", static_cast<double>(s.helper_calls)},
            {"chains_installed", static_cast<double>(s.chains_installed)},
            {"evict_write_code", static_cast<double>(s.evict_write_code)},
            {"evict_fencei", static_cast<double>(s.evict_fencei)},
            {"evict_capacity", static_cast<double>(s.evict_capacity)},
            {"evict_config", static_cast<double>(s.evict_config)},
        });
    if (jit.m.jit_tier())
      metrics.push_back({"backend_x64",
                         std::string(jit.m.jit_tier()->backend_name()) == "x64"
                             ? 1.0
                             : 0.0});
#endif
    out.add(w.name, metrics);
    std::printf("%-12s %12.3g %12.3g %6.2fx %8.1f%% %7.1f%% %7.1f%%\n",
                w.name, interp.ips(), jit.ips(),
                interp.seconds > 0 ? interp.seconds / jit.seconds : 0,
                100 * jit_cover, 100 * chain_rate, 100 * disp_rate);
  }
  if (!out.write()) {
    std::fprintf(stderr, "failed to write BENCH_jit.json\n");
    return 1;
  }

  // Optional observability pass: separate sampled JIT runs so the timed
  // numbers above stay clean.
  if (!flame_path.empty() || postmortem) {
    obs::FoldedStacks merged;
    for (const auto& w : workloads) {
      const auto bin = assembler::assemble(w.src);
      parse::CodeObject co(bin);
      co.parse();
      emu::Machine m;
#if RVDYN_JIT_ENABLED
      m.set_jit_enabled(true);
#endif
      m.load(bin);
      if (postmortem) m.enable_block_trace(true);
      obs::Sampler sampler(m, co);
      const auto r = m.run(4'000'000'000ULL);
      sampler.detach();
      if (r != emu::StopReason::Exited) {
        std::fprintf(stderr, "%s: sampled run did not exit (stop=%d)\n",
                     w.name, static_cast<int>(r));
        return 1;
      }
      // Prefix every stack with the workload name so the merged graph has
      // one root per workload.
      obs::FoldedStacks prefixed;
      const std::string folded = sampler.folded();
      std::size_t pos = 0;
      while (pos < folded.size()) {
        const std::size_t eol = folded.find('\n', pos);
        const std::string line = folded.substr(pos, eol - pos);
        pos = eol == std::string::npos ? folded.size() : eol + 1;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos) continue;
        prefixed.add_folded(std::string(w.name) + ";" + line.substr(0, sp),
                            std::strtoull(line.c_str() + sp + 1, nullptr, 10));
      }
      merged.merge(prefixed);
      std::printf("%-12s sampled: %llu samples, %llu in JIT code\n", w.name,
                  static_cast<unsigned long long>(sampler.samples()),
                  static_cast<unsigned long long>(sampler.jit_samples()));
      if (postmortem && std::string(w.name) == "call_churn")
        std::printf("\n%s\n",
                    obs::postmortem_report(m, co, r).c_str());
    }
    if (!flame_path.empty()) {
      if (!merged.write_folded(flame_path)) {
        std::fprintf(stderr, "failed to write %s\n", flame_path.c_str());
        return 1;
      }
      std::printf("folded stacks written to %s\n", flame_path.c_str());
    }
  }
  return 0;
}
