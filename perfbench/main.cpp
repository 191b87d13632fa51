// rvdyn_perfbench: the repository benchmark. One closed-loop client in one
// process runs one workload for --seconds, checks every output, and prints
// its metrics; the last stdout line is the JSON result. See README.md.
//
//   rvdyn_perfbench --workload <rewrite|attach_run|fuzz|debug> --seed <n>
//                   --seconds <s> --trace <0|1> [--sabotage <kind>]
//                   [--trace-file <path>]
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <algorithm>

#include "bench.hpp"
#include "bench_util.hpp"

#ifndef PERFBENCH_SOURCE_DIGEST
#define PERFBENCH_SOURCE_DIGEST "unknown"
#endif

namespace perfbench {
namespace {

// Setup runs this many times per run; setup_s is their median.
constexpr int kSetups = 5;
// Iteration ids of the setups' spans, apart from the timed iterations'.
constexpr std::uint32_t kSetupIter = 1u << 30;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Sabotage sabotage = Sabotage::None;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rvdyn_perfbench: %s\nusage: rvdyn_perfbench --workload "
               "<rewrite|attach_run|fuzz|debug> --seed <n> --seconds <s> "
               "--trace <0|1> [--sabotage <counter|magic|frames>] "
               "[--trace-file <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || a.seconds <= 0) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("--trace is 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--sabotage") {
      const std::string s = v;
      if (s == "counter") a.sabotage = Sabotage::Counter;
      else if (s == "magic") a.sabotage = Sabotage::Magic;
      else if (s == "frames") a.sabotage = Sabotage::Frames;
      else usage("--sabotage is counter, magic or frames");
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Env& env) {
  if (name == "rewrite") return make_rewrite(env);
  if (name == "attach_run") return make_attach_run(env);
  if (name == "fuzz") return make_fuzz(env);
  if (name == "debug") return make_debug(env);
  usage(("unknown workload " + name).c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs timed iterations until `seconds` pass (at least one); returns
/// their operation latencies (ms).
std::vector<double> timed_loop(Workload& wl, Tracer& tr, double seconds,
                               std::uint32_t* iter) {
  std::vector<double> op_ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    tr.set_iter((*iter)++);
    op_ms.push_back(wl.iterate());
  } while (Clock::now() < deadline && !(tr.enabled() && tr.full()));
  return op_ms;
}

/// The reported tail: the highest percentile with at least ten samples
/// beyond it, i.e. the 11th-largest latency of the run.
struct Tail {
  double value = 0;
  double pct = 0;  ///< the percentile that value sits at
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.empty() ? 0 : v.back(), 100};  // too few: the max
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(const Checks& ck, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ck.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(ck.attempted()),
              static_cast<unsigned long long>(ck.failed()));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit);
  std::printf("}}\n");
}

/// The per-layer metrics of the traced run, in BENCHMARK.json order. A
/// layer the workload does not call reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
  enum Source { SpanMs, SpanUs, Noted, Special } source;
  const char* span;  ///< span name for SpanMs/SpanUs
};

const LayerMetric kLayerMetrics[] = {
    {"symtab.read_ms", "ms", LayerMetric::SpanMs, "symtab.read"},
    {"symtab.write_ms", "ms", LayerMetric::SpanMs, "symtab.write"},
    {"parse.ms", "ms", LayerMetric::SpanMs, "parse"},
    {"parse.idle_ms", "ms", LayerMetric::Noted, nullptr},
    {"parse.blocks", "count", LayerMetric::Noted, nullptr},
    {"dataflow.summaries_ms", "ms", LayerMetric::SpanMs, "dataflow.summaries"},
    {"dataflow.liveness_ms", "ms", LayerMetric::SpanMs, "dataflow.liveness"},
    {"codegen.snippet_insns", "count", LayerMetric::Noted, nullptr},
    {"codegen.scratch_spilled", "count", LayerMetric::Noted, nullptr},
    {"codegen.dead_reg_ratio", "ratio", LayerMetric::Noted, nullptr},
    {"patch.insert_ms", "ms", LayerMetric::SpanMs, "patch.insert"},
    {"patch.commit_ms", "ms", LayerMetric::SpanMs, "patch.commit"},
    {"patch.text_bytes", "bytes", LayerMetric::Noted, nullptr},
    {"patch.relax_iterations", "count", LayerMetric::Noted, nullptr},
    {"patch.direct_springboard_ratio", "ratio", LayerMetric::Noted, nullptr},
    {"proccontrol.launch_ms", "ms", LayerMetric::SpanMs, "proccontrol.launch"},
    {"proccontrol.pause_ms", "ms", LayerMetric::SpanMs, "proccontrol.pause"},
    {"proccontrol.continue_us", "us", LayerMetric::SpanUs, "proccontrol.continue"},
    {"proccontrol.step_us", "us", LayerMetric::SpanUs, "proccontrol.step"},
    {"proccontrol.stops", "count", LayerMetric::Noted, nullptr},
    {"stackwalk.walk_us", "us", LayerMetric::SpanUs, "stackwalk.walk"},
    {"stackwalk.frames", "count", LayerMetric::Noted, nullptr},
    {"emu.run_ms", "ms", LayerMetric::SpanMs, "emu.run"},
    {"emu.guest_mips", "MIPS", LayerMetric::Special, nullptr},
    {"emu.instret", "count", LayerMetric::Noted, nullptr},
    {"emu.jit.insn_share", "ratio", LayerMetric::Noted, nullptr},
    {"emu.jit.compile_ms", "ms", LayerMetric::Noted, nullptr},
    {"emu.jit.evict_write_code", "count", LayerMetric::Noted, nullptr},
    {"emu.bcache.hit_ratio", "ratio", LayerMetric::Noted, nullptr},
    {"fuzz.campaign_ms", "ms", LayerMetric::SpanMs, "fuzz.campaign"},
    {"fuzz.weave_ms", "ms", LayerMetric::SpanMs, "fuzz.weave"},
    {"fuzz.admit_ratio", "ratio", LayerMetric::Noted, nullptr},
    {"fuzz.reset_pages", "count", LayerMetric::Noted, nullptr},
    {"fuzz.guest_insns_per_exec", "insns", LayerMetric::Noted, nullptr},
    {"fuzz.bug_found_at_exec", "count", LayerMetric::Noted, nullptr},
    {"assembler.ms", "ms", LayerMetric::Special, nullptr},
    {"guest_overhead_pct", "%", LayerMetric::Noted, nullptr},
    {"execs_per_s", "1/s", LayerMetric::Noted, nullptr},
    {"edges_covered", "edges", LayerMetric::Noted, nullptr},
    {"stop_us_p50", "us", LayerMetric::Noted, nullptr},
    {"stop_us_tail", "us", LayerMetric::Noted, nullptr},
    {"trace.overhead_pct", "%", LayerMetric::Special, nullptr},
    {"trace.unattributed_ms", "ms", LayerMetric::Special, nullptr},
};

/// Each workload's own end-to-end figures, printed on untraced runs too.
const char* const kWorkloadFigures[] = {"guest_overhead_pct", "execs_per_s",
                                        "edges_covered", "stop_us_p50",
                                        "stop_us_tail"};

double noted_median(const Workload& wl, const std::string& name) {
  const auto it = wl.noted().find(name);
  return it == wl.noted().end() ? 0 : median(it->second);
}

/// Median over the traced timed iterations (setup spans excluded).
double span_ms(const Tracer& tr, const char* span, bool setups = false) {
  std::vector<double> v;
  for (const auto& [iter, ms] : tr.per_iter_ms(span))
    if ((iter >= kSetupIter) == setups) v.push_back(ms);
  return median(v);
}

void print_provenance() {
  std::printf("provenance: git_sha=%s build_type=%s degraded=%s "
              "source_digest=%s\n",
              RVDYN_GIT_SHA, RVDYN_BUILD_TYPE,
              rvdyn::bench::build_is_degraded() ? "true" : "false",
              PERFBENCH_SOURCE_DIGEST);
}

void print_op_stats(const char* label, const Workload& wl,
                    const std::vector<double>& op_ms) {
  const Tail t = tail_of(op_ms);
  std::printf("%s: %s p50 %.4f ms, tail p%.2f %.4f ms (n=%zu, %s)\n", label,
              wl.op_name(), median(op_ms), t.pct, t.value, op_ms.size(),
              op_ms.size() > 10 ? "10 beyond" : "too few samples, the max");
}

int run(const Args& a) {
  print_provenance();
  if (rvdyn::bench::build_is_degraded()) {
    // Numbers from an unoptimized build are never reported.
    rvdyn::bench::warn_if_degraded();
    return 3;
  }

  Tracer tracer;
  Checks checks;
  const Env env{a.seed, a.sabotage, &tracer, &checks};
  std::unique_ptr<Workload> wl = make_workload(a.workload, env);

  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    tracer.set_enabled(a.trace);
    tracer.set_iter(kSetupIter + static_cast<std::uint32_t>(r));
    const Clock::time_point t0 = Clock::now();
    wl->setup();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  tracer.set_enabled(false);
  std::printf("workload %s, seed %llu: %s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              wl->describe_inputs().c_str());
  std::printf("inputs digest: %016llx\n",
              static_cast<unsigned long long>(wl->input_digest()));

  std::uint32_t iter = 0;
  std::vector<Metric> out;
  if (!a.trace) {
    const std::vector<double> op_ms = timed_loop(*wl, tracer, a.seconds, &iter);
    wl->final_check();
    print_op_stats("untraced", *wl, op_ms);
    for (const char* name : kWorkloadFigures)
      if (const auto it = wl->noted().find(name); it != wl->noted().end())
        std::printf("%s: %.10g (median of %zu iterations)\n", name,
                    median(it->second), it->second.size());
    out = {{"setup_s", median(setup_s), "s"},
           {"peak_rss_mb", peak_rss_mb(), "MiB"},
           {"op_ms_tail", tail_of(op_ms).value, "ms"}};
  } else {
    // Half the time untraced, half traced, same workload and seed: the
    // difference between the two is the tracing overhead.
    const std::vector<double> plain = timed_loop(*wl, tracer, a.seconds / 2, &iter);
    wl->clear_noted();
    tracer.set_enabled(true);
    const std::vector<double> traced = timed_loop(*wl, tracer, a.seconds / 2, &iter);
    tracer.set_enabled(false);
    wl->final_check();
    print_op_stats("untraced", *wl, plain);
    print_op_stats("traced  ", *wl, traced);
    const double overhead =
        100.0 * (median(traced) - median(plain)) / median(plain);
    std::printf("tracing overhead: %+.2f %% on the %s median\n", overhead,
                wl->op_name());

    std::printf("%-24s %12s %12s\n", "span (self time)", "median ms", "calls");
    std::map<std::string, std::size_t> calls;
    for (const Tracer::Record& r : tracer.records())
      if (r.iter < kSetupIter) ++calls[tracer.name_of(r.name)];
    for (const auto& [name, n] : calls) {
      std::vector<double> self;
      for (const auto& [it, ms] : tracer.per_iter_self_ms(name))
        if (it < kSetupIter) self.push_back(ms);
      std::printf("%-24s %12.4f %12zu\n", name.c_str(), median(self), n);
    }

    for (const LayerMetric& m : kLayerMetrics) {
      double v = 0;
      switch (m.source) {
        case LayerMetric::SpanMs: v = span_ms(tracer, m.span); break;
        case LayerMetric::SpanUs:
          v = median(tracer.per_call_us(m.span, kSetupIter));
          break;
        case LayerMetric::Noted: v = noted_median(*wl, m.name); break;
        case LayerMetric::Special: {
          const std::string n = m.name;
          if (n == "assembler.ms") {
            v = span_ms(tracer, "assembler", /*setups=*/true);
          } else if (n == "emu.guest_mips") {
            // Guest code runs inside these calls, whichever the workload makes.
            double run_ms = 0;
            for (const char* span : {"emu.run", "fuzz.campaign",
                                     "proccontrol.continue", "proccontrol.step"})
              run_ms += span_ms(tracer, span);
            v = run_ms > 0 ? noted_median(*wl, "emu.instret") / run_ms / 1e3 : 0;
          } else if (n == "trace.overhead_pct") {
            v = overhead;
          } else if (n == "trace.unattributed_ms") {
            std::vector<double> self;
            for (const auto& [it, ms] : tracer.per_iter_self_ms("iteration"))
              if (it < kSetupIter) self.push_back(ms);
            v = median(self);
          }
          break;
        }
      }
      out.push_back({m.name, v, m.unit});
    }
    std::printf("unattributed: %.4f ms of the %.4f ms iteration span\n",
                out.back().value, span_ms(tracer, "iteration"));
    if (!a.trace_file.empty() && !tracer.write_json(a.trace_file))
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_file.c_str());
  }

  std::printf("result: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  print_json(checks, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rvdyn_perfbench: %s\n", e.what());
    return 1;
  }
}
