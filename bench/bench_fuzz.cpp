// Snapshot fuzzing engine benchmark: the numbers the design stands on —
// reset latency (dirty-page restore, target p50 < 5 µs), end-to-end exec
// throughput with coverage weaving enabled (target >= 1M execs/s on a
// small mutatee), time-to-bug for the seeded-crash campaign, and the
// campaign loop's exec rate at 1, 2 and 4 workers against that raw rate.
// Every reset is recorded into the rvdyn.bench.fuzz.reset_ns histogram so
// the committed BENCH_fuzz.json carries the latency digest (p50/p95/p99)
// in its rvdyn_meta block, not just the means. Writes BENCH_fuzz.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hpp"
#include "bench_util.hpp"
#include "emu/machine.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RawRate {
  double execs_per_sec = 0;
  std::uint64_t guest_insns = 0;  ///< per exec
};

/// The raw per-iteration cycle on `t`: reset, `prev` re-zero, input write,
/// run to exit — no mutation, novelty gate or scheduling. The input is a
/// small non-matching one, so every exec runs the whole mutatee.
RawRate raw_exec_rate(const fuzz::WovenTarget& t, unsigned warm,
                      unsigned iters) {
  emu::Machine m;
  fuzz::attach_coverage(m, t);
  const auto snap = m.take_snapshot();
  const std::vector<std::uint8_t> input = {'z'};
  const symtab::Symbol* buf = t.binary.find_symbol("fuzz_input");
  const symtab::Symbol* len = t.binary.find_symbol("fuzz_len");
  const auto exec = [&] {
    m.memory().write(fuzz::kPrevAddr, 0, 8);
    m.memory().write_bytes(buf->value, input.data(), input.size());
    m.memory().write(len->value, input.size(), 8);
    m.run(1u << 20);
  };

  RawRate r;
  const std::uint64_t instret0 = m.instret();
  for (unsigned i = 0; i < warm; ++i) {
    exec();
    // The reset rewinds instret, so sample the per-exec count before it.
    if (r.guest_insns == 0) r.guest_insns = m.instret() - instret0;
    m.reset_to_snapshot(snap);
  }
  const std::uint64_t t0 = now_ns();
  for (unsigned i = 0; i < iters; ++i) {
    exec();
    m.reset_to_snapshot(snap);
  }
  r.execs_per_sec = iters / (static_cast<double>(now_ns() - t0) * 1e-9);
  return r;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Sum of a per-worker campaign counter over workers 0..n-1.
std::uint64_t worker_total(unsigned n, const char* counter) {
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < n; ++i)
    sum += obs::Registry::instance().value("rvdyn.fuzz.w" + std::to_string(i) +
                                           "." + counter);
  return sum;
}

}  // namespace

int main() {
  bench::warn_if_degraded();
  bench::JsonWriter json("BENCH_fuzz.json");

  const auto target_bin =
      assembler::assemble(workloads::fuzz_target_program("RV"));
  const auto woven = fuzz::weave_coverage(target_bin);
  std::printf("woven target: %u blocks instrumented, %u trap entries\n",
              woven.blocks_woven, woven.trap_entries);

  // ---- 1. reset latency -----------------------------------------------
  // One full fuzz iteration per sample (exec dirties the pages a real
  // campaign dirties), timing only the reset_to_snapshot call.
  {
    emu::Machine m;
    fuzz::attach_coverage(m, woven);
    const auto snap = m.take_snapshot();
    const std::vector<std::uint8_t> input = {'R', 'q', 'x'};
    const symtab::Symbol* buf = woven.binary.find_symbol("fuzz_input");
    const symtab::Symbol* len = woven.binary.find_symbol("fuzz_len");

    constexpr unsigned kIters = 200000;
    std::uint64_t total_ns = 0, pages = 0;
    for (unsigned i = 0; i < kIters; ++i) {
      m.memory().write(fuzz::kPrevAddr, 0, 8);
      m.memory().write_bytes(buf->value, input.data(), input.size());
      m.memory().write(len->value, input.size(), 8);
      m.run(1u << 20);
      const std::uint64_t t0 = now_ns();
      const auto rs = m.reset_to_snapshot(snap);
      const std::uint64_t dt = now_ns() - t0;
      // Outside the campaign's rvdyn.fuzz.* namespace so the campaign's
      // scoped reset (below) cannot wipe the digest before json.write().
      RVDYN_OBS_HIST("rvdyn.bench.fuzz.reset_ns", dt);
      total_ns += dt;
      pages += rs.pages_restored;
    }
    const auto hist =
        obs::Registry::instance().histogram("rvdyn.bench.fuzz.reset_ns");
    std::printf("reset latency: mean %.0f ns, p50 %.0f ns, p99 %.0f ns "
                "(%.1f pages/reset)\n",
                hist.mean(), hist.p50(), hist.p99(),
                static_cast<double>(pages) / kIters);
    json.add("fuzz/reset_latency",
             {{"iterations", static_cast<double>(kIters)},
              {"mean_ns", hist.mean()},
              {"p50_ns", hist.p50()},
              {"p95_ns", hist.p95()},
              {"p99_ns", hist.p99()},
              {"pages_per_reset", static_cast<double>(pages) / kIters},
              {"p50_under_5us", hist.p50() < 5000.0 ? 1.0 : 0.0}});
  }

  // ---- 2. exec throughput with weaving enabled ------------------------
  // Small non-matching input: 8 woven-block passes per exec on this target.
  {
    constexpr unsigned kIters = 1000000;
    const RawRate raw = raw_exec_rate(woven, 50000, kIters);
    std::printf("throughput: %.2fM execs/s (%.0f ns/exec, %llu guest "
                "insns/exec incl. weaving)\n",
                raw.execs_per_sec / 1e6, 1e9 / raw.execs_per_sec,
                static_cast<unsigned long long>(raw.guest_insns));
    json.add("fuzz/exec_throughput_woven",
             {{"execs", static_cast<double>(kIters)},
              {"execs_per_sec", raw.execs_per_sec},
              {"ns_per_exec", 1e9 / raw.execs_per_sec},
              {"guest_insns_per_exec", static_cast<double>(raw.guest_insns)},
              {"target_1m_met", raw.execs_per_sec >= 1e6 ? 1.0 : 0.0}});
  }

  // ---- 3. seeded-bug campaign + coverage curve ------------------------
  {
    fuzz::CampaignOptions opts;
    opts.workers = 1;
    opts.max_execs = 500000;
    opts.batch = 16;
    opts.seed = 7;
    fuzz::Campaign c(assembler::assemble(workloads::fuzz_target_program("RV!")),
                     opts);
    const std::uint64_t t0 = now_ns();
    const auto r = c.run();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    const double found = r.found_crash() ? 1.0 : 0.0;
    const double execs_to_find =
        r.found_crash() ? static_cast<double>(r.crashes.front().found_at_exec)
                        : static_cast<double>(r.execs);
    const std::uint64_t scans = worker_total(1, "novelty_scans");
    std::printf("campaign: %s after %.0f execs (%.2fM execs/s, %u edges, "
                "corpus %zu, %llu novelty scans)\n",
                r.found_crash() ? "bug found" : "bug NOT found", execs_to_find,
                r.execs / secs / 1e6, r.edges_covered, r.corpus_size,
                static_cast<unsigned long long>(scans));
    if (r.found_crash())
      std::printf("--- postmortem (first crash) ---\n%s\n",
                  r.crashes.front().postmortem.c_str());
    json.add("fuzz/campaign_seeded_bug",
             {{"found", found},
              {"execs_to_find", execs_to_find},
              {"total_execs", static_cast<double>(r.execs)},
              {"execs_per_sec", r.execs / secs},
              {"edges_covered", static_cast<double>(r.edges_covered)},
              {"corpus_size", static_cast<double>(r.corpus_size)},
              {"novelty_scans", static_cast<double>(scans)},
              {"hangs", static_cast<double>(r.hangs)}});

    // Coverage curve: up to 8 evenly spaced admission samples, so the
    // committed JSON shows coverage *rising* across the campaign.
    const auto& curve = r.coverage_curve;
    const std::size_t points = curve.size() < 8 ? curve.size() : 8;
    for (std::size_t i = 0; i < points; ++i) {
      const std::size_t idx = i * (curve.size() - 1) / (points > 1 ? points - 1 : 1);
      json.add("fuzz/coverage_curve/" + std::to_string(i),
               {{"execs", static_cast<double>(curve[idx].first)},
                {"edges", static_cast<double>(curve[idx].second)}});
    }
  }

  // ---- 4. campaign exec rate vs workers --------------------------------
  // The whole campaign loop (mutate, reset, input write, run, novelty gate,
  // schedule) on a fixed budget, the median of kReps campaigns per worker
  // count. Each 1-worker campaign is paired with a raw-cycle run on the
  // same woven target just before it, so their ratio — what the loop's own
  // bookkeeping leaves of the raw exec rate — sees one host load.
  {
    const auto bin = assembler::assemble(workloads::fuzz_target_program("RV!"));
    constexpr std::uint64_t kBudget = 300000;
    constexpr int kReps = 5;
    const unsigned hw = std::thread::hardware_concurrency();
    double rate_1w = 0;
    std::vector<double> raw_rates, ratios;
    for (const unsigned workers : {1u, 2u, 4u}) {
      std::vector<double> rates;
      std::uint64_t scans = 0, admits = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        fuzz::CampaignOptions opts;
        opts.workers = workers;
        opts.max_execs = kBudget;
        opts.seed = 7;
        opts.stop_on_crash = false;
        opts.collect_curve = false;
        fuzz::Campaign c(bin, opts);
        if (workers == 1)
          raw_rates.push_back(
              raw_exec_rate(c.target(), 20000, 200000).execs_per_sec);
        const std::uint64_t t0 = now_ns();
        const auto r = c.run();
        rates.push_back(r.execs / (static_cast<double>(now_ns() - t0) * 1e-9));
        if (workers == 1) ratios.push_back(rates.back() / raw_rates.back());
        scans += worker_total(workers, "novelty_scans");
        admits += worker_total(workers, "corpus_admits");
      }
      const double p50 = median_of(rates);
      if (workers == 1) rate_1w = p50;
      const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
      std::printf("campaign, %u worker(s): %.2fM execs/s p50 (min %.2fM, max "
                  "%.2fM; %.2fx vs 1 worker; %.1f scans, %.1f admits per "
                  "campaign)\n",
                  workers, p50 / 1e6, *lo / 1e6, *hi / 1e6, p50 / rate_1w,
                  static_cast<double>(scans) / kReps,
                  static_cast<double>(admits) / kReps);
      json.add("fuzz/campaign_workers/" + std::to_string(workers),
               {{"workers", static_cast<double>(workers)},
                {"hardware_threads", static_cast<double>(hw)},
                {"execs_per_campaign", static_cast<double>(kBudget)},
                {"campaigns", static_cast<double>(kReps)},
                {"execs_per_sec_p50", p50},
                {"execs_per_sec_min", *lo},
                {"execs_per_sec_max", *hi},
                {"speedup_vs_1_worker", p50 / rate_1w},
                {"novelty_scans_per_campaign",
                 static_cast<double>(scans) / kReps},
                {"corpus_admits_per_campaign",
                 static_cast<double>(admits) / kReps}});
    }
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    std::printf("campaign/raw exec rate, 1 worker: %.2f p50 (min %.2f, max "
                "%.2f; raw %.2fM execs/s p50)\n",
                median_of(ratios), *lo, *hi, median_of(raw_rates) / 1e6);
    json.add("fuzz/campaign_to_raw",
             {{"raw_execs_per_sec_p50", median_of(raw_rates)},
              {"campaign_execs_per_sec_p50", rate_1w},
              {"ratio_p50", median_of(ratios)},
              {"ratio_min", *lo},
              {"ratio_max", *hi}});
  }

  if (!json.write()) {
    std::fprintf(stderr, "failed to write BENCH_fuzz.json\n");
    return 1;
  }
  std::printf("wrote BENCH_fuzz.json\n");
  return 0;
}
