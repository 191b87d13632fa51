// The campaign loop end-to-end: coverage-guided search must find the
// seeded ebreak behind a staged magic compare, triage it with a
// postmortem, and keep per-worker metrics in their own scoped namespaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;

symtab::Symtab target_binary(const std::string& magic) {
  return assembler::assemble(workloads::fuzz_target_program(magic));
}

fuzz::CampaignOptions fast_opts(unsigned workers = 1) {
  fuzz::CampaignOptions o;
  o.workers = workers;
  o.max_execs = 300000;
  o.batch = 16;
  o.seed = 42;
  return o;
}

TEST(FuzzCampaign, FindsSeededBugThroughStagedCompares) {
  fuzz::Campaign c(target_binary("RV"), fast_opts());
  const auto r = c.run();

  ASSERT_TRUE(c.target().trap_entries == 0);
  ASSERT_TRUE(r.found_crash())
      << "budget " << r.execs << " execs, corpus " << r.corpus_size
      << ", edges " << r.edges_covered;
  const fuzz::CrashReport& cr = r.crashes.front();
  EXPECT_EQ(cr.reason, emu::StopReason::Breakpoint);
  ASSERT_GE(cr.input.size(), 2u);
  EXPECT_EQ(cr.input[0], 'R');
  EXPECT_EQ(cr.input[1], 'V');
  EXPECT_FALSE(cr.postmortem.empty());
  EXPECT_NE(cr.postmortem.find("ebreak"), std::string::npos)
      << cr.postmortem;
  EXPECT_GT(cr.found_at_exec, 0u);
  EXPECT_LE(cr.found_at_exec, r.execs);
}

TEST(FuzzCampaign, CoverageCurveRises) {
  auto opts = fast_opts();
  opts.max_execs = 40000;
  opts.stop_on_crash = false;
  fuzz::Campaign c(target_binary("XYZQ"), opts);
  const auto r = c.run();

  ASSERT_GE(r.coverage_curve.size(), 2u)
      << "search never found anything novel after the seed";
  for (std::size_t i = 1; i < r.coverage_curve.size(); ++i) {
    EXPECT_LE(r.coverage_curve[i - 1].first, r.coverage_curve[i].first);
    EXPECT_LE(r.coverage_curve[i - 1].second, r.coverage_curve[i].second);
  }
  EXPECT_GT(r.coverage_curve.back().second, r.coverage_curve.front().second);
  EXPECT_EQ(r.coverage_curve.back().second, r.edges_covered);
  EXPECT_GT(r.corpus_size, 1u);
}

TEST(FuzzCampaign, MultiWorkerShardsAndStillFindsTheBug) {
  fuzz::Campaign c(target_binary("RV"), fast_opts(2));
  const auto r = c.run();
  ASSERT_TRUE(r.found_crash());

  // Per-worker counters live in their own namespaces and sum to the
  // campaign total.
  const auto& reg = obs::Registry::instance();
  const std::uint64_t w0 = reg.value("rvdyn.fuzz.w0.execs");
  const std::uint64_t w1 = reg.value("rvdyn.fuzz.w1.execs");
  EXPECT_EQ(w0 + w1, r.execs);
  EXPECT_GT(w0, 0u);  // worker 0 at least ran the seed calibration
}

// max_execs is one budget for all workers together: each exec claims its
// number before it runs, so the workers racing for the last execs cannot
// overshoot it.
TEST(FuzzCampaign, MultiWorkerBudgetIsExact) {
  auto opts = fast_opts(4);
  opts.max_execs = 20000;
  opts.stop_on_crash = false;
  fuzz::Campaign c(target_binary("RV!"), opts);
  const auto r = c.run();
  EXPECT_EQ(r.execs, opts.max_execs);

  const auto& reg = obs::Registry::instance();
  std::uint64_t sum = 0;
  for (unsigned w = 0; w < opts.workers; ++w)
    sum += reg.value("rvdyn.fuzz.w" + std::to_string(w) + ".execs");
  EXPECT_EQ(sum, r.execs);
}

// The guest-side gate must be exact: with one worker the local map and the
// global set light the same slots, so every 64 KiB map scan admits an
// input. A gate that re-fires on wrapped hit counters scanned 523 times for
// 6 admissions on this campaign.
TEST(FuzzCampaign, OneWorkerScansOnlyWhenItAdmits) {
  fuzz::CampaignOptions o;
  o.workers = 1;
  o.max_execs = 30000;
  o.seed = 1;
  o.stop_on_crash = false;
  fuzz::Campaign c(target_binary("RV!"), o);
  const auto r = c.run();
  ASSERT_EQ(r.execs, o.max_execs);

  const auto& reg = obs::Registry::instance();
  const std::uint64_t scans = reg.value("rvdyn.fuzz.w0.novelty_scans");
  const std::uint64_t admits = reg.value("rvdyn.fuzz.w0.corpus_admits");
  EXPECT_GT(admits, 1u) << "search never found anything past the seed";
  EXPECT_EQ(admits, r.corpus_size);
  EXPECT_EQ(scans, admits) << "novelty scans that admitted nothing";
}

// Back-to-back campaigns must not accumulate worker counters (the scoped
// registry reset) and must not leak coverage state between instances.
TEST(FuzzCampaign, RepeatCampaignsStartClean) {
  const auto bin = target_binary("RV");
  std::uint64_t execs_per_run[2];
  std::uint64_t found_at[2];
  for (int i = 0; i < 2; ++i) {
    fuzz::Campaign c(bin, fast_opts());
    const auto r = c.run();
    ASSERT_TRUE(r.found_crash()) << "run " << i;
    execs_per_run[i] = r.execs;
    found_at[i] = r.crashes.front().found_at_exec;
    EXPECT_EQ(obs::Registry::instance().value("rvdyn.fuzz.w0.execs"),
              r.execs)
        << "scoped reset failed: counters accumulated across campaigns";
  }
  // Determinism: same binary, same seed, fresh campaign — same search.
  EXPECT_EQ(execs_per_run[0], execs_per_run[1]);
  EXPECT_EQ(found_at[0], found_at[1]);
}

// The search itself is pinned: with default options and one worker, a
// campaign is a function of its seed, so seeds 1-6 must find the "RV!" bug
// at exactly these execs, with the same corpus and coverage. Any change to
// the mutator's draws, the schedule or the novelty gate moves them.
TEST(FuzzCampaign, SeededSearchIsPinned) {
  const auto bin = target_binary("RV!");
  const std::uint64_t found_at[] = {18218, 35754, 51619, 41200, 21845, 50404};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fuzz::CampaignOptions o;
    o.seed = seed;
    fuzz::Campaign c(bin, o);
    const auto r = c.run();
    ASSERT_TRUE(r.found_crash()) << "seed " << seed;
    EXPECT_EQ(r.crashes.front().found_at_exec, found_at[seed - 1])
        << "seed " << seed;
    EXPECT_EQ(r.corpus_size, 6u) << "seed " << seed;
    EXPECT_EQ(r.edges_covered, 15u) << "seed " << seed;
  }
}

TEST(FuzzCampaign, ScopedViewIsolatesNamespaces) {
  obs::ScopedView a("fuzztest.a"), b("fuzztest.b");
  const auto ca = a.counter("hits");
  const auto cb = b.counter("hits");
  ca.add(3);
  cb.add(5);
  EXPECT_EQ(a.value("hits"), 3u);
  EXPECT_EQ(b.value("hits"), 5u);
  a.reset();
  EXPECT_EQ(a.value("hits"), 0u);
  EXPECT_EQ(b.value("hits"), 5u) << "prefix reset bled into a sibling";
}

TEST(FuzzCampaign, RejectsTargetWithoutContractSymbols) {
  EXPECT_THROW(
      fuzz::Campaign(assembler::assemble(workloads::fib_program(5))),
      rvdyn::Error);
}

}  // namespace
