// End-to-end observability: run the full assemble → parse → instrument →
// execute pipeline with tracing on and check that (a) the Chrome trace
// contains the expected spans and (b) the metrics registry saw real traffic
// from every layer's hot path.
#include <gtest/gtest.h>

#include <string>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "dataflow/summaries.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

TEST(ObsPipeline, TraceAndMetricsCoverTheWholeStack) {
  obs::TraceSink& sink = obs::TraceSink::instance();
  sink.clear();
  sink.set_enabled(true);

  const symtab::Symtab bin =
      assembler::assemble(workloads::matmul_program(8, 2), {});

  patch::BinaryEditor editor(bin);
  const auto counter = editor.alloc_var("entries");
  const auto* f = editor.code().function_named("matmul");
  ASSERT_NE(f, nullptr);
  editor.insert_at(f->entry(), patch::PointType::FuncEntry,
                   codegen::increment(counter));
  const symtab::Symtab rewritten = editor.commit();

  auto proc = proccontrol::Process::launch(rewritten);
  proc->install_trap_table(editor.trap_table());
  const auto ev = proc->continue_run();
  ASSERT_EQ(ev.kind, proccontrol::Event::Kind::Exited);
  EXPECT_EQ(proc->read_mem(counter.addr, 8), 2u);

  proc->machine().publish_metrics();
  sink.set_enabled(false);

#if RVDYN_OBS_ENABLED
  // The timeline covers every pipeline stage.
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("rvdyn.asm.assemble"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.parse"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.dataflow.summaries"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.patch.commit"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.emu.load"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.proc.continue_run"), std::string::npos);
  EXPECT_NE(json.find("rvdyn.emu.run"), std::string::npos);

  // Hot-path counters from each layer saw real traffic.
  obs::Registry& r = obs::Registry::instance();
  EXPECT_GT(r.value("rvdyn.isa.decode32.fast"), 0u);
  EXPECT_GT(r.value("rvdyn.emu.icache.hit"), 0u);
  EXPECT_GT(r.value("rvdyn.emu.bcache.hit"), 0u);
  EXPECT_GT(r.value("rvdyn.parse.functions"), 0u);
  EXPECT_GT(r.value("rvdyn.parse.blocks"), 0u);
  EXPECT_GT(r.value("rvdyn.patch.snippets_inserted"), 0u);
  EXPECT_GT(r.value("rvdyn.patch.relocated_functions"), 0u);

  // The snapshot renders to JSON with the namespaces present.
  const std::string metrics = r.to_json();
  EXPECT_NE(metrics.find("rvdyn.isa."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.emu."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.parse."), std::string::npos);
  EXPECT_NE(metrics.find("rvdyn.patch."), std::string::npos);
#endif
}

// Each analysis is computed once: a commit runs Liveness once per function
// that Summaries analyses, plus once per relocated function, which the
// weave pass and the springboards share.
TEST(ObsPipeline, CommitRunsLivenessOncePerRelocatedFunction) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::many_function_program(200), {});
  patch::BinaryEditor editor(bin);
  const obs::Registry& r = obs::Registry::instance();
  const char* kRuns = "rvdyn.dataflow.liveness.runs";

  const std::uint64_t r0 = r.value(kRuns);
  { const dataflow::Summaries standalone(editor.code()); }
  const std::uint64_t per_summaries = r.value(kRuns) - r0;

  const auto v = editor.alloc_var("entries");
  for (const auto& [entry, f] : editor.code().functions())
    editor.insert_at(entry, patch::PointType::FuncEntry,
                     codegen::increment(v));
  const std::uint64_t r1 = r.value(kRuns);
  editor.commit();
  const std::uint64_t runs = r.value(kRuns) - r1;

  EXPECT_EQ(editor.stats().relocated_functions,
            editor.code().functions().size());
#if RVDYN_OBS_ENABLED
  std::uint64_t analysed = 0;
  for (const auto& [entry, f] : editor.code().functions())
    analysed += f->entry_block() != nullptr;
  EXPECT_EQ(per_summaries, analysed);
  EXPECT_EQ(runs, per_summaries + editor.stats().relocated_functions);
#else
  EXPECT_EQ(per_summaries, 0u);  // the counter compiles out
  EXPECT_EQ(runs, 0u);
#endif
}

TEST(ObsPipeline, HwCounterFileMatchesArchitecturalState) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::fib_program(10), {});
  auto proc = proccontrol::Process::launch(bin);
  const auto ev = proc->continue_run();
  ASSERT_EQ(ev.kind, proccontrol::Event::Kind::Exited);

  const auto hw = proc->hw_counters();
  EXPECT_EQ(hw.instret, proc->machine().instret());
  EXPECT_EQ(hw.cycles, proc->machine().cycles());
  EXPECT_GT(hw.instret, 0u);
#if RVDYN_OBS_ENABLED
  // Cache counters mirror cache_stats() (zero in OFF builds).
  EXPECT_EQ(hw.bcache_hits, proc->machine().cache_stats().bcache_hits);
  EXPECT_GT(hw.blocks_entered, 0u);
#endif
}

}  // namespace
}  // namespace rvdyn
