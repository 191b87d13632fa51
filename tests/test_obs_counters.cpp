// Every counter is declared once, in its layer's stats list: this checks
// that each declared name reaches obs::Registry exactly once per publish,
// with its struct field's value, that the names perfbench reads by string
// are declared, and that docs/observability.md documents every name.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "emu/machine.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/stats.hpp"
#include "parse/cfg.hpp"
#include "patch/editor.hpp"
#include "workloads/workloads.hpp"

namespace rvdyn {
namespace {

/// A declared counter and the value its struct field holds.
struct Expected {
  std::string name;
  std::uint64_t value;
};

template <typename S>
void expect_list(std::vector<Expected>* out, const S& stats,
                 const std::string& prefix = {}) {
  for (const auto& e : S::entries())
    out->push_back({prefix + e.name, stats.*e.field});
}

std::vector<std::uint64_t> read(const std::vector<Expected>& want) {
  std::vector<std::uint64_t> v;
  for (const Expected& w : want)
    v.push_back(obs::Registry::instance().value(w.name));
  return v;
}

using Lists = std::function<void(std::vector<Expected>*)>;

/// After `publish`, each counter that `lists` names must have moved by
/// exactly its field's value (not at all in RVDYN_OBS=OFF builds); after
/// `again`, a second publish, none may have moved.
void check_publish(const Lists& lists, const std::function<void()>& publish,
                   const std::function<void()>& again) {
  std::vector<Expected> names;
  lists(&names);
  const std::vector<std::uint64_t> before = read(names);
  publish();
  std::vector<Expected> want;
  lists(&want);
  const std::vector<std::uint64_t> after = read(want);
  for (std::size_t i = 0; i < want.size(); ++i) {
#if RVDYN_OBS_ENABLED
    EXPECT_EQ(after[i] - before[i], want[i].value) << want[i].name;
#else
    EXPECT_EQ(after[i], before[i]) << want[i].name;
#endif
  }
  again();
  const std::vector<std::uint64_t> last = read(want);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(last[i], after[i]) << "second publish added to " << want[i].name;
}

/// Every declared name, fuzz worker names as worker 0's.
std::vector<std::string> declared() {
  std::vector<Expected> all;
  expect_list(&all, emu::Machine::CacheStats{});
  expect_list(&all, emu::jit::Stats{});
  expect_list(&all, isa::DecodeStats{});
  expect_list(&all, parse::ParseStats{});
  expect_list(&all, patch::RewriteStats{});
  expect_list(&all, codegen::GenStats{});
  expect_list(&all, patch::reloc::RelocStats{});
  expect_list(&all, fuzz::WorkerStats{}, "rvdyn.fuzz.w0.");
  std::vector<std::string> names;
  for (const Expected& e : all) names.push_back(e.name);
  return names;
}

TEST(ObsCounters, MachineListsPublishOnceWithTheJitOn) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::matmul_program(12, 2));
#if RVDYN_JIT_ENABLED
  for (const auto bk : {emu::jit::BackendKind::X64,
                        emu::jit::BackendKind::Threaded}) {
    emu::Machine m;
    m.jit_config().backend = bk;
    m.load(bin);
    ASSERT_EQ(m.run(), emu::StopReason::Exited);
    EXPECT_GT(m.jit_stats().insns_retired, 0u);
    const auto publish = [&] { m.publish_metrics(); };
    check_publish(
        [&](std::vector<Expected>* out) {
          expect_list(out, m.cache_stats());
          expect_list(out, m.jit_stats());
        },
        publish, publish);
  }
#endif

  // The decoder list over the same program's text, plus one failure and
  // one reference decode of each width.
  const isa::Decoder dec;
  isa::Instruction insn;
  for (const auto& sec : bin.sections())
    if (sec.is_code())
      dec.decode_range(sec.data.data(), sec.data.size(),
                       [](std::size_t, const isa::Instruction&, unsigned) {
                         return true;
                       });
  dec.decode32(0xffffffff, &insn);
  dec.decode16(0x0000, &insn);
  dec.decode32_linear(0x00000013, &insn);  // nop
  dec.decode16_linear(0x0001, &insn);      // c.nop
  // A publish zeroes the decoder's tallies, so compare against a copy.
  const isa::DecodeStats tallies = dec.decode_stats();
  const auto publish = [&] { dec.publish_stats(); };
  check_publish(
      [&](std::vector<Expected>* out) { expect_list(out, tallies); }, publish,
      publish);
}

TEST(ObsCounters, RewriteListsPublishOnceAtCommit) {
  const symtab::Symtab bin =
      assembler::assemble(workloads::many_function_program(200));
  parse::ParseOptions popts;
  popts.num_threads = 2;

  // parse() runs once per CodeObject, so it has no second publish.
  parse::CodeObject co(bin);
  check_publish(
      [&](std::vector<Expected>* out) { expect_list(out, co.parse_stats()); },
      [&] { co.parse(popts); }, [] {});

  patch::BinaryEditor editor(bin, popts);
  const codegen::Variable counter = editor.alloc_var("counter");
  for (const auto& [entry, f] : editor.code().functions())
    editor.insert_at(entry, patch::PointType::BlockEntry,
                     codegen::increment(counter));
  symtab::Symtab out = bin;
  patch::SymtabSpace space(&out);
  // The first commit builds the plan and publishes; the second reuses it.
  const auto commit = [&] { ASSERT_TRUE(editor.commit_to(space).ok()); };
  check_publish(
      [&](std::vector<Expected>* out) {
        expect_list(out, editor.stats());
        expect_list(out, editor.stats().gen);
        expect_list(out, editor.stats().reloc);
      },
      commit, commit);
  EXPECT_GT(editor.stats().gen.n_insns, 0u);
  EXPECT_EQ(editor.stats().snippet_insns, editor.stats().gen.n_insns);
}

// A worker publishes after the seed calibration and when its loop ends;
// the two together must add up to its tallies, not count any twice.
TEST(ObsCounters, FuzzWorkerListPublishesItsTallies) {
  fuzz::CampaignOptions o;
  o.workers = 1;
  o.max_execs = 3000;
  o.seed = 1;
  o.stop_on_crash = false;
  const symtab::Symtab target =
      assembler::assemble(workloads::fuzz_target_program("RV!"));
  fuzz::Campaign c(target, o);
  const fuzz::CampaignResult r = c.run();
  const fuzz::WorkerStats& w = c.worker_stats(0);
  EXPECT_EQ(w.execs, r.execs);
  EXPECT_EQ(w.hangs, r.hangs);
  EXPECT_EQ(w.corpus_admits, r.corpus_size);
  EXPECT_GT(w.reset_pages, 0u);
  std::vector<Expected> want;
  expect_list(&want, w, "rvdyn.fuzz.w0.");
  const std::vector<std::uint64_t> got = read(want);
  for (std::size_t i = 0; i < want.size(); ++i) {
#if RVDYN_OBS_ENABLED
    EXPECT_EQ(got[i], want[i].value) << want[i].name;
#else
    EXPECT_EQ(got[i], 0u) << want[i].name;
#endif
  }
}

TEST(ObsCounters, EveryNameIsDeclaredOnce) {
  const std::vector<std::string> names = declared();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "a name is declared twice";
  // perfbench reads these by string; a renamed counter would read 0 there.
  for (const char* read_by_perfbench :
       {"rvdyn.emu.jit.insns_retired", "rvdyn.emu.jit.compile_ns",
        "rvdyn.emu.jit.evict.write_code", "rvdyn.emu.bcache.hit",
        "rvdyn.emu.bcache.miss", "rvdyn.fuzz.w0.corpus_admits",
        "rvdyn.fuzz.w0.reset_pages", "rvdyn.parse.sched.idle_ns"})
    EXPECT_EQ(unique.count(read_by_perfbench), 1u) << read_by_perfbench;
}

TEST(ObsCounters, EveryNameIsDocumented) {
  std::ifstream in(RVDYN_OBSERVABILITY_DOC);
  ASSERT_TRUE(in) << RVDYN_OBSERVABILITY_DOC;
  std::stringstream doc;
  doc << in.rdbuf();
  for (std::string name : declared()) {
    const std::string w0 = "rvdyn.fuzz.w0.";
    if (name.compare(0, w0.size(), w0) == 0)
      name = "rvdyn.fuzz.w<i>." + name.substr(w0.size());
    EXPECT_NE(doc.str().find("`" + name + "`"), std::string::npos)
        << name << " is not in docs/observability.md";
  }
}

}  // namespace
}  // namespace rvdyn
