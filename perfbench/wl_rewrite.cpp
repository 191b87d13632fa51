// rewrite: the tool's start-up path. Static rewrite of the ROADMAP/F2
// 1500-function binary: Symtab::read -> BinaryEditor (parse, 2 threads) ->
// insert a seeded point set -> commit() -> Symtab::write. Parse, dataflow,
// codegen and patch do nearly all the work; the emulator does none.
#include <algorithm>
#include <array>
#include <optional>

#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "codegen/snippet.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/summaries.hpp"
#include "obs/metrics.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace rvdyn;
using patch::PointType;

constexpr int kFunctions = 1500;
// Two parse threads: a parse-scaling fix can show, while half of a 4-vCPU
// host stays free for neighbours.
constexpr unsigned kParseThreads = 2;
constexpr std::array<PointType, 4> kTypes = {
    PointType::FuncEntry, PointType::FuncExit, PointType::BlockEntry,
    PointType::CallSite};

/// The instruction a point's snippet runs before: entry points sit on the
/// block's first instruction, exit and call-site points on its terminator.
std::uint64_t point_pc(const parse::Function& f, const patch::Point& p) {
  const parse::Block* b = f.block_at(p.block);
  if (p.type == PointType::FuncExit || p.type == PointType::CallSite)
    return b->last().addr;
  return p.block;
}

class Rewrite final : public Workload {
 public:
  explicit Rewrite(const Env& env) : env_(env) {}

  const char* op_name() const override { return "rewrite_ms"; }

  void setup() override {
    Tracer& tr = *env_.tracer;
    {
      Span s(tr, "assembler");
      image_ = assembler::assemble_elf(workloads::many_function_program(kFunctions));
    }
    const symtab::Symtab orig = symtab::Symtab::read(image_);

    // The seeded point set: for every function symbol, a non-empty subset
    // of the four point types (each type present with probability 8/15).
    Rng rng(env_.seed);
    masks_.clear();
    std::vector<std::uint64_t> entries;
    for (const symtab::Symbol& s : orig.symbols())
      if (s.is_function()) entries.push_back(s.value);
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    Digest d;
    d.add(image_.data(), image_.size());
    for (const std::uint64_t e : entries) {
      const auto mask = static_cast<unsigned>(rng.range(1, 15));
      masks_[e] = mask;
      d.add_u64(e);
      d.add_u64(mask);
    }
    digest_ = d.value();

    // Reference: the original binary's exit code and per-pc hit counts,
    // produced by the emulator before any rewriting.
    auto proc = proccontrol::Process::launch(orig);
    proc->enable_pc_profile(true);
    const proccontrol::Event ev = proc->continue_run();
    ref_exit_ = ev.exit_code;
    ref_exited_ = ev.kind == proccontrol::Event::Kind::Exited;
    ref_hits_.clear();
    for (const auto& [pc, c] : proc->pc_profile()) ref_hits_[pc] = c.hits;

    // Warm-up: one full iteration; its output is the digest every later
    // iteration must reproduce, and it fixes the expected counter values.
    expected_.fill(0);
    warm_output_.clear();
    rewrite_once(/*warmup=*/true);
    clear_noted();
  }

  std::uint64_t input_digest() const override { return digest_; }

  std::string describe_inputs() const override {
    std::array<unsigned, 4> per_type{};
    for (const auto& [e, m] : masks_)
      for (unsigned t = 0; t < 4; ++t) per_type[t] += (m >> t) & 1;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "many_function_program(%d), %zu instrumented functions; "
                  "entry %u, exit %u, block %u, call-site %u",
                  kFunctions, masks_.size(), per_type[0], per_type[1],
                  per_type[2], per_type[3]);
    return buf;
  }

  double iterate() override {
    env_.checks->attempt();
    return rewrite_once(/*warmup=*/false);
  }

  void final_check() override {
    // Once per run: execute the rewritten binary and hold its counters to
    // the original run's per-pc hit counts at the instrumented points.
    env_.checks->attempt();
    Checks& ck = *env_.checks;
    const symtab::Symtab out = symtab::Symtab::read(warm_output_);
    auto proc = proccontrol::Process::launch(out);
    if (const symtab::Section* t = out.find_section(".rvdyn.traps"))
      proc->install_trap_table(patch::BinaryEditor::parse_trap_section(t->data));
    const proccontrol::Event ev = proc->continue_run();
    ck.expect(ref_exited_ && ev.kind == proccontrol::Event::Kind::Exited,
              "rewrite: original and rewritten binaries exit");
    ck.expect(ev.exit_code == ref_exit_,
              "rewrite: rewritten exit code equals the original's");
    for (unsigned t = 0; t < 4; ++t) {
      std::uint64_t want = expected_[t];
      if (env_.sabotage == Sabotage::Counter && kTypes[t] == PointType::BlockEntry)
        ++want;
      ck.expect(proc->read_mem(counter_addr_[t], 8) == want,
                std::string("rewrite: ") + patch::point_type_name(kTypes[t]) +
                    " counter equals the original run's hits at its points");
    }
  }

 private:
  double rewrite_once(bool warmup) {
    Tracer& tr = *env_.tracer;
    const std::uint64_t idle0 =
        obs::Registry::instance().value("rvdyn.parse.sched.idle_ns");
    std::vector<std::uint8_t> bytes;
    std::unique_ptr<patch::BinaryEditor> ed;
    std::array<codegen::Variable, 4> vars;
    const Clock::time_point t0 = Clock::now();
    {
      Span it(tr, "iteration");
      std::optional<symtab::Symtab> bin;
      {
        Span s(tr, "symtab.read");
        bin.emplace(symtab::Symtab::read(image_));
      }
      {
        Span s(tr, "parse");
        parse::ParseOptions popts;
        popts.num_threads = kParseThreads;
        ed = std::make_unique<patch::BinaryEditor>(std::move(*bin), popts);
      }
      {
        Span s(tr, "patch.insert");
        for (unsigned t = 0; t < 4; ++t)
          vars[t] = ed->alloc_var(patch::point_type_name(kTypes[t]));
        for (const auto& [entry, f] : ed->code().functions()) {
          const auto m = masks_.find(entry);
          if (m == masks_.end()) continue;
          for (unsigned t = 0; t < 4; ++t)
            if ((m->second >> t) & 1)
              ed->insert_at(entry, kTypes[t], codegen::increment(vars[t]));
        }
      }
      symtab::Symtab out = [&] {
        Span s(tr, "patch.commit");
        return ed->commit();
      }();
      {
        Span s(tr, "symtab.write");
        bytes = out.write();
      }
    }
    const double op_ms = ms_between(t0, Clock::now());

    Digest d;
    d.add(bytes.data(), bytes.size());
    if (warmup) {
      out_digest_ = d.value();
      warm_output_ = bytes;
      for (unsigned t = 0; t < 4; ++t) counter_addr_[t] = vars[t].addr;
      expect_counters(*ed);
    } else {
      env_.checks->expect(d.value() == out_digest_,
                          "rewrite: output ELF identical on every iteration");
    }

    const double idle_ms =
        static_cast<double>(
            obs::Registry::instance().value("rvdyn.parse.sched.idle_ns") - idle0) /
        1e6;
    note("parse.idle_ms", idle_ms);
    note("parse.blocks", ed->code().total_stats().n_blocks);
    note_editor(*ed);

    // Traced runs only: the dataflow the commit computes, recomputed
    // standalone after the timed iteration, to estimate its share of
    // patch.commit without inflating the iteration.
    if (tr.enabled()) standalone_dataflow(*ed);
    return op_ms;
  }

  void standalone_dataflow(const patch::BinaryEditor& ed) {
    Tracer& tr = *env_.tracer;
    std::optional<dataflow::Summaries> sums;
    {
      Span s(tr, "dataflow.summaries");
      sums.emplace(ed.code());
    }
    Span s(tr, "dataflow.liveness");
    for (const auto& [entry, f] : ed.code().functions())
      if (masks_.count(entry)) dataflow::Liveness live(*f, &*sums);
  }

  /// Expected counter per point type: the sum of the original run's hits
  /// at the pcs its points instrument.
  void expect_counters(const patch::BinaryEditor& ed) {
    for (const auto& [entry, f] : ed.code().functions()) {
      const auto m = masks_.find(entry);
      if (m == masks_.end()) continue;
      for (unsigned t = 0; t < 4; ++t) {
        if (!((m->second >> t) & 1)) continue;
        for (const patch::Point& p : patch::find_points(*f, kTypes[t])) {
          const auto h = ref_hits_.find(point_pc(*f, p));
          if (h != ref_hits_.end()) expected_[t] += h->second;
        }
      }
    }
  }

  Env env_;
  std::vector<std::uint8_t> image_;
  std::map<std::uint64_t, unsigned> masks_;
  std::uint64_t digest_ = 0;
  int ref_exit_ = 0;
  bool ref_exited_ = false;
  std::unordered_map<std::uint64_t, std::uint64_t> ref_hits_;
  std::uint64_t out_digest_ = 0;
  std::vector<std::uint8_t> warm_output_;
  std::array<std::uint64_t, 4> counter_addr_{};
  std::array<std::uint64_t, 4> expected_{};
};

}  // namespace

std::unique_ptr<Workload> make_rewrite(const Env& env) {
  return std::make_unique<Rewrite>(env);
}

}  // namespace perfbench
