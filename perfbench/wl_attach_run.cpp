// attach_run: the paper's §4.1 application under dynamic instrumentation.
// Launch matmul_program(100, reps), stop at a seeded k-th call of matmul
// with a breakpoint, insert the Table 1 BB-count counter at every matmul
// block through commit_to(process.address_space()), continue to exit.
// Emulated execution of instrumented code is nearly all of the time.
#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "codegen/snippet.hpp"
#include "patch/editor.hpp"
#include "proccontrol/process.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace rvdyn;
using proccontrol::Event;

constexpr int kN = 100;
// One instrumented execution takes about 70 ms on a quiet 4-vCPU x86-64
// host, and about 150 ms when neighbours keep it busy.
constexpr int kReps = 6;
// The attach call k is drawn from [2, reps/2]: k >= 2 means the springboard
// write evicts blocks that are already compiled.
constexpr int kMaxK = kReps / 2;

class AttachRun final : public Workload {
 public:
  explicit AttachRun(const Env& env) : env_(env) {}

  const char* op_name() const override { return "run_ms"; }

  void setup() override {
    {
      Span s(*env_.tracer, "assembler");
      bin_ = assembler::assemble(workloads::matmul_program(kN, kReps));
    }
    Rng rng(env_.seed);
    k_ = static_cast<int>(rng.range(2, kMaxK));
    entry_ = bin_.find_symbol("matmul")->value;
    Digest d;
    d.add_u64(static_cast<std::uint64_t>(k_));
    d.add_u64(entry_);
    digest_ = d.value();

    // Reference: the same execution uninstrumented, stopped at the same
    // call, with the emulator's per-pc profile over calls k..reps.
    parse::CodeObject co(bin_);
    co.parse();
    std::vector<std::uint64_t> blocks;
    for (const auto& [a, b] : co.function_named("matmul")->blocks())
      blocks.push_back(a);
    auto proc = proccontrol::Process::launch(bin_);
    proc->insert_breakpoint(entry_);
    for (int i = 0; i < k_; ++i) proc->continue_run();
    proc->remove_breakpoint(entry_);
    ref_attach_cycles_ = proc->machine().cycles();
    proc->enable_pc_profile(true);
    const Event ev = proc->continue_run();
    ref_exited_ = ev.kind == Event::Kind::Exited;
    ref_exit_ = ev.exit_code;
    ref_cycles_ = proc->machine().cycles();
    expected_ = 0;
    for (const std::uint64_t b : blocks) {
      const auto it = proc->pc_profile().find(b);
      if (it != proc->pc_profile().end()) expected_ += it->second.hits;
    }

    env_.checks->attempt();
    run_once();
    clear_noted();
  }

  std::uint64_t input_digest() const override { return digest_; }

  std::string describe_inputs() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "matmul_program(%d, %d), attach at call k=%d, BB counter "
                  "at every matmul block",
                  kN, kReps, k_);
    return buf;
  }

  double iterate() override {
    env_.checks->attempt();
    return run_once();
  }

 private:
  double run_once() {
    Tracer& tr = *env_.tracer;
    Checks& ck = *env_.checks;
    Span it(tr, "iteration");
    std::unique_ptr<patch::BinaryEditor> ed;
    codegen::Variable counter;
    {
      Span s(tr, "parse");
      ed = std::make_unique<patch::BinaryEditor>(bin_);
    }
    {
      Span s(tr, "patch.insert");
      counter = ed->alloc_var("bb_count");
      ed->insert_at(entry_, patch::PointType::BlockEntry,
                    codegen::increment(counter));
    }
    std::unique_ptr<proccontrol::Process> proc;
    Event ev;
    std::uint64_t attach_cycles = 0;
    const Clock::time_point t0 = Clock::now();
    {
      Span run(tr, "run");
      {
        Span s(tr, "proccontrol.launch");
        proc = proccontrol::Process::launch(bin_);
      }
      proc->insert_breakpoint(entry_);
      for (int i = 0; i < k_; ++i) {
        Span s(tr, "emu.run");
        ev = proc->continue_run();
        ck.expect(ev.kind == Event::Kind::Stopped && ev.addr == entry_,
                  "attach_run: breakpoint stops at each matmul call");
      }
      {
        Span s(tr, "proccontrol.pause");
        attach_cycles = proc->machine().cycles();
        proc->remove_breakpoint(entry_);
        Span c(tr, "patch.commit");
        const Status st = ed->commit_to(proc->address_space());
        ck.expect(st.is_ok(), "attach_run: commit_to the live process");
      }
      {
        Span s(tr, "emu.run");
        ev = proc->continue_run();
      }
    }
    const double op_ms = ms_between(t0, Clock::now());

    std::uint64_t want = expected_;
    if (env_.sabotage == Sabotage::Counter) ++want;
    ck.expect(ref_exited_ && ev.kind == Event::Kind::Exited,
              "attach_run: instrumented execution exits");
    ck.expect(ev.exit_code == ref_exit_,
              "attach_run: exit code equals the uninstrumented run's");
    ck.expect(attach_cycles == ref_attach_cycles_,
              "attach_run: guest cycles at the attach point match the reference");
    ck.expect(proc->read_mem(counter.addr, 8) == want,
              "attach_run: BB counter equals the reference block entries over "
              "calls k..reps");

    const emu::Machine& m = proc->machine();
    // Table 1's overhead, over the instrumented part of the execution.
    note("guest_overhead_pct",
         100.0 * (static_cast<double>(m.cycles()) - static_cast<double>(ref_cycles_)) /
             static_cast<double>(ref_cycles_ - ref_attach_cycles_));
    note_machine(m);
    note("proccontrol.stops", k_);
    note_editor(*ed);
    return op_ms;
  }

  Env env_;
  symtab::Symtab bin_;
  int k_ = 2;
  std::uint64_t entry_ = 0;
  std::uint64_t digest_ = 0;
  bool ref_exited_ = false;
  int ref_exit_ = 0;
  std::uint64_t ref_attach_cycles_ = 0;
  std::uint64_t ref_cycles_ = 0;
  std::uint64_t expected_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_attach_run(const Env& env) {
  return std::make_unique<AttachRun>(env);
}

}  // namespace perfbench
