// debug: a scripted debugger session on fib_program(n). A breakpoint on
// fib, StackWalker::walk at every stop, and at a seeded subset of stops on
// the recursive path up to 8 step_emulated steps and a second walk from
// mid-prologue. Proccontrol breakpoints and stepping and stackwalk do the
// work, and every stop and step rewrites code in emu's caches.
#include <optional>

#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "stackwalk/stackwalker.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace rvdyn;
using proccontrol::Event;

constexpr int kFibN = 20;
// From fib's entry, 8 instructions reach the recursive `call fib` but do
// not execute it, so stepping never reaches the next breakpoint and the
// stop sequence stays that of the call tree.
constexpr unsigned kMaxSteps = 8;
// One recursive stop in kStepEvery is stepped (seeded draw).
constexpr unsigned kStepEvery = 4;

class Debug final : public Workload {
 public:
  explicit Debug(const Env& env) : env_(env) {}

  const char* op_name() const override { return "session_ms"; }

  void setup() override {
    {
      Span s(*env_.tracer, "assembler");
      bin_ = assembler::assemble(workloads::fib_program(kFibN));
    }
    entry_ = bin_.find_symbol("fib")->value;

    // Host model of fib's call tree, in stop (preorder) order: each call
    // stops once at fib's entry with depth+1 frames on the stack (the fib
    // frames plus _start).
    depth_.clear();
    steps_.clear();
    Rng rng(env_.seed);
    const std::uint64_t result = model(kFibN, 1, rng);
    model_exit_ = static_cast<int>(result & 255);
    model_frames_ = 0;
    Digest d;
    for (std::size_t i = 0; i < depth_.size(); ++i) {
      const std::uint64_t walks = steps_[i] ? 2 : 1;
      model_frames_ += walks * (depth_[i] + 1);
      d.add_u64(steps_[i]);
    }
    digest_ = d.value();

    env_.checks->attempt();
    session();
    clear_noted();
  }

  std::uint64_t input_digest() const override { return digest_; }

  std::string describe_inputs() const override {
    std::size_t stepped = 0, steps = 0;
    for (const unsigned s : steps_) {
      stepped += s != 0;
      steps += s;
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "fib_program(%d): %zu stops, %zu stepped (%zu steps), "
                  "exit %d, %llu frames walked",
                  kFibN, depth_.size(), stepped, steps, model_exit_,
                  static_cast<unsigned long long>(model_frames_));
    return buf;
  }

  double iterate() override {
    env_.checks->attempt();
    return session();
  }

 private:
  /// Appends the calls of fib(n) at `depth` in preorder; returns fib(n).
  std::uint64_t model(int n, unsigned depth, Rng& rng) {
    depth_.push_back(depth);
    const std::size_t me = steps_.size();
    steps_.push_back(0);
    if (n < 2) return static_cast<std::uint64_t>(n);
    if (rng.next() % kStepEvery == 0)
      steps_[me] = static_cast<unsigned>(rng.range(1, kMaxSteps));
    const std::uint64_t a = model(n - 1, depth + 1, rng);
    return a + model(n - 2, depth + 1, rng);
  }

  double session() {
    Tracer& tr = *env_.tracer;
    std::vector<double> stop_us;
    stop_us.reserve(depth_.size());
    std::unique_ptr<proccontrol::Process> proc;
    std::optional<parse::CodeObject> co;
    std::size_t stops = 0, bad_walks = 0, bad_steps = 0;
    std::uint64_t frames = 0;
    Event ev;
    const Clock::time_point start = Clock::now();
    {
      Span it(tr, "iteration");
      {
        Span s(tr, "proccontrol.launch");
        proc = proccontrol::Process::launch(bin_);
      }
      {
        Span s(tr, "parse");
        co.emplace(bin_);
        co->parse();
      }
      proc->insert_breakpoint(entry_);
      stackwalk::StackWalker sw(*proc, *co);
      while (true) {
        const Clock::time_point t0 = Clock::now();
        {
          Span s(tr, "proccontrol.continue");
          ev = proc->continue_run();
        }
        if (ev.kind != Event::Kind::Stopped || stops == depth_.size()) break;
        const std::size_t i = stops++;
        const std::size_t want = depth_[i] + 1;
        {
          Span s(tr, "stackwalk.walk");
          const std::size_t n = sw.walk().size();
          frames += n;
          bad_walks += n != want;
        }
        if (steps_[i] != 0) {
          for (unsigned k = 0; k < steps_[i]; ++k) {
            Span s(tr, "proccontrol.step");
            bad_steps += proc->step_emulated().kind != Event::Kind::Stepped;
          }
          Span s(tr, "stackwalk.walk");
          const std::size_t n = sw.walk().size();
          frames += n;
          bad_walks += n != want;
        }
        stop_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      }
    }
    const double session_ms = ms_between(start, Clock::now());

    Checks& ck = *env_.checks;
    std::uint64_t want_frames = model_frames_;
    if (env_.sabotage == Sabotage::Frames) ++want_frames;
    ck.expect(ev.kind == Event::Kind::Exited && ev.exit_code == model_exit_,
              "debug: the session exits with fib(n) & 255");
    ck.expect(stops == depth_.size(), "debug: one stop per call of the model");
    ck.expect(bad_steps == 0, "debug: every step_emulated reports Stepped");
    ck.expect(bad_walks == 0, "debug: frames per walk equal the model's depth+1");
    ck.expect(frames == want_frames, "debug: frame total equals the model's");

    const emu::Machine& m = proc->machine();
    note("proccontrol.stops", static_cast<double>(stops));
    note("stackwalk.frames", static_cast<double>(frames));
    // One stop: continue to the next hit, walk, and that stop's steps. The
    // tail is p99.9, the highest percentile with ten stops beyond it.
    note("stop_us_p50", median(stop_us));
    note("stop_us_tail", percentile(stop_us, 99.9));
    note_machine(m);
    return session_ms;
  }

  Env env_;
  symtab::Symtab bin_;
  std::uint64_t entry_ = 0;
  std::vector<unsigned> depth_;  ///< per stop: fib frames on the stack
  std::vector<unsigned> steps_;  ///< per stop: step_emulated count
  int model_exit_ = 0;
  std::uint64_t model_frames_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_debug(const Env& env) {
  return std::make_unique<Debug>(env);
}

}  // namespace perfbench
