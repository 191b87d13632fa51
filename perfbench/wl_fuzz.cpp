// fuzz: a fresh fuzz::Campaign per iteration over fuzz_target_program("RV!")
// with one worker, the seed as the campaign RNG seed and a fixed exec
// budget. The campaign loop, emu's snapshot reset and JIT re-entry do the
// work: very many ~430-instruction runs with data-page resets.
#include <cstring>
#include <optional>

#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using namespace rvdyn;

const std::string kMagic = "RV!";
// Timed campaigns have a fixed budget, so every one does the same work
// whether or not it finds the bug. The first crash comes after about 45000
// execs on average with a roughly exponential tail (seed 12 needs more than
// 150000), so the bug is hunted once per run by a campaign that stops at
// the crash, with a budget no seed exhausts.
constexpr std::uint64_t kExecBudget = 30000;
constexpr std::uint64_t kHuntBudget = 4000000;

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().value(name);
}

/// True when the instruction at `pc` in `bin` is ebreak or c.ebreak,
/// decoded from the raw bytes.
bool is_ebreak_at(const symtab::Symtab& bin, std::uint64_t pc) {
  const auto h = bin.read_addr(pc, 2);
  if (h && *h == 0x9002) return true;
  const auto w = bin.read_addr(pc, 4);
  return w && *w == 0x00100073;
}

class Fuzz final : public Workload {
 public:
  explicit Fuzz(const Env& env) : env_(env) {}

  const char* op_name() const override { return "campaign_ms"; }

  void setup() override {
    {
      Span s(*env_.tracer, "assembler");
      bin_ = assembler::assemble(workloads::fuzz_target_program(kMagic));
    }
    Digest d;
    d.add_u64(env_.seed);
    d.add_u64(kExecBudget);
    d.add(kMagic.data(), kMagic.size());
    digest_ = d.value();
    env_.checks->attempt();
    reference_.reset();
    campaign_once();
    clear_noted();
  }

  std::uint64_t input_digest() const override { return digest_; }

  std::string describe_inputs() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "fuzz_target_program(\"%s\"), 1 worker, campaign seed %llu, "
                  "budget %llu execs",
                  kMagic.c_str(), static_cast<unsigned long long>(env_.seed),
                  static_cast<unsigned long long>(kExecBudget));
    return buf;
  }

  double iterate() override {
    env_.checks->attempt();
    return campaign_once();
  }

  void final_check() override {
    // Once per run: hunt the seeded bug with the run's seed until it is
    // found, and hold the crash to the target's construction.
    env_.checks->attempt();
    fuzz::CampaignOptions opts = options();
    opts.max_execs = kHuntBudget;
    opts.stop_on_crash = true;
    fuzz::Campaign c(bin_, opts);
    const fuzz::CampaignResult res = c.run();
    env_.checks->expect(res.found_crash(), "fuzz: the seeded bug is found");
    if (!res.found_crash()) return;
    check_crash(res.crashes[0], c.target());
    note("fuzz.bug_found_at_exec", static_cast<double>(res.crashes[0].found_at_exec));
  }

 private:
  fuzz::CampaignOptions options() const {
    fuzz::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = env_.seed;
    opts.collect_curve = false;
    return opts;
  }

  /// A crash must stop on the seeded ebreak, reached by an input that
  /// starts with the magic the target was built with.
  void check_crash(const fuzz::CrashReport& cr, const fuzz::WovenTarget& t) {
    Checks& ck = *env_.checks;
    const std::string magic = env_.sabotage == Sabotage::Magic ? "RW!" : kMagic;
    // The crash pc lies in woven code: check the bytes there.
    ck.expect(cr.reason == emu::StopReason::Breakpoint && is_ebreak_at(t.binary, cr.pc),
              "fuzz: the crash pc is the seeded ebreak");
    ck.expect(cr.input.size() >= magic.size() &&
                  std::memcmp(cr.input.data(), magic.data(), magic.size()) == 0,
              "fuzz: the crashing input starts with the magic");
  }

  double campaign_once() {
    Tracer& tr = *env_.tracer;
    Checks& ck = *env_.checks;
    fuzz::CampaignOptions opts = options();
    opts.max_execs = kExecBudget;
    opts.stop_on_crash = false;

    const std::uint64_t retired0 = counter("rvdyn.emu.jit.insns_retired");
    const std::uint64_t compile0 = counter("rvdyn.emu.jit.compile_ns");
    const std::uint64_t evict0 = counter("rvdyn.emu.jit.evict.write_code");
    const std::uint64_t hit0 = counter("rvdyn.emu.bcache.hit");
    const std::uint64_t miss0 = counter("rvdyn.emu.bcache.miss");
    fuzz::CampaignResult res;
    double run_ms = 0;
    std::uint64_t admits = 0, reset_pages = 0;
    {
      Span it(tr, "iteration");
      std::optional<fuzz::Campaign> c;
      {
        Span s(tr, "fuzz.weave");
        c.emplace(bin_, opts);
      }
      {
        Span s(tr, "fuzz.campaign");
        const Clock::time_point t0 = Clock::now();
        res = c->run();
        run_ms = ms_between(t0, Clock::now());
      }
      admits = counter("rvdyn.fuzz.w0.corpus_admits");
      reset_pages = counter("rvdyn.fuzz.w0.reset_pages");
      note_editor(*c->target().editor);
      if (res.found_crash()) check_crash(res.crashes[0], c->target());
      // Destroying the campaign publishes its worker machine's emu and JIT
      // counters to the obs registry.
    }

    ck.expect(res.execs == kExecBudget, "fuzz: campaign spends its exec budget");
    // One worker makes a campaign a function of its seed.
    const Summary sum{res.edges_covered, res.corpus_size,
                      res.found_crash() ? res.crashes[0].found_at_exec : 0};
    if (!reference_) reference_ = sum;
    ck.expect(sum == *reference_, "fuzz: every campaign of a seed is identical");

    const double execs = static_cast<double>(res.execs);
    note("execs_per_s", execs / (run_ms / 1e3));
    note("edges_covered", res.edges_covered);
    note("fuzz.admit_ratio", static_cast<double>(admits) / execs);
    note("fuzz.reset_pages", static_cast<double>(reset_pages));
    const double retired =
        static_cast<double>(counter("rvdyn.emu.jit.insns_retired") - retired0);
    note("fuzz.guest_insns_per_exec", retired / execs);
    note("emu.instret", retired);
    note("emu.jit.compile_ms",
         static_cast<double>(counter("rvdyn.emu.jit.compile_ns") - compile0) / 1e6);
    note("emu.jit.evict_write_code",
         static_cast<double>(counter("rvdyn.emu.jit.evict.write_code") - evict0));
    const double hits = static_cast<double>(counter("rvdyn.emu.bcache.hit") - hit0);
    const double lookups =
        hits + static_cast<double>(counter("rvdyn.emu.bcache.miss") - miss0);
    note("emu.bcache.hit_ratio", lookups > 0 ? hits / lookups : 0);
    return run_ms;
  }

  struct Summary {
    unsigned edges = 0;
    std::size_t corpus = 0;
    std::uint64_t first_crash = 0;
    bool operator==(const Summary&) const = default;
  };

  Env env_;
  symtab::Symtab bin_;
  std::uint64_t digest_ = 0;
  std::optional<Summary> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz(const Env& env) {
  return std::make_unique<Fuzz>(env);
}

}  // namespace perfbench
