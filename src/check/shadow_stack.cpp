// Shadow-stack walk oracle: the emulator retires jal/jalr/ret into a
// ground-truth call stack; StackWalker::walk at randomized stop points is
// diffed frame-by-frame against it.
#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "assembler/assembler.hpp"
#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "parse/cfg.hpp"
#include "proccontrol/process.hpp"
#include "stackwalk/stackwalker.hpp"

namespace rvdyn::check {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// One ground-truth call record: where the callee returns to, and the
/// caller's sp at the call instruction (= the callee's entry sp, which is
/// what a correct walk reports as the caller frame's sp).
struct ShadowFrame {
  std::uint64_t ret = 0;
  std::uint64_t sp = 0;
};

bool is_link(isa::Reg r) {
  return r.cls == isa::RegClass::Int && (r.num == 1 || r.num == 5);
}

}  // namespace

ShadowStackReport run_shadow_stack(const std::string& name,
                                   const std::string& asm_src,
                                   const ShadowStackOptions& opts) {
  ShadowStackReport rep;
  auto diverge = [&](std::uint64_t step, const std::string& what) {
    ++rep.divergence_count;
    if (rep.divergences.size() < opts.max_recorded)
      rep.divergences.push_back(Divergence{"shadow-stack", name, step, 0, what});
  };

  const symtab::Symtab st = assembler::assemble(asm_src);
  parse::CodeObject co(st);
  co.parse();

  // Dry run: learn the total retirement count so stop points cover the
  // whole trace (prologues, epilogues, leaves — not just steady state).
  std::uint64_t total = 0;
  {
    emu::Machine dry;
    dry.load(st);
    const emu::StopReason r = dry.run(opts.max_steps);
    if (r != emu::StopReason::Exited) {
      diverge(0, "workload did not exit on the dry run (stop reason " +
                     std::to_string(static_cast<int>(r)) + ")");
      return rep;
    }
    total = dry.instret();
  }

  std::set<std::uint64_t> stop_at;
  if (!opts.walk_every_step) {
    std::mt19937_64 rng(opts.seed);
    const std::uint64_t want = std::min<std::uint64_t>(opts.stops, total);
    while (stop_at.size() < want) stop_at.insert(rng() % total);
  }

  auto proc = proccontrol::Process::launch(st);
  emu::Machine& m = proc->machine();
  stackwalk::StackWalker walker(*proc, co);

  std::vector<ShadowFrame> shadow;
  m.set_trace([&](std::uint64_t pc, const isa::Instruction& insn) {
    if (insn.is_jal()) {
      if (is_link(insn.link_reg()))
        shadow.push_back(ShadowFrame{pc + insn.length(), m.get_x(2)});
    } else if (insn.is_jalr()) {
      const std::uint64_t target =
          (m.get_reg(insn.operand(1).reg) +
           static_cast<std::uint64_t>(insn.operand(2).imm)) &
          ~1ULL;
      if (is_link(insn.link_reg())) {
        shadow.push_back(ShadowFrame{pc + insn.length(), m.get_x(2)});
      } else if (!shadow.empty() && target == shadow.back().ret) {
        shadow.pop_back();  // ret; anything else is a tail/indirect jump
      }
    }
  });

  auto compare = [&](std::uint64_t step) {
    ++rep.stops;
    const std::size_t depth = shadow.size() + 1;
    rep.max_depth = std::max<std::uint64_t>(rep.max_depth, depth);
    const auto frames =
        walker.walk(static_cast<unsigned>(depth) + 8);
    if (frames.size() != depth) {
      std::ostringstream os;
      os << "frame count mismatch at step " << step << " pc " << hex(m.pc())
         << ": walk " << frames.size() << " [";
      for (const auto& f : frames) os << f.func_name << "@" << hex(f.pc) << " ";
      os << "] vs shadow depth " << depth << " [" << hex(m.pc()) << " ";
      for (auto it = shadow.rbegin(); it != shadow.rend(); ++it)
        os << hex(it->ret) << " ";
      os << "]";
      diverge(step, os.str());
      return;
    }
    for (std::size_t k = 0; k < depth; ++k) {
      const std::uint64_t want_pc =
          k == 0 ? m.pc() : shadow[depth - 1 - k].ret;
      ++rep.frames_compared;
      if (frames[k].pc != want_pc) {
        diverge(step, "frame " + std::to_string(k) + " pc mismatch at step " +
                          std::to_string(step) + ": walk " +
                          hex(frames[k].pc) + " (" +
                          std::string(frames[k].func_name) + ") vs shadow " +
                          hex(want_pc));
        return;
      }
      if (k > 0 && frames[k].sp != shadow[depth - 1 - k].sp) {
        diverge(step, "frame " + std::to_string(k) + " sp mismatch at step " +
                          std::to_string(step) + ": walk " +
                          hex(frames[k].sp) + " vs shadow " +
                          hex(shadow[depth - 1 - k].sp));
        return;
      }
    }
  };

  for (std::uint64_t step = 0; step < total; ++step) {
    if (opts.walk_every_step || stop_at.count(step)) compare(step);
    const emu::StopReason r = m.step();
    ++rep.steps;
    if (r == emu::StopReason::Exited) break;
    if (r != emu::StopReason::Running) {
      diverge(step, "unexpected stop mid-run (reason " +
                        std::to_string(static_cast<int>(r)) + ")");
      break;
    }
  }

  RVDYN_OBS_COUNT_N("rvdyn.check.shadow.steps", rep.steps);
  RVDYN_OBS_COUNT_N("rvdyn.check.shadow.stops", rep.stops);
  RVDYN_OBS_COUNT_N("rvdyn.check.shadow.frames", rep.frames_compared);
  RVDYN_OBS_COUNT_N("rvdyn.check.shadow.divergences", rep.divergence_count);
  return rep;
}

}  // namespace rvdyn::check
