// StackwalkerAPI: call-stack collection with a plugin "frame stepper"
// architecture (paper §2.2, §3.2.7).
//
// RISC-V frames come in several shapes: the ABI designates x8 (s0/fp) as
// the frame pointer, but most compilers reuse it as a general register and
// address frames purely off sp. The walker therefore tries a list of
// steppers per frame, in order:
//  - FramePointerStepper: the textbook fp-chain walk;
//  - SpHeightStepper: DataflowAPI's stack-height analysis recovers the
//    frame size and return-address slot for fp-less code (the new "frame
//    stepper" the paper says RISC-V requires);
//  - LeafStepper: the first frame's return address may still live in ra.
//
// Steppers read the stoppee through the ThreadAccess interface rather than
// a concrete proccontrol::Process, so the same walk runs against a
// debugger-controlled process, a bare emu::Machine mid-run (the sampling
// profiler's case — obs::Sampler walks at every sample point), or any
// future remote/core-file backend. Walks share a per-function
// StackHeightAnalysis cache through WalkContext: a sampling profiler
// taking thousands of walks pays for each function's dataflow once.
//
// Each frame's pc is located once: WalkContext::locate resolves it to its
// function, that function's analysis and the analysis's stored point, and
// keeps the answer, so naming the frame and every stepper asking about it
// share one lookup. A step reads the point's facts directly; no frame
// re-walks a block.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "parse/cfg.hpp"

namespace rvdyn::dataflow {
class StackHeightAnalysis;
struct HeightPoint;
}
namespace rvdyn::emu {
class Machine;
}
namespace rvdyn::proccontrol {
class Process;
}

namespace rvdyn::stackwalk {

/// Minimal view of a stopped thread: program counter, register file, and
/// (non-faulting) memory reads. Unmapped reads must return 0 without
/// side effects — a walker probing a garbage frame pointer must never
/// perturb the walked process (e.g. by faulting pages into existence).
/// Both implementations here read through emu::Memory::peek.
class ThreadAccess {
 public:
  virtual ~ThreadAccess() = default;
  virtual std::uint64_t pc() const = 0;
  virtual std::uint64_t get_reg(isa::Reg r) const = 0;
  virtual std::uint64_t read_mem(std::uint64_t addr, unsigned size) const = 0;
};

/// ThreadAccess over a bare emulated machine (no Process required) — the
/// view the sampling profiler uses from inside Machine::run.
class MachineAccess : public ThreadAccess {
 public:
  explicit MachineAccess(const emu::Machine& m) : m_(m) {}
  std::uint64_t pc() const override;
  std::uint64_t get_reg(isa::Reg r) const override;
  std::uint64_t read_mem(std::uint64_t addr, unsigned size) const override;

 private:
  const emu::Machine& m_;
};

/// One record of an executing function.
struct Frame {
  std::uint64_t pc = 0;       ///< execution address in this frame
  std::uint64_t sp = 0;       ///< stack pointer on entry to this frame's use
  std::uint64_t fp = 0;       ///< frame-pointer register value (if tracked)
  std::uint64_t ra = 0;       ///< return-address register value (top frame)
  std::string func_name;      ///< resolved function name ("" when unknown)
  std::uint64_t func_entry = 0;
  const char* stepper = "";   ///< which plugin produced the *next* frame
};

/// A pc resolved against the parsed code.
struct Location {
  const parse::Function* func = nullptr;  ///< function containing the pc
  const dataflow::StackHeightAnalysis* analysis = nullptr;  ///< func's
  /// The analysis's point for the instruction containing the pc; nullptr
  /// when no block of func contains it.
  const dataflow::HeightPoint* point = nullptr;
};

/// Shared state for one walk (or a long series of walks): the thread view,
/// the parsed code, and a memoized per-function stack-height analysis.
class WalkContext {
 public:
  WalkContext(ThreadAccess& thread, const parse::CodeObject& co);
  ~WalkContext();

  ThreadAccess& thread() { return thread_; }
  const parse::CodeObject& co() const { return co_; }

  /// Memoized StackHeightAnalysis for `f`. Entries live until
  /// invalidate_analyses(); call that after re-parsing or re-instrumenting
  /// the code the walker reads.
  const dataflow::StackHeightAnalysis& analysis(const parse::Function& f);
  void invalidate_analyses();

  /// `pc` resolved to {function, analysis, point}; all null outside every
  /// function. The last answer is kept until a different pc is asked for
  /// or invalidate_analyses() drops it, so naming a frame and stepping
  /// out of it resolve the frame's pc once. The pointers stay valid until
  /// invalidate_analyses().
  Location locate(std::uint64_t pc);

 private:
  ThreadAccess& thread_;
  const parse::CodeObject& co_;
  std::unordered_map<const parse::Function*,
                     std::unique_ptr<dataflow::StackHeightAnalysis>>
      analyses_;
  bool located_ = false;  ///< last_ holds the answer for last_pc_
  std::uint64_t last_pc_ = 0;
  Location last_;
};

/// Plugin interface: given the current frame, produce the caller's frame.
class FrameStepper {
 public:
  virtual ~FrameStepper() = default;
  virtual const char* name() const = 0;
  /// Returns the caller frame, or nullopt when this stepper cannot walk
  /// out of `frame` (the walker then tries the next plugin).
  virtual std::optional<Frame> step(WalkContext& ctx, const Frame& frame) = 0;
};

/// Walks fp-chained frames (gcc -fno-omit-frame-pointer layout: saved ra
/// at fp-8, saved caller fp at fp-16).
class FramePointerStepper : public FrameStepper {
 public:
  const char* name() const override { return "frame-pointer"; }
  std::optional<Frame> step(WalkContext& ctx, const Frame& frame) override;
};

/// Walks fp-less frames using stack-height analysis (paper §3.2.7).
class SpHeightStepper : public FrameStepper {
 public:
  const char* name() const override { return "sp-height"; }
  std::optional<Frame> step(WalkContext& ctx, const Frame& frame) override;
};

/// Top-frame-only: the return address is still in ra (leaf functions or
/// prologue not yet executed).
class LeafStepper : public FrameStepper {
 public:
  const char* name() const override { return "leaf-ra"; }
  std::optional<Frame> step(WalkContext& ctx, const Frame& frame) override;
};

class StackWalker {
 public:
  /// The walker needs the thread view (registers/memory) and the parsed
  /// code (function boundaries, stack-height analysis).
  StackWalker(ThreadAccess& thread, const parse::CodeObject& co);
  /// Debugger-surface convenience: walk a proccontrol::Process.
  StackWalker(proccontrol::Process& proc, const parse::CodeObject& co);
  ~StackWalker();

  /// Register an additional stepper (tried before the defaults).
  void add_stepper(std::unique_ptr<FrameStepper> stepper);

  /// Collect the call stack from the current stop, innermost first.
  std::vector<Frame> walk(unsigned max_depth = 64);

  /// Drop the memoized per-function analyses (call after re-parsing or
  /// patching the walked code).
  void invalidate_analyses() { ctx_.invalidate_analyses(); }

 private:
  void annotate(Frame* f);

  std::unique_ptr<ThreadAccess> owned_;  ///< set by the Process convenience
  WalkContext ctx_;
  std::vector<std::unique_ptr<FrameStepper>> steppers_;
};

}  // namespace rvdyn::stackwalk
