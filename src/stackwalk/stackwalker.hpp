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
// One frame costs one memo probe and about two stack reads:
//  - WalkContext keeps a direct-mapped memo from pc to its Location
//    {function, analysis, stored point} and to whether the pc lies in a
//    code section. Naming a frame, every stepper asking about it, and
//    checking a recovered return address all answer from it, and frames
//    that alternate between a few return sites stay resolved across walks.
//  - Stack words are read through the host bytes of one cached page,
//    dropped at the start of every walk: the walked thread is stopped for
//    the whole walk, so the page cannot be freed under it.
//  - Frame is trivially copyable: its name is a view of the CodeObject's
//    Function::name().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
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
/// Both implementations here read through emu::Memory::peek and
/// emu::Memory::page_data.
class ThreadAccess {
 public:
  virtual ~ThreadAccess() = default;
  virtual std::uint64_t pc() const = 0;
  virtual std::uint64_t get_reg(isa::Reg r) const = 0;
  virtual std::uint64_t read_mem(std::uint64_t addr, unsigned size) const = 0;
  /// Host bytes of the emu::Memory::kPageSize page containing `addr`, or
  /// nullptr when it is unmapped; never maps a page. The pointer is valid
  /// while the thread stays stopped and its memory is not reset.
  virtual const std::uint8_t* page_data(std::uint64_t addr) const = 0;
};

/// ThreadAccess over a bare emulated machine (no Process required) — the
/// view the sampling profiler uses from inside Machine::run.
class MachineAccess : public ThreadAccess {
 public:
  explicit MachineAccess(const emu::Machine& m) : m_(m) {}
  std::uint64_t pc() const override;
  std::uint64_t get_reg(isa::Reg r) const override;
  std::uint64_t read_mem(std::uint64_t addr, unsigned size) const override;
  const std::uint8_t* page_data(std::uint64_t addr) const override;

 private:
  const emu::Machine& m_;
};

/// One record of an executing function.
struct Frame {
  std::uint64_t pc = 0;       ///< execution address in this frame
  std::uint64_t sp = 0;       ///< stack pointer on entry to this frame's use
  std::uint64_t fp = 0;       ///< frame-pointer register value (if tracked)
  std::uint64_t ra = 0;       ///< return-address register value (top frame)
  /// Resolved function name ("" when unknown): a view of the walked
  /// CodeObject's Function::name(), valid while that CodeObject lives
  /// (also after the walker is gone). Copy it into a std::string to keep
  /// it longer.
  std::string_view func_name;
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
/// the parsed code, a memoized per-function stack-height analysis, a memo
/// of resolved pcs, and the stack page the current walk reads.
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
  /// Drops the analyses and the pc memo.
  void invalidate_analyses();

  /// `pc` resolved to {function, analysis, point}; all null outside every
  /// function. Answers are memoized per pc in a direct-mapped table of
  /// kMemoSlots entries indexed by (pc >> 1) % kMemoSlots, so pcs a
  /// multiple of 2 * kMemoSlots bytes apart evict each other. The pointers
  /// stay valid until invalidate_analyses().
  Location locate(std::uint64_t pc);

  /// Whether `pc` is nonzero and inside a code section of the walked
  /// binary: the check every stepper applies to a recovered return
  /// address. Memoized with locate().
  bool plausible_code_addr(std::uint64_t pc);

  /// The 8-byte little-endian stack word at `addr`, 0 when unmapped; never
  /// maps a page. Reads go through the host bytes of the last page read,
  /// so call begin_walk() whenever the thread may have run since the last
  /// read. A word straddling two pages is read through
  /// ThreadAccess::read_mem.
  std::uint64_t read_word(std::uint64_t addr);

  /// Forget the cached stack page (StackWalker::walk calls this first).
  void begin_walk() {
    page_num_ = kNoPage;
    page_ = nullptr;
  }

  static constexpr std::size_t kMemoSlots = 64;

 private:
  struct Memo {
    std::uint64_t pc = 0;
    Location loc;            ///< locate(pc), when `located`
    bool located = false;
    bool code_known = false;
    bool in_code = false;    ///< plausible_code_addr(pc), when `code_known`
  };
  Memo& memo(std::uint64_t pc);

  static constexpr std::uint64_t kNoPage = ~0ULL;

  ThreadAccess& thread_;
  const parse::CodeObject& co_;
  std::unordered_map<const parse::Function*,
                     std::unique_ptr<dataflow::StackHeightAnalysis>>
      analyses_;
  std::array<Memo, kMemoSlots> memo_{};
  std::uint64_t page_num_ = kNoPage;  ///< page number of page_
  const std::uint8_t* page_ = nullptr;  ///< its host bytes; null: unmapped
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

  /// Collect the call stack from the current stop, innermost first. The
  /// frames' names view the CodeObject (see Frame::func_name).
  std::vector<Frame> walk(unsigned max_depth = 64);

  /// Drop the memoized per-function analyses and resolved pcs (call after
  /// re-parsing or patching the walked code).
  void invalidate_analyses() { ctx_.invalidate_analyses(); }

 private:
  /// Names `f` and returns its function (null when unknown).
  const parse::Function* annotate(Frame* f);

  std::unique_ptr<ThreadAccess> owned_;  ///< set by the Process convenience
  WalkContext ctx_;
  std::vector<std::unique_ptr<FrameStepper>> steppers_;
};

}  // namespace rvdyn::stackwalk
