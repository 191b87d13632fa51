// ParseAPI: control-flow graph construction over RISC-V binaries
// (paper §2.1, §3.2.3).
//
// CodeObject parses machine code by traversal from known entry points
// (program entry + function symbols), following control-flow transfers and
// discovering new entries (call targets, tail-call targets, gap-parsed
// prologues). jal/jalr multi-use classification and jump-table analysis
// live in classify.hpp; loop structure in loops.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "isa/instruction.hpp"
#include "obs/stats.hpp"
#include "symtab/symtab.hpp"

namespace rvdyn::parse {

/// One decoded instruction pinned at its address.
struct ParsedInsn {
  std::uint64_t addr = 0;
  isa::Instruction insn;

  std::uint64_t next_addr() const { return addr + insn.length(); }
};

/// CFG edge types. Interprocedural edges (Call/TailCall) carry the callee
/// entry; Return edges have no static target.
enum class EdgeType {
  Fallthrough,      ///< linear flow into the next block
  Taken,            ///< conditional branch taken
  NotTaken,         ///< conditional branch fall-through
  Jump,             ///< unconditional intraprocedural jump
  IndirectJump,     ///< resolved jump-table target
  Call,             ///< function call (interprocedural)
  CallFallthrough,  ///< the post-call resume point
  TailCall,         ///< jump that is semantically a call (interprocedural)
  Return,           ///< function return (no static target)
  Unresolved,       ///< indirect flow whose target could not be determined
};

const char* edge_type_name(EdgeType t);

struct Edge {
  EdgeType type;
  std::uint64_t target = 0;  ///< 0 for Return/Unresolved
};

class Function;

/// A basic block: a maximal single-entry straight-line run of instructions.
class Block {
 public:
  Block(std::uint64_t start) : start_(start) {}

  std::uint64_t start() const { return start_; }
  /// One past the last byte of the last instruction.
  std::uint64_t end() const {
    return insns_.empty() ? start_ : insns_.back().next_addr();
  }
  bool contains(std::uint64_t a) const { return a >= start_ && a < end(); }

  const std::vector<ParsedInsn>& insns() const { return insns_; }
  const ParsedInsn& last() const { return insns_.back(); }
  const std::vector<Edge>& succs() const { return succs_; }
  const std::vector<Block*>& preds() const { return preds_; }

  // Mutators used by the parser.
  std::vector<ParsedInsn>& mutable_insns() { return insns_; }
  std::vector<Edge>& mutable_succs() { return succs_; }
  void add_succ(Edge e) { succs_.push_back(e); }
  void clear_succs() { succs_.clear(); }
  void add_pred(Block* b) { preds_.push_back(b); }
  void clear_preds() { preds_.clear(); }

 private:
  std::uint64_t start_;
  std::vector<ParsedInsn> insns_;
  std::vector<Edge> succs_;
  std::vector<Block*> preds_;
};

/// How a function's parse concluded.
struct FunctionStats {
  unsigned n_blocks = 0;
  unsigned n_insns = 0;
  unsigned n_calls = 0;
  unsigned n_tail_calls = 0;
  unsigned n_returns = 0;
  unsigned n_jump_tables = 0;
  unsigned n_unresolved = 0;
};

class Function {
 public:
  Function(std::uint64_t entry, std::string name)
      : entry_(entry), name_(std::move(name)) {}

  std::uint64_t entry() const { return entry_; }
  const std::string& name() const { return name_; }

  const std::map<std::uint64_t, std::unique_ptr<Block>>& blocks() const {
    return blocks_;
  }
  Block* entry_block() const { return block_at(entry_); }

  /// Block starting exactly at `a`, or nullptr.
  Block* block_at(std::uint64_t a) const {
    auto it = blocks_.find(a);
    return it == blocks_.end() ? nullptr : it->second.get();
  }
  /// Block whose range contains `a`, or nullptr.
  Block* block_containing(std::uint64_t a) const {
    auto it = blocks_.upper_bound(a);
    if (it == blocks_.begin()) return nullptr;
    --it;
    return it->second->contains(a) ? it->second.get() : nullptr;
  }

  /// Direct callees (call and tail-call targets).
  const std::set<std::uint64_t>& callees() const { return callees_; }
  const FunctionStats& stats() const { return stats_; }

  /// Total code extent: [entry, max block end).
  std::uint64_t extent_end() const {
    std::uint64_t e = entry_;
    for (const auto& [a, b] : blocks_) e = std::max(e, b->end());
    return e;
  }

  // Parser-side mutators.
  Block* add_block(std::uint64_t start) {
    auto [it, inserted] = blocks_.emplace(start, nullptr);
    if (inserted) it->second = std::make_unique<Block>(start);
    return it->second.get();
  }
  std::map<std::uint64_t, std::unique_ptr<Block>>& mutable_blocks() {
    return blocks_;
  }
  void add_callee(std::uint64_t a) { callees_.insert(a); }
  FunctionStats& mutable_stats() { return stats_; }
  /// Recompute pred lists from succ edges (intra-procedural edges only).
  void rebuild_preds();
  /// Drop blocks not reachable from the entry block along intra-procedural
  /// edges. Used after retroactive tail-call reclassification: blocks that
  /// were speculatively parsed past a jump later recognized as a tail call
  /// belong to the callee, not to this function. Returns the number of
  /// blocks removed.
  std::size_t prune_unreachable_blocks();

 private:
  std::uint64_t entry_;
  std::string name_;
  std::map<std::uint64_t, std::unique_ptr<Block>> blocks_;
  std::set<std::uint64_t> callees_;
  FunctionStats stats_;
};

/// Parser configuration.
struct ParseOptions {
  unsigned num_threads = 1;   ///< >1 enables parallel function parsing
  bool gap_parsing = true;    ///< scan unclaimed ranges for prologues
  unsigned max_jump_table_entries = 512;
};

/// The parser's own tallies. The CFG totals it also publishes (functions,
/// blocks, insns) are computed from the functions instead.
#define RVDYN_PARSE_STATS(X) \
  X(idle_ns, "rvdyn.parse.sched.idle_ns") /* worker waits at joins */
struct ParseStats {
  RVDYN_STATS(ParseStats, RVDYN_PARSE_STATS)
};

/// A parsed binary: functions discovered from symbols, the entry point,
/// call traversal, and (optionally) gap parsing.
class CodeObject {
 public:
  explicit CodeObject(const symtab::Symtab& symtab) : symtab_(symtab) {}

  /// Run the parse. Idempotent; call once.
  void parse(const ParseOptions& opts = {});

  const symtab::Symtab& symtab() const { return symtab_; }

  const std::map<std::uint64_t, std::unique_ptr<Function>>& functions() const {
    return funcs_;
  }
  Function* function_at(std::uint64_t entry) const {
    auto it = funcs_.find(entry);
    return it == funcs_.end() ? nullptr : it->second.get();
  }
  Function* function_named(const std::string& name) const {
    for (const auto& [a, f] : funcs_)
      if (f->name() == name) return f.get();
    return nullptr;
  }

  /// True when `a` is a known function entry (used by jalr classification).
  bool is_function_entry(std::uint64_t a) const { return funcs_.count(a) != 0; }

  /// One entry of the sorted address-interval → function index: the
  /// half-open byte range [start, end) belongs to `func`.
  struct AddrSegment {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    Function* func = nullptr;
  };

  /// Function whose parsed blocks contain `a` — O(log segments) through the
  /// interval index instead of a scan over every function. When functions
  /// share bytes (gap-parse overlaps, shared epilogues) the one with the
  /// lowest entry wins, matching the functions() iteration order that the
  /// old linear scans exposed. Falls back to the linear scan if the index
  /// has not been built (parse() builds it).
  Function* function_containing(std::uint64_t a) const;

  /// Rebuild the interval index from the current function set. parse()
  /// calls this automatically; call again after mutating blocks directly.
  void rebuild_addr_index();

  /// Human-readable location of `a`: "func" at the entry, "func+0xN"
  /// inside, bare "0xA" when no parsed function contains the address.
  /// O(log segments) through the interval index — cheap enough for the
  /// sampling profiler to call per frame per sample.
  std::string symbolize(std::uint64_t a) const;

  /// The sorted, non-overlapping segment list (exposed for tests/tools).
  const std::vector<AddrSegment>& addr_index() const { return addr_index_; }

  /// Aggregate statistics over all functions.
  FunctionStats total_stats() const;

  /// The parser's tallies from parse().
  const ParseStats& parse_stats() const { return parse_stats_; }

 private:
  const symtab::Symtab& symtab_;
  std::map<std::uint64_t, std::unique_ptr<Function>> funcs_;
  ParseStats parse_stats_;
  std::vector<AddrSegment> addr_index_;
  bool addr_index_built_ = false;
};

}  // namespace rvdyn::parse
