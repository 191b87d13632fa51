// The traversal parser: builds each function's CFG by following control
// flow from its entry, splitting blocks at join points, classifying
// jal/jalr transfers, and discovering new functions from call/tail-call
// targets. Functions parse independently (the paper's "fast parallel
// algorithm"), so the parse runs in waves (see docs/parallel_parse.md):
//  * A wave is every registered function not yet parsed. parallel_for
//    spreads it over the workers, each with its own decoder and its own
//    list of found call targets.
//  * Between waves the calling thread registers those targets into the
//    CodeObject's function map; the new ones form the next wave.
//  * The classify-time "is this a function entry" oracle answers from the
//    seed set (symbols + ELF entry), frozen before traversal starts, so
//    every CFG is a pure function of the binary regardless of the worker
//    count or wave order. Jumps to functions discovered *during*
//    traversal are reclassified as tail calls in a deterministic finalize
//    pass against the complete entry set.
//  * The gap scan and the finalize pass use the same parallel_for.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel.hpp"
#include "isa/decoder.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "parse/classify.hpp"

namespace rvdyn::parse {

namespace {

using isa::Instruction;

class Parser {
 public:
  Parser(CodeObject& co, const symtab::Symtab& st, const ParseOptions& opts,
         std::map<std::uint64_t, std::unique_ptr<Function>>& funcs,
         ParseStats& stats)
      : co_(co), st_(st), opts_(opts), funcs_(funcs), stats_(stats) {
    const isa::Decoder dec(st.extensions().has(isa::Extension::I)
                               ? st.extensions()
                               : isa::ExtensionSet::rv64gc());
    workers_.assign(opts.num_threads < 1 ? 1 : opts.num_threads, Worker(dec));
  }

  void run() {
    RVDYN_OBS_SPAN("rvdyn.parse");
    {
      RVDYN_OBS_SPAN("rvdyn.parse.traversal");
      RVDYN_OBS_TIMER("rvdyn.parse.traversal_ns");
      seed_entries();
      parse_waves();
    }
    if (opts_.gap_parsing) {
      RVDYN_OBS_SPAN("rvdyn.parse.gaps");
      RVDYN_OBS_TIMER("rvdyn.parse.gaps_ns");
      parse_gaps();
    }
    {
      RVDYN_OBS_SPAN("rvdyn.parse.finalize");
      RVDYN_OBS_TIMER("rvdyn.parse.finalize_ns");
      finalize_functions();
    }
    publish_totals();
  }

 private:
  /// What one worker owns during a parallel phase. Aligned so one worker's
  /// decode tallies and found list never share a cache line with another's.
  struct alignas(64) Worker {
    explicit Worker(const isa::Decoder& d) : dec(d) {}

    isa::Decoder dec;
    /// Call/tail-call targets and gap prologues, registered between waves.
    std::vector<std::uint64_t> found;
    std::uint64_t funcs = 0, blocks = 0;
  };

  /// Batches this small run on the calling thread: spawning threads costs
  /// more than parsing a handful of functions (a call chain discovers one
  /// function per wave).
  static constexpr std::size_t kInlineBatch = 8;

  /// Run `fn(worker, i)` for every i in [0, count), adding the workers'
  /// wait at the join to the idle total.
  template <typename Fn>
  void for_each_index(std::size_t count, Fn&& fn) {
    const unsigned n =
        count <= kInlineBatch ? 1u : static_cast<unsigned>(workers_.size());
    stats_.idle_ns += parallel_for(n, count, [&](unsigned w, std::size_t i) {
      fn(workers_[w], i);
    });
  }

  /// Register the entries the workers found, parse the new functions as
  /// one wave, and repeat until a wave finds no new function.
  void parse_waves() {
    for (;;) {
      for (Worker& w : workers_) {
        for (const std::uint64_t entry : w.found) register_function(entry, "");
        w.found.clear();
      }
      if (wave_.empty()) return;
      const std::vector<Function*> wave = std::move(wave_);
      wave_.clear();
      for_each_index(wave.size(), [&](Worker& w, std::size_t i) {
        w.blocks += parse_function(w, wave[i]);
        ++w.funcs;
      });
    }
  }

  void publish_totals() const {
#if RVDYN_OBS_ENABLED
    std::uint64_t blocks = 0, insns = 0, unresolved = 0;
    for (const auto& [a, f] : funcs_) {
      blocks += f->stats().n_blocks;
      insns += f->stats().n_insns;
      unresolved += f->stats().n_unresolved;
    }
    RVDYN_OBS_COUNT_N("rvdyn.parse.functions", funcs_.size());
    RVDYN_OBS_COUNT_N("rvdyn.parse.blocks", blocks);
    RVDYN_OBS_COUNT_N("rvdyn.parse.insns", insns);
    RVDYN_OBS_COUNT_N("rvdyn.parse.unresolved", unresolved);
    // Worker time spent waiting at a parallel phase's join: load imbalance.
    // parse() runs once, so the whole tally is new.
    ParseStats none;
    obs::publish(stats_, none);
    // Per-worker share of the parse, so imbalance shows up in metrics.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].funcs) continue;
      const std::string prefix = "rvdyn.parse.worker." + std::to_string(w);
      obs::Counter(prefix + ".funcs").add(workers_[w].funcs);
      obs::Counter(prefix + ".blocks").add(workers_[w].blocks);
    }
#endif
  }

  void seed_entries() {
    // Address → symbol-name index, so anonymous call targets resolve their
    // name with one hash probe instead of an O(|symbols|) rescan per
    // registration.
    for (const symtab::Symbol& sym : st_.symbols())
      if (sym.is_function() && !sym.name.empty())
        name_by_addr_.emplace(sym.value, &sym.name);

    // The seed set is the classify-time entry oracle. It is complete
    // before any worker starts and never changes afterwards, which keeps
    // jump-vs-tail-call decisions independent of parse order.
    for (const symtab::Symbol* sym : st_.function_symbols())
      if (st_.in_code(sym->value)) seeds_.insert(sym->value);
    if (st_.entry && st_.in_code(st_.entry)) seeds_.insert(st_.entry);

    for (const symtab::Symbol* sym : st_.function_symbols()) {
      if (!st_.in_code(sym->value)) continue;
      register_function(sym->value, sym->name);
    }
    if (st_.entry && st_.in_code(st_.entry)) register_function(st_.entry, "");
  }

  bool is_seed_entry(std::uint64_t a) const { return seeds_.count(a) != 0; }

  // Create the Function object for `entry` (unless already registered) and
  // add it to the next wave. Runs on the calling thread only.
  void register_function(std::uint64_t entry, const std::string& name) {
    auto [it, inserted] = funcs_.try_emplace(entry);
    if (!inserted) {
      RVDYN_OBS_COUNT("rvdyn.parse.registry.dedup_hits");
      return;
    }
    RVDYN_OBS_COUNT("rvdyn.parse.registry.creates");
    std::string fname = name;
    if (fname.empty()) {
      const auto nit = name_by_addr_.find(entry);
      if (nit != name_by_addr_.end()) {
        fname = *nit->second;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "func_%llx",
                      static_cast<unsigned long long>(entry));
        fname = buf;
      }
    }
    it->second = std::make_unique<Function>(entry, std::move(fname));
    wave_.push_back(it->second.get());
  }

  // Fetch the raw bytes backing [addr, ...) from the code section.
  const std::uint8_t* code_at(std::uint64_t addr, std::size_t* avail) const {
    const symtab::Section* s = st_.section_containing(addr);
    if (!s || !s->is_code() || s->type == symtab::SHT_NOBITS) return nullptr;
    const std::size_t off = addr - s->addr;
    if (off >= s->data.size()) return nullptr;
    *avail = s->data.size() - off;
    return s->data.data() + off;
  }

  // Returns the number of blocks parsed.
  std::uint64_t parse_function(Worker& w, Function* f) {
    FunctionStats& stats = f->mutable_stats();
    std::deque<std::uint64_t> work{f->entry()};
    // Intra-function targets already queued: dense branch fan-in would
    // otherwise re-push the same join point once per incoming edge.
    std::unordered_set<std::uint64_t> seen{f->entry()};
    while (!work.empty()) {
      const std::uint64_t start = work.front();
      work.pop_front();
      if (Block* existing = f->block_containing(start)) {
        if (existing->start() == start) continue;
        split_block(w, f, existing, start);
        continue;
      }
      Block* b = f->add_block(start);
      parse_block(w, f, b, &work, &seen, &stats);
    }

    stats.n_blocks = static_cast<unsigned>(f->blocks().size());
    stats.n_insns = 0;
    for (const auto& [a, blk] : f->blocks())
      stats.n_insns += static_cast<unsigned>(blk->insns().size());
    return stats.n_blocks;
  }

  // Split `b` at `at` (which must be an instruction boundary inside b);
  // the suffix becomes a new block inheriting b's out-edges.
  void split_block(Worker& w, Function* f, Block* b, std::uint64_t at) {
    auto& insns = b->mutable_insns();
    std::size_t idx = 0;
    while (idx < insns.size() && insns[idx].addr != at) ++idx;
    if (idx == insns.size()) {
      // `at` is inside an instruction (overlapping code). Parse it as an
      // independent overlapping block rather than splitting.
      Block* nb = f->add_block(at);
      std::deque<std::uint64_t> local;
      std::unordered_set<std::uint64_t> lseen;
      parse_block(w, f, nb, &local, &lseen, &f->mutable_stats());
      for (std::uint64_t t : local)
        if (!f->block_containing(t)) {
          Block* tb = f->add_block(t);
          std::deque<std::uint64_t> l2;
          std::unordered_set<std::uint64_t> l2seen;
          parse_block(w, f, tb, &l2, &l2seen, &f->mutable_stats());
        }
      return;
    }
    Block* nb = f->add_block(at);
    nb->mutable_insns().assign(insns.begin() + static_cast<long>(idx),
                               insns.end());
    insns.erase(insns.begin() + static_cast<long>(idx), insns.end());
    for (const Edge& e : b->succs()) nb->add_succ(e);
    b->clear_succs();
    b->add_succ({EdgeType::Fallthrough, at});
  }

  void parse_block(Worker& w, Function* f, Block* b,
                   std::deque<std::uint64_t>* work,
                   std::unordered_set<std::uint64_t>* seen,
                   FunctionStats* stats) {
    const std::uint64_t start = b->start();
    std::size_t avail = 0;
    const std::uint8_t* bytes = code_at(start, &avail);
    bool closed = false;  // the block got its successor edges
    std::size_t consumed = 0;
    if (bytes) {
      // Batch-decode the straight-line run; the callback closes the block
      // at join points and control transfers.
      consumed = w.dec.decode_range(
          bytes, avail,
          [&](std::size_t off, const Instruction& insn, unsigned len) {
            const std::uint64_t cur = start + off;
            // Stop at the boundary of an already-known block (join point).
            if (cur != start && f->block_at(cur)) {
              b->add_succ({EdgeType::Fallthrough, cur});
              closed = true;
              return false;
            }
            b->mutable_insns().push_back({cur, insn});
            const std::uint64_t next = cur + len;

            if (insn.is_cond_branch()) {
              const std::uint64_t taken =
                  cur + static_cast<std::uint64_t>(insn.branch_offset());
              b->add_succ({EdgeType::Taken, taken});
              b->add_succ({EdgeType::NotTaken, next});
              push_target(f, work, seen, taken);
              push_target(f, work, seen, next);
              closed = true;
              return false;
            }
            if (insn.is_jal() || insn.is_jalr()) {
              handle_unconditional(w, f, b, work, seen, stats, next);
              closed = true;
              return false;
            }
            if (insn.has_flag(isa::F_ECALL)) {
              ClassifyContext ctx;
              ctx.co = &co_;
              ctx.func = f;
              ctx.block = b;
              ctx.insn_index = static_cast<int>(b->insns().size()) - 1;
              if (is_noreturn_ecall(ctx)) {
                b->add_succ({EdgeType::Return, 0});  // process exit
                closed = true;
                return false;
              }
            }
            return true;
          });
    }
    if (!closed) {
      // Decoding stopped between instructions: either we ran into a known
      // block whose own bytes don't decode, or the bytes are undecodable.
      const std::uint64_t cur = start + consumed;
      if (cur != start && f->block_at(cur)) {
        b->add_succ({EdgeType::Fallthrough, cur});
      } else {
        b->add_succ({EdgeType::Unresolved, 0});
        ++stats->n_unresolved;
      }
    }
  }

  void handle_unconditional(Worker& w, Function* f, Block* b,
                            std::deque<std::uint64_t>* work,
                            std::unordered_set<std::uint64_t>* seen,
                            FunctionStats* stats, std::uint64_t next) {
    ClassifyContext ctx;
    ctx.co = &co_;
    ctx.func = f;
    ctx.block = b;
    ctx.insn_index = static_cast<int>(b->insns().size()) - 1;
    ctx.max_table_entries = opts_.max_jump_table_entries;
    // The oracle is the pre-traversal seed set: immutable, so the answer —
    // and therefore the CFG — cannot depend on which functions have been
    // discovered so far. Jumps to entries discovered during traversal are
    // promoted to tail calls in finalize_functions().
    ctx.is_entry = [this](std::uint64_t a) { return is_seed_entry(a); };

    const Classification c = classify_branch(ctx);
    switch (c.kind) {
      case BranchKind::Jump:
        b->add_succ({EdgeType::Jump, *c.target});
        push_target(f, work, seen, *c.target);
        break;
      case BranchKind::Call:
        ++stats->n_calls;
        if (c.target) {
          b->add_succ({EdgeType::Call, *c.target});
          f->add_callee(*c.target);
          w.found.push_back(*c.target);
        }
        b->add_succ({EdgeType::CallFallthrough, next});
        push_target(f, work, seen, next);
        break;
      case BranchKind::TailCall:
        ++stats->n_tail_calls;
        b->add_succ({EdgeType::TailCall, *c.target});
        f->add_callee(*c.target);
        w.found.push_back(*c.target);
        break;
      case BranchKind::Return:
        ++stats->n_returns;
        b->add_succ({EdgeType::Return, 0});
        break;
      case BranchKind::JumpTable:
        ++stats->n_jump_tables;
        for (std::uint64_t t : c.table_targets) {
          b->add_succ({EdgeType::IndirectJump, t});
          push_target(f, work, seen, t);
        }
        break;
      case BranchKind::Unresolved:
        ++stats->n_unresolved;
        b->add_succ({EdgeType::Unresolved, 0});
        break;
    }
  }

  void push_target(Function* f, std::deque<std::uint64_t>* work,
                   std::unordered_set<std::uint64_t>* seen,
                   std::uint64_t target) {
    if (!st_.in_code(target)) return;
    if (!seen->insert(target).second) return;  // already queued or parsed
    if (Block* existing = f->block_containing(target)) {
      if (existing->start() == target) return;
    }
    work->push_back(target);
  }

  // Gap parsing (paper §2.1): scan byte ranges of code sections not claimed
  // by any parsed function for plausible function prologues and parse them
  // speculatively. Ranges are computed once from the traversal result, then
  // scanned in parallel; discovered entries are parsed in waves like the
  // traversal's.
  void parse_gaps() {
    // Collect claimed ranges.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> claimed;
    for (const auto& [entry, f] : funcs_)
      for (const auto& [a, b] : f->blocks())
        claimed.emplace_back(b->start(), b->end());
    std::sort(claimed.begin(), claimed.end());

    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const auto& sec : st_.sections()) {
      if (!sec.is_code() || sec.type == symtab::SHT_NOBITS) continue;
      std::uint64_t pos = sec.addr;
      const std::uint64_t end = sec.addr + sec.data.size();
      std::size_t ci = 0;
      while (pos < end) {
        while (ci < claimed.size() && claimed[ci].second <= pos) ++ci;
        if (ci < claimed.size() && claimed[ci].first <= pos) {
          pos = claimed[ci].second;
          continue;
        }
        const std::uint64_t gap_end =
            ci < claimed.size() ? std::min(end, claimed[ci].first) : end;
        RVDYN_OBS_COUNT("rvdyn.parse.gap_ranges");
        ranges.emplace_back(pos, gap_end);
        pos = gap_end;
      }
    }
    if (ranges.empty()) return;

    // Each range is independent (one speculative entry per gap).
    for_each_index(ranges.size(), [&](Worker& w, std::size_t i) {
      scan_gap(w, ranges[i].first, ranges[i].second);
    });
    parse_waves();
  }

  // Heuristic prologue match at the start of a gap range: a stack
  // adjustment (addi sp, sp, -N / c.addi16sp) opens most functions.
  void scan_gap(Worker& w, std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t a = (from + 1) & ~1ULL; a + 2 <= to;) {
      std::size_t avail = 0;
      const std::uint8_t* bytes = code_at(a, &avail);
      if (!bytes) return;
      std::uint64_t found = 0;
      const std::size_t consumed = w.dec.decode_range(
          bytes, avail,
          [&](std::size_t off, const Instruction& insn, unsigned) {
            if (a + off + 2 > to) return false;  // past the gap
            if (insn.mnemonic() == isa::Mnemonic::addi &&
                insn.operand(0).reg == isa::sp &&
                insn.operand(1).reg == isa::sp && insn.operand(2).imm < 0) {
              found = a + off;
              return false;
            }
            return true;
          });
      if (found) {
        RVDYN_OBS_COUNT("rvdyn.parse.gap_functions");
        w.found.push_back(found);
        return;  // one speculative entry per gap; its parse claims the rest
      }
      // decode_range stopped at an undecodable parcel: resync past it.
      a += consumed + 2;
    }
  }

  // Deterministic post-pass over the complete entry set: promote Jump
  // edges whose target is a (possibly traversal- or gap-discovered)
  // function entry to TailCall edges, drop the speculatively-parsed blocks
  // that the jump dragged into this function, and rebuild pred lists.
  // Independent per function, so it runs as one parallel_for.
  void finalize_functions() {
    std::vector<Function*> all;
    all.reserve(funcs_.size());
    for (auto& [a, f] : funcs_) all.push_back(f.get());

    std::atomic<std::uint64_t> flipped{0}, pruned{0};
    for_each_index(all.size(), [&](Worker&, std::size_t i) {
      const auto [nf, np] = fixup_tail_calls(all[i]);
      all[i]->rebuild_preds();
      if (nf == 0) return;
      flipped.fetch_add(nf, std::memory_order_relaxed);
      pruned.fetch_add(np, std::memory_order_relaxed);
    });
    RVDYN_OBS_COUNT_N("rvdyn.parse.tailcall_fixups", flipped.load());
    RVDYN_OBS_COUNT_N("rvdyn.parse.pruned_blocks", pruned.load());
  }

  std::pair<std::uint64_t, std::uint64_t> fixup_tail_calls(Function* f) {
    std::uint64_t flipped = 0;
    for (auto& [a, b] : f->mutable_blocks()) {
      for (Edge& e : b->mutable_succs()) {
        if (e.type != EdgeType::Jump) continue;
        if (e.target == f->entry()) continue;
        if (funcs_.count(e.target) == 0) continue;
        e.type = EdgeType::TailCall;
        f->add_callee(e.target);
        ++f->mutable_stats().n_tail_calls;
        ++flipped;
      }
    }
    if (!flipped) return {0, 0};
    const std::uint64_t pruned = f->prune_unreachable_blocks();
    FunctionStats& stats = f->mutable_stats();
    stats.n_blocks = static_cast<unsigned>(f->blocks().size());
    stats.n_insns = 0;
    for (const auto& [a, blk] : f->blocks())
      stats.n_insns += static_cast<unsigned>(blk->insns().size());
    return {flipped, pruned};
  }

  CodeObject& co_;
  const symtab::Symtab& st_;
  ParseOptions opts_;
  std::map<std::uint64_t, std::unique_ptr<Function>>& funcs_;
  std::vector<Worker> workers_;
  std::vector<Function*> wave_;  ///< registered, not yet parsed
  ParseStats& stats_;
  std::unordered_set<std::uint64_t> seeds_;  ///< frozen before traversal
  std::unordered_map<std::uint64_t, const std::string*> name_by_addr_;
};

}  // namespace

const char* edge_type_name(EdgeType t) {
  switch (t) {
    case EdgeType::Fallthrough: return "fallthrough";
    case EdgeType::Taken: return "taken";
    case EdgeType::NotTaken: return "not-taken";
    case EdgeType::Jump: return "jump";
    case EdgeType::IndirectJump: return "indirect";
    case EdgeType::Call: return "call";
    case EdgeType::CallFallthrough: return "call-fallthrough";
    case EdgeType::TailCall: return "tail-call";
    case EdgeType::Return: return "return";
    case EdgeType::Unresolved: return "unresolved";
  }
  return "?";
}

void Function::rebuild_preds() {
  for (auto& [a, b] : blocks_) b->clear_preds();
  for (auto& [a, b] : blocks_) {
    for (const Edge& e : b->succs()) {
      if (e.type == EdgeType::Call || e.type == EdgeType::TailCall ||
          e.type == EdgeType::Return || e.type == EdgeType::Unresolved)
        continue;
      if (Block* t = block_at(e.target)) t->add_pred(b.get());
    }
  }
}

std::size_t Function::prune_unreachable_blocks() {
  Block* eb = block_at(entry_);
  if (!eb) return 0;
  std::set<std::uint64_t> reach{entry_};
  std::vector<Block*> stack{eb};
  while (!stack.empty()) {
    Block* b = stack.back();
    stack.pop_back();
    for (const Edge& e : b->succs()) {
      if (e.type == EdgeType::Call || e.type == EdgeType::TailCall ||
          e.type == EdgeType::Return || e.type == EdgeType::Unresolved)
        continue;
      if (!reach.insert(e.target).second) continue;
      if (Block* t = block_at(e.target)) stack.push_back(t);
    }
  }
  std::size_t pruned = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (reach.count(it->first)) {
      ++it;
    } else {
      it = blocks_.erase(it);
      ++pruned;
    }
  }
  return pruned;
}

FunctionStats CodeObject::total_stats() const {
  FunctionStats total;
  for (const auto& [a, f] : funcs_) {
    const FunctionStats& s = f->stats();
    total.n_blocks += s.n_blocks;
    total.n_insns += s.n_insns;
    total.n_calls += s.n_calls;
    total.n_tail_calls += s.n_tail_calls;
    total.n_returns += s.n_returns;
    total.n_jump_tables += s.n_jump_tables;
    total.n_unresolved += s.n_unresolved;
  }
  return total;
}

void CodeObject::rebuild_addr_index() {
  // Insert every block interval in ascending function-entry order, clipping
  // against ranges already claimed, so an address shared by two functions
  // resolves to the lower-entry one — exactly what the old per-lookup scan
  // over functions() returned. Keyed map: start -> (end, func).
  std::map<std::uint64_t, std::pair<std::uint64_t, Function*>> covered;
  for (const auto& [entry, f] : funcs_) {
    for (const auto& [bstart, blk] : f->blocks()) {
      std::uint64_t s = blk->start();
      const std::uint64_t e = blk->end();
      while (s < e) {
        auto it = covered.upper_bound(s);
        if (it != covered.begin()) {
          auto prev = std::prev(it);
          if (prev->second.first > s) {
            s = prev->second.first;  // already claimed; skip past it
            continue;
          }
        }
        const std::uint64_t lim =
            (it == covered.end()) ? e : std::min(e, it->first);
        if (s < lim) covered.emplace(s, std::make_pair(lim, f.get()));
        s = lim;
      }
    }
  }
  addr_index_.clear();
  addr_index_.reserve(covered.size());
  for (const auto& [s, rest] : covered) {
    // Merge segments that touch and belong to the same function.
    if (!addr_index_.empty() && addr_index_.back().end == s &&
        addr_index_.back().func == rest.second) {
      addr_index_.back().end = rest.first;
    } else {
      addr_index_.push_back(AddrSegment{s, rest.first, rest.second});
    }
  }
  addr_index_built_ = true;
}

Function* CodeObject::function_containing(std::uint64_t a) const {
  if (addr_index_built_) {
    auto it = std::upper_bound(
        addr_index_.begin(), addr_index_.end(), a,
        [](std::uint64_t v, const AddrSegment& s) { return v < s.start; });
    if (it == addr_index_.begin()) return nullptr;
    --it;
    return a < it->end ? it->func : nullptr;
  }
  for (const auto& [entry, f] : funcs_)
    if (f->block_containing(a)) return f.get();
  return nullptr;
}

std::string CodeObject::symbolize(std::uint64_t a) const {
  char buf[32];
  if (const Function* f = function_containing(a)) {
    if (a == f->entry()) return f->name();
    std::snprintf(buf, sizeof(buf), "+0x%llx",
                  static_cast<unsigned long long>(a - f->entry()));
    return f->name() + buf;
  }
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(a));
  return buf;
}

void CodeObject::parse(const ParseOptions& opts) {
  Parser parser(*this, symtab_, opts, funcs_, parse_stats_);
  parser.run();
  rebuild_addr_index();
}

}  // namespace rvdyn::parse
