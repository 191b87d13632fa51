// Parallel-parse determinism: the wave-parallel traversal must produce
// byte-identical CFGs at every thread count — same function sets, block
// boundaries, instruction streams, edge lists, stats and address index.
// Also unit-tests parallel_for, the loop every parallel phase runs on.
//
// The tsan_obs_suite ctest runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "common/parallel.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rvdyn;
using parse::CodeObject;
using parse::EdgeType;

// Canonical textual form of a parsed CodeObject: every function (sorted by
// entry), its name, callees, stats, and every block's boundaries,
// instruction encodings, successor edges (in stored order), and pred list,
// then the address index. Two parses are considered identical iff their
// dumps match byte-for-byte.
std::string canonical_dump(const CodeObject& co) {
  std::ostringstream os;
  os << std::hex;
  for (const auto& [entry, f] : co.functions()) {
    const auto& st = f->stats();
    os << "fn " << entry << ' ' << f->name() << " b=" << st.n_blocks
       << " i=" << st.n_insns << " c=" << st.n_calls
       << " tc=" << st.n_tail_calls << " r=" << st.n_returns
       << " jt=" << st.n_jump_tables << " u=" << st.n_unresolved << '\n';
    os << "  callees:";
    for (std::uint64_t c : f->callees()) os << ' ' << c;
    os << '\n';
    for (const auto& [start, b] : f->blocks()) {
      os << "  blk " << start << '-' << b->end() << '\n';
      for (const auto& pi : b->insns())
        os << "    " << pi.addr << ':' << pi.insn.length() << ':'
           << pi.insn.raw() << ':' << static_cast<int>(pi.insn.mnemonic())
           << '\n';
      os << "    succs:";
      for (const auto& e : b->succs())
        os << ' ' << static_cast<int>(e.type) << '@' << e.target;
      os << '\n';
      os << "    preds:";
      for (const auto* p : b->preds()) os << ' ' << p->start();
      os << '\n';
    }
  }
  for (const auto& seg : co.addr_index())
    os << "seg " << seg.start << '-' << seg.end << ' ' << seg.func->entry()
       << '\n';
  return os.str();
}

std::string parse_dump(const symtab::Symtab& st, unsigned threads,
                       std::size_t* n_funcs = nullptr) {
  CodeObject co(st);
  parse::ParseOptions opts;
  opts.num_threads = threads;
  co.parse(opts);
  if (n_funcs) *n_funcs = co.functions().size();
  return canonical_dump(co);
}

// The headline determinism check: each input parsed at 2/4/8 threads,
// several reps each to shake out scheduling races, must match the
// single-thread parse exactly. The call chain and the call tree have no
// function symbols below _start, so every function is found through a
// call: the chain parses as one wave per function, the tree as waves that
// double in width.
TEST(ParseParallel, DeterministicAcrossThreadCounts) {
  struct Input {
    const char* name;
    std::string src;
    std::size_t n_funcs;  ///< functions the parse must find, incl. _start
  };
  const Input inputs[] = {
      {"many_function", workloads::many_function_program(2000), 2001},
      {"call_chain", workloads::call_tree_program(300, 1), 301},
      {"call_tree", workloads::call_tree_program(1023, 2), 1024},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    const symtab::Symtab st = assembler::assemble(in.src);
    std::size_t n_funcs = 0;
    const std::string ref = parse_dump(st, 1, &n_funcs);
    EXPECT_EQ(n_funcs, in.n_funcs);
    for (unsigned threads : {2u, 4u, 8u}) {
      for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " rep=" << rep);
        EXPECT_EQ(parse_dump(st, threads), ref);
      }
    }
  }
}

// A jump whose target only *becomes* a known function entry during the
// parse (a plain label discovered via someone else's call) must be
// reclassified as a tail call by the finalize fixup — identically at every
// thread count, no matter which worker reached the jump first.
TEST(ParseParallel, TailCallToDiscoveredEntryIsDeterministic) {
  const std::string src = R"(
    .globl _start
_start:
    call caller_a
    call caller_b
    li a7, 93
    ecall

    .globl caller_a
caller_a:
    call shared
    ret

    .globl caller_b
caller_b:
    li a0, 2
    j shared

shared:
    li a0, 7
    ret
)";
  symtab::Symtab st = assembler::assemble(src);
  const std::string ref = parse_dump(st, 1);

  CodeObject co(st);
  co.parse({});
  parse::Function* shared = nullptr;
  for (const auto& [a, f] : co.functions())
    if (f->name().rfind("func_", 0) == 0) shared = f.get();
  ASSERT_NE(shared, nullptr) << "shared body not promoted to a function";

  parse::Function* b = co.function_named("caller_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->stats().n_tail_calls, 1u);
  EXPECT_TRUE(b->callees().count(shared->entry()));
  // caller_b's speculatively-parsed copy of shared's body must be pruned.
  EXPECT_EQ(b->block_at(shared->entry()), nullptr);
  bool found_tc = false;
  for (const auto& [a, blk] : b->blocks())
    for (const auto& e : blk->succs())
      if (e.type == EdgeType::TailCall && e.target == shared->entry())
        found_tc = true;
  EXPECT_TRUE(found_tc);

  for (unsigned threads : {2u, 4u, 8u})
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " rep=" << rep);
      EXPECT_EQ(parse_dump(st, threads), ref);
    }
}

// Gap parsing (speculative prologue scan over unclaimed byte ranges) runs
// across the worker pool; the discovered functions must not depend on
// which worker scanned which gap.
TEST(ParseParallel, GapFunctionsDeterministic) {
  const std::string src = R"(
    .globl _start
_start:
    li a7, 93
    ecall
    ret

    addi sp, sp, -16
    sd ra, 8(sp)
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";
  symtab::Symtab st = assembler::assemble(src);
  const std::string ref = parse_dump(st, 1);

  CodeObject co(st);
  co.parse({});
  bool found_gap_fn = false;
  for (const auto& [a, f] : co.functions())
    if (f->name().rfind("func_", 0) == 0) found_gap_fn = true;
  EXPECT_TRUE(found_gap_fn) << "gap scan missed the unlabeled prologue";

  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(parse_dump(st, threads), ref);
  }
}

// Two parses of one binary at the same thread count agree.
TEST(ParseParallel, RepeatedParseIsStable) {
  symtab::Symtab st = assembler::assemble(workloads::many_function_program(200));
  EXPECT_EQ(parse_dump(st, 4), parse_dump(st, 4));
}

// parallel_for hands every index to exactly one worker, for empty,
// single-item, uneven and large ranges at every worker count.
TEST(ParseParallel, ParallelForRunsEveryIndexOnce) {
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t count : {0u, 1u, 7u, 1000u}) {
      SCOPED_TRACE(testing::Message()
                   << "workers=" << workers << " count=" << count);
      std::vector<std::atomic<unsigned>> runs(count);
      std::atomic<bool> bad_worker{false};
      parallel_for(workers, count, [&](unsigned w, std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        if (w >= workers) bad_worker = true;
      });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(runs[i].load(), 1u) << "index " << i;
      EXPECT_FALSE(bad_worker.load());
    }
  }
}

}  // namespace
