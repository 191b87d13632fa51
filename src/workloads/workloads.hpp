// Mutatee workload programs (assembly source generators).
//
// The centerpiece is the paper's evaluation application (§4.1): a function
// performing an n x n double-precision matrix multiplication, called
// repeatedly in a loop from the program entry, with the elapsed time of
// the loop sampled via clock_gettime before and after. The program stores
// the elapsed nanoseconds in the `elapsed_ns` data symbol, so harnesses
// can read the mutatee's own measurement exactly as the paper's app
// reports its own timing.
#pragma once

#include <cstdint>
#include <string>

namespace rvdyn::workloads {

/// The paper's benchmark application. `n` is the matrix dimension (the
/// paper uses 100) and `reps` the number of matmul calls in the timed
/// loop. Exposed symbols: `matmul` (the instrumented function, a triple
/// loop of ~11 basic blocks), `elapsed_ns` (u64, written before exit).
std::string matmul_program(int n, int reps);

/// A call-heavy workload: `reps` calls to a small leaf through a wrapper
/// (exercises call/return instrumentation).
std::string call_churn_program(int reps);

/// Recursive Fibonacci (depth + call-graph workload); exit code fib(n)&255.
std::string fib_program(int n);

/// A switch-style dispatcher driven through a jump table (exercises
/// indirect-flow analysis under instrumentation); exit code is a checksum.
std::string dispatch_program(int iterations);

/// Synthetic many-function binary for parse-throughput benchmarks:
/// `n_funcs` functions with branches, loops and cross-calls.
std::string many_function_program(int n_funcs);

/// Symbol-less call graph for parse benchmarks: `n_funcs` functions under
/// plain (non-.globl) labels, function k calling functions k*fanout+1 ..
/// k*fanout+fanout. Only `_start` is a symbol, so a parser finds every
/// function through a call: fanout 1 is a chain (one new function per
/// discovery round), fanout 2 a binary tree (rounds double in width).
std::string call_tree_program(int n_funcs, int fanout);

/// Insertion sort of `n` pseudo-random 64-bit keys (memory- and
/// branch-heavy; nested data-dependent loops). Exits 0 when the array is
/// sorted, 1 otherwise, so instrumented runs are self-checking.
std::string sort_program(int n);

/// Fuzzing mutatee following rvdyn::fuzz's target contract: exposes
/// `fuzz_input` (64-byte buffer) and `fuzz_len` (u64), checksums the
/// input, and compares it byte-by-byte against `magic` — one basic block
/// per byte, so edge coverage guides a fuzzer toward the full match, which
/// executes ebreak (the seeded bug). Non-matching runs exit with the
/// checksum.
std::string fuzz_target_program(const std::string& magic);

}  // namespace rvdyn::workloads
