// rvdyn-rewriter: standalone static binary rewriter (the paper's §3.3
// first-release feature as a command-line tool).
//
// Usage:
//   rvdyn_rewriter <in.elf> <out.elf> [--func=<name>] [--points=entry|exit|bb]
//
// Inserts a profiling counter at the requested points and writes the
// rewritten executable; the counter value is exported as the rvdyn$counter
// symbol. With no arguments, runs a self-demonstration: builds a demo
// binary, rewrites it, executes both, and prints the counter.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "assembler/assembler.hpp"
#include "codegen/snippet.hpp"
#include "emu/machine.hpp"
#include "patch/editor.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

int rewrite(const symtab::Symtab& in, const std::string& out_path,
            const std::string& func, const std::string& points) {
  patch::BinaryEditor editor(in);
  const auto counter = editor.alloc_var("counter");

  patch::PointType type = patch::PointType::FuncEntry;
  if (points == "exit") type = patch::PointType::FuncExit;
  else if (points == "bb") type = patch::PointType::BlockEntry;
  else if (points != "entry") {
    std::fprintf(stderr, "unknown --points value: %s\n", points.c_str());
    return 1;
  }

  unsigned instrumented = 0;
  for (const auto& [entry, f] : editor.code().functions()) {
    if (!func.empty() && f->name() != func) continue;
    editor.insert_at(entry, type, codegen::increment(counter));
    ++instrumented;
  }
  if (instrumented == 0) {
    std::fprintf(stderr, "no function matched '%s'\n", func.c_str());
    return 1;
  }

  const auto rewritten = editor.commit();
  rewritten.write_file(out_path);
  const auto& s = editor.stats();
  std::printf("rewrote %" PRIu64 " function(s): %" PRIu64 " snippets (%" PRIu64
              " insns), springboards: %" PRIu64 " c.j / %" PRIu64 " jal / %" PRIu64
              " auipc+jalr / %" PRIu64 " trap\n",
              s.relocated_functions, s.snippets_inserted, s.snippet_insns,
              s.entry_cj, s.entry_jal, s.entry_auipc_jalr, s.entry_trap);
  std::printf("counter symbol rvdyn$counter at 0x%llx; wrote %s\n",
              static_cast<unsigned long long>(counter.addr),
              out_path.c_str());
  if (s.entry_trap)
    std::printf("note: trap springboards present — run under a trap-aware "
                "runtime (ProcControlAPI)\n");
  return 0;
}

int self_demo() {
  std::printf("self-demo: instrumenting the fib workload\n");
  const auto bin = assembler::assemble(workloads::fib_program(12));
  const char* tmp = "/tmp/rvdyn_rewriter_demo.elf";
  if (const int rc = rewrite(bin, tmp, "fib", "entry")) return rc;

  const auto rewritten = symtab::Symtab::read_file(tmp);
  emu::Machine base, inst;
  base.load(bin);
  base.run();
  inst.load(rewritten);
  inst.run();
  const auto* sym = rewritten.find_symbol("rvdyn$counter");
  std::printf("original exit=%d, rewritten exit=%d, fib entries counted=%llu\n",
              base.exit_code(), inst.exit_code(),
              static_cast<unsigned long long>(
                  inst.memory().read(sym->value, 8)));
  return base.exit_code() == inst.exit_code() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return self_demo();

  std::string func, points = "entry";
  for (int i = 3; i < argc; ++i) {
    if (!std::strncmp(argv[i], "--func=", 7)) func = argv[i] + 7;
    else if (!std::strncmp(argv[i], "--points=", 9)) points = argv[i] + 9;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  try {
    return rewrite(symtab::Symtab::read_file(argv[1]), argv[2], func, points);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
