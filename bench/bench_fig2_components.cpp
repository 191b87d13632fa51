// F2 — Figure 2's component stack, measured: per-toolkit wall time for the
// full pipeline over a many-function binary (SymtabAPI -> InstructionAPI
// -> ParseAPI -> DataflowAPI -> CodeGenAPI+PatchAPI -> execution).
#include <cinttypes>
#include <chrono>

#include "bench_util.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/slicing.hpp"
#include "isa/decoder.hpp"
#include "parse/cfg.hpp"
#include "workloads/workloads.hpp"

using namespace rvdyn;

namespace {

class Timer {
 public:
  Timer() : t0_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
               .count() *
           1e3;
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

int main() {
  const int n_funcs = 1500;
  std::printf("pipeline over a synthetic binary with %d functions\n\n",
              n_funcs);
  std::printf("%-34s %10s %s\n", "component", "time (ms)", "output");

  Timer t_asm;
  const auto src = workloads::many_function_program(n_funcs);
  const auto image = assembler::assemble_elf(src);
  std::printf("%-34s %10.2f %zu-byte ELF\n", "assembler (substrate)",
              t_asm.ms(), image.size());

  Timer t_sym;
  const auto bin = symtab::Symtab::read(image);
  const auto exts = bin.extensions();
  std::printf("%-34s %10.2f %zu sections, %zu symbols, %s\n", "SymtabAPI",
              t_sym.ms(), bin.sections().size(), bin.symbols().size(),
              isa::isa_string(exts).c_str());

  Timer t_dec;
  std::uint64_t decoded = 0;
  {
    isa::Decoder dec(exts);
    for (const auto& sec : bin.sections()) {
      if (!sec.is_code()) continue;
      std::size_t off = 0;
      isa::Instruction insn;
      while (off < sec.data.size()) {
        const unsigned len =
            dec.decode(sec.data.data() + off, sec.data.size() - off, &insn);
        if (len == 0) break;
        off += len;
        ++decoded;
      }
    }
  }
  std::printf("%-34s %10.2f %llu instructions\n", "InstructionAPI (decode)",
              t_dec.ms(), static_cast<unsigned long long>(decoded));

  Timer t_parse;
  parse::CodeObject co(bin);
  parse::ParseOptions popts;
  popts.num_threads = 4;
  co.parse(popts);
  const auto stats = co.total_stats();
  std::printf("%-34s %10.2f %zu funcs, %u blocks, %u calls\n",
              "ParseAPI (4 threads)", t_parse.ms(), co.functions().size(),
              stats.n_blocks, stats.n_calls);

  Timer t_df;
  std::uint64_t liveness_queries = 0, slice_edges = 0;
  for (const auto& [entry, f] : co.functions()) {
    dataflow::Liveness live(*f);
    for (const auto& [a, b] : f->blocks()) {
      (void)live.dead_before(b.get(), 0);
      ++liveness_queries;
    }
    dataflow::Slicer slicer(*f);
    slice_edges += slicer.num_edges();
  }
  std::printf("%-34s %10.2f %llu liveness queries, %llu def-use edges\n",
              "DataflowAPI (liveness+slicing)", t_df.ms(),
              static_cast<unsigned long long>(liveness_queries),
              static_cast<unsigned long long>(slice_edges));

  Timer t_patch;
  patch::BinaryEditor editor(bin);
  const auto counter = editor.alloc_var("c");
  for (const auto& [entry, f] : editor.code().functions())
    editor.insert_at(entry, patch::PointType::FuncEntry,
                     codegen::increment(counter));
  auto rewritten = editor.commit();
  std::printf("%-34s %10.2f %" PRIu64 " funcs relocated, %" PRIu64
              " snippet insns\n",
              "CodeGenAPI+PatchAPI (rewrite all)", t_patch.ms(),
              editor.stats().relocated_functions,
              editor.stats().snippet_insns);

  Timer t_run;
  const auto traps = editor.trap_table();
  const auto r = bench::run_binary(rewritten, &traps, counter.addr);
  std::printf("%-34s %10.2f exit=%d, %llu function entries counted\n",
              "execution (emulated)", t_run.ms(), r.exit_code,
              static_cast<unsigned long long>(r.counter));
  return 0;
}
