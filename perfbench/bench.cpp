#include "bench.hpp"

#include <algorithm>
#include <cmath>

#include "emu/machine.hpp"
#include "patch/editor.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::int32_t Tracer::open(const char* name) {
  auto it = ids_.find(std::string_view(name));
  if (it == ids_.end()) {
    it = ids_.emplace(name, static_cast<std::uint32_t>(names_.size())).first;
    names_.emplace_back(name);
  }
  const auto idx = static_cast<std::int32_t>(records_.size());
  records_.push_back({it->second, stack_.empty() ? -1 : stack_.back(), iter_,
                      now_ns(), 0});
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t idx) {
  records_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Spans are RAII-scoped, so the closing span is always the innermost.
  stack_.pop_back();
}

int Tracer::id_of(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? -1 : static_cast<int>(it->second);
}

std::map<std::uint32_t, double> Tracer::per_iter_ms(std::string_view name) const {
  const int id = id_of(name);
  std::map<std::uint32_t, double> by_iter;
  for (const Record& r : records_)
    if (static_cast<int>(r.name) == id)
      by_iter[r.iter] += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  return by_iter;
}

std::vector<double> Tracer::per_call_us(std::string_view name,
                                        std::uint32_t iter_end) const {
  const int id = id_of(name);
  std::vector<double> out;
  for (const Record& r : records_)
    if (static_cast<int>(r.name) == id && r.iter < iter_end)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
  return out;
}

std::map<std::uint32_t, double> Tracer::per_iter_self_ms(
    std::string_view name) const {
  const int id = id_of(name);
  // Children of one parent never overlap (spans nest), so the covered part
  // is the sum of the direct children's durations.
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_)
    if (r.parent >= 0)
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  std::map<std::uint32_t, double> by_iter;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (static_cast<int>(r.name) != id) continue;
    by_iter[r.iter] +=
        static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) / 1e6;
  }
  return by_iter;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  std::fprintf(fp, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(fp,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"iter\": %u, "
                 "\"id\": %zu, \"parent\": %d}}%s\n",
                 names_[r.name].c_str(), static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.iter, i,
                 r.parent, i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(fp, "]}\n");
  return std::fclose(fp) == 0;
}

bool Checks::expect(bool ok, const std::string& what) {
  if (ok) return true;
  if (!current_failed_) ++failed_;
  current_failed_ = true;
  if (reported_[what]++ == 0)
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  return false;
}

void Workload::note_editor(const rvdyn::patch::BinaryEditor& ed) {
  const rvdyn::patch::RewriteStats& st = ed.stats();
  note("codegen.snippet_insns", st.snippet_insns);
  note("codegen.scratch_spilled", st.gen.scratch_spilled);
  const double alloc = st.gen.scratch_from_dead + st.gen.scratch_spilled;
  note("codegen.dead_reg_ratio", alloc > 0 ? st.gen.scratch_from_dead / alloc : 0);
  note("patch.text_bytes",
       ed.plan() ? static_cast<double>(ed.plan()->text.bytes.size()) : 0);
  note("patch.relax_iterations", st.reloc.relax_iterations);
  const double springs =
      st.entry_cj + st.entry_jal + st.entry_auipc_jalr + st.entry_trap;
  note("patch.direct_springboard_ratio",
       springs > 0 ? (st.entry_cj + st.entry_jal) / springs : 0);
}

void Workload::note_machine(const rvdyn::emu::Machine& m) {
  const double instret = static_cast<double>(m.instret());
  note("emu.instret", instret);
  const rvdyn::emu::jit::Stats js = m.jit_stats();
  note("emu.jit.insn_share", static_cast<double>(js.insns_retired) / instret);
  note("emu.jit.compile_ms", static_cast<double>(js.compile_ns) / 1e6);
  note("emu.jit.evict_write_code", static_cast<double>(js.evict_write_code));
  const auto& cs = m.cache_stats();
  const double lookups = static_cast<double>(cs.bcache_hits + cs.bcache_misses);
  note("emu.bcache.hit_ratio",
       lookups > 0 ? static_cast<double>(cs.bcache_hits) / lookups : 0);
}

}  // namespace perfbench
