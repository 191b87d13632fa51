// CodeMover and its relocation pipeline. Each pass is a small
// transformation over MoverModule; run() applies them in a fixed order
// (lower -> weave -> rvc -> relax -> emit).
#include "patch/reloc/mover.hpp"

#include <algorithm>

#include "common/status.hpp"
#include "isa/imm_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rvdyn::patch::reloc {

namespace {

using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;
using parse::Block;
using parse::EdgeType;
using parse::Function;

// ---- lower: CFG blocks -> widgets ----------------------------------------
//
// Reproduces the relocation semantics of the previous single-pass emitter:
// labels bind before block-entry snippets; point snippets precede the
// anchor instruction; auipc re-materializes the original absolute value;
// intraprocedural jal x0 becomes a label jump; calls and tail calls
// transfer to the ORIGINAL absolute target (which may itself be
// springboarded); jalr is position independent and stays verbatim;
// fallthrough jumps are dropped when the successor block is laid out
// immediately after and the edge is not instrumented.
class Lowering {
 public:
  Lowering(MoverModule& m, FunctionImage& fi) : m_(m), fi_(fi) {}

  void run() {
    const Function* f = fi_.func;
    const auto& blocks = f->blocks();
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
      const Block* b = it->second.get();
      auto next_it = std::next(it);
      const std::uint64_t next_block_addr =
          next_it != blocks.end() ? next_it->first : 0;

      bind(LabelKey::at(b->start()));
      if (auto se = fi_.spec.at_block_entry.find(b->start());
          se != fi_.spec.at_block_entry.end())
        add_anchor(se->second, b, 0, 0);
      const auto term_snippets = fi_.spec.before_term.find(b->start());

      const auto& insns = b->insns();
      for (std::size_t i = 0; i < insns.size(); ++i) {
        const parse::ParsedInsn& pi = insns[i];
        const Instruction& insn = pi.insn;
        const bool is_term = i + 1 == insns.size();

        if (auto bi = fi_.spec.before_insn.find(pi.addr);
            bi != fi_.spec.before_insn.end())
          add_anchor(bi->second, b, i, pi.addr);
        if (is_term && term_snippets != fi_.spec.before_term.end())
          add_anchor(term_snippets->second, b, i, 0);

        if (insn.is_cond_branch()) {
          const std::uint64_t taken =
              pi.addr + static_cast<std::uint64_t>(insn.branch_offset());
          fi_.widgets.push_back(Widget::cond_branch(
              insn.mnemonic(), insn.operand(0).reg, insn.operand(1).reg,
              ref(edge_key(b->start(), taken)), m_.rvc));
        } else if (insn.mnemonic() == Mnemonic::auipc) {
          const std::int64_t value =
              static_cast<std::int64_t>(pi.addr) + insn.operand(1).imm;
          std::vector<Instruction> seq;
          isa::materialize_imm(insn.operand(0).reg, value, &seq);
          add_code(seq);
        } else if (insn.is_jal()) {
          const std::uint64_t target =
              pi.addr + static_cast<std::uint64_t>(insn.branch_offset());
          const Reg link = insn.link_reg();
          bool intra = false;
          for (const parse::Edge& e : b->succs())
            if ((e.type == EdgeType::Jump || e.type == EdgeType::Taken) &&
                e.target == target)
              intra = true;
          if (link == isa::zero && intra) {
            fi_.widgets.push_back(
                Widget::jump(ref(edge_key(b->start(), target)), m_.rvc));
          } else {
            fi_.widgets.push_back(Widget::transfer(
                target, link, link == isa::zero ? isa::t6 : link));
          }
        } else {
          // jalr and ordinary instructions are position independent.
          m_.pool.push(insn);
          fi_.widgets.push_back(Widget::code(m_.pool.size() - 1, 1, m_.pool));
        }
      }

      // Fallthrough routing for blocks that do not end in an unconditional
      // transfer, and post-call resume points.
      const Instruction* term = insns.empty() ? nullptr : &insns.back().insn;
      const bool ends_unconditional =
          term && (term->is_jal() || term->is_jalr());
      auto resume_at = [&](const parse::Edge& e) {
        const LabelKey key = edge_key(b->start(), e.target);
        if (key.is_stub || e.target != next_block_addr)
          fi_.widgets.push_back(Widget::jump(ref(key), m_.rvc));
      };
      if (!ends_unconditional) {
        for (const parse::Edge& e : b->succs())
          if (e.type == EdgeType::Fallthrough || e.type == EdgeType::NotTaken)
            resume_at(e);
      } else if (term->is_jalr() ||
                 (term->is_jal() && !(term->link_reg() == isa::zero))) {
        for (const parse::Edge& e : b->succs())
          if (e.type == EdgeType::CallFallthrough) resume_at(e);
      }
    }

    // Edge trampolines: snippet, then jump back to the edge target.
    for (const auto& [key, snippets] : fi_.spec.on_edge) {
      bind(LabelKey::stub(key.first, key.second));
      add_anchor(snippets, f->block_at(key.second), 0, 0);
      fi_.widgets.push_back(
          Widget::jump(ref(LabelKey::at(key.second)), m_.rvc));
    }
  }

 private:
  LabelKey edge_key(std::uint64_t block, std::uint64_t target) const {
    return fi_.spec.has_edge(block, target) ? LabelKey::stub(block, target)
                                            : LabelKey::at(target);
  }

  std::uint32_t ref(const LabelKey& key) {
    fi_.refs.push_back(key);
    return static_cast<std::uint32_t>(fi_.refs.size() - 1);
  }

  void bind(const LabelKey& key) {
    fi_.labels.emplace_back(key,
                            static_cast<std::uint32_t>(fi_.widgets.size()));
  }

  void add_code(const std::vector<Instruction>& seq) {
    const std::uint32_t first = m_.pool.size();
    for (const Instruction& insn : seq) m_.pool.push(insn);
    fi_.widgets.push_back(Widget::code(
        first, static_cast<std::uint32_t>(seq.size()), m_.pool));
  }

  void add_anchor(const std::vector<codegen::SnippetPtr>& snippets,
                  const Block* live_block, std::size_t live_index,
                  std::uint64_t anchor_addr) {
    WeaveItem item;
    item.widget_index = fi_.widgets.size();
    item.snippets = &snippets;
    item.live_block = live_block;
    item.live_index = live_index;
    item.anchor_addr = anchor_addr;
    fi_.weave_items.push_back(item);
    fi_.widgets.push_back(Widget::code(m_.pool.size(), 0, m_.pool));
  }

  MoverModule& m_;
  FunctionImage& fi_;
};

// Label id of `key` as seen from function `func`: its own binding, else
// the module-wide one (the last function binding it). -1 when no function
// binds `key`.
std::int64_t find_label(const MoverModule& m, std::size_t func,
                        const LabelKey& key) {
  auto in = [&](const FunctionImage& fi) -> std::int64_t {
    auto it = std::lower_bound(
        fi.labels.begin(), fi.labels.end(), key,
        [](const auto& l, const LabelKey& k) { return l.first < k; });
    return it != fi.labels.end() && it->first == key ? it->second : -1;
  };
  if (func < m.funcs.size())
    if (const std::int64_t id = in(m.funcs[func]); id >= 0) return id;
  for (std::size_t f = m.funcs.size(); f-- > 0;)
    if (const std::int64_t id = in(m.funcs[f]); id >= 0) return id;
  return -1;
}

// Turn each function's label bindings into module label ids, then every
// CondBranch/Jump reference into the id it resolves to: the function's own
// binding first, else the module-wide one.
void resolve_labels(MoverModule& m) {
  for (std::uint32_t f = 0; f < m.funcs.size(); ++f) {
    auto& labels = m.funcs[f].labels;
    for (auto& [key, at] : labels) {
      const auto id = static_cast<std::uint32_t>(m.labels.size());
      m.labels.emplace_back(f, at);
      at = id;
    }
    std::sort(labels.begin(), labels.end());
  }
  for (std::size_t f = 0; f < m.funcs.size(); ++f) {
    FunctionImage& fi = m.funcs[f];
    std::vector<std::uint32_t> ids(fi.refs.size());
    for (std::size_t r = 0; r < fi.refs.size(); ++r) {
      const std::int64_t id = find_label(m, f, fi.refs[r]);
      if (id < 0) throw Error("patch: relocation target has no label");
      ids[r] = static_cast<std::uint32_t>(id);
    }
    for (Widget& w : fi.widgets)
      if (w.uses_label()) w.label = ids[w.label];
    fi.refs = {};
  }
}

// Recompute every widget and label address sequentially from m.base.
// Relaxation re-runs this after each growth round; the final call leaves
// the layout emission reads.
void run_layout(MoverModule& m) {
  std::uint64_t cursor = m.base;
  for (FunctionImage& fi : m.funcs) {
    fi.widget_addr.resize(fi.widgets.size() + 1);
    for (std::size_t i = 0; i < fi.widgets.size(); ++i) {
      fi.widget_addr[i] = cursor;
      cursor += fi.widgets[i].size();
    }
    fi.widget_addr.back() = cursor;
  }
  m.label_addr.resize(m.labels.size());
  for (std::size_t id = 0; id < m.labels.size(); ++id) {
    const auto [f, w] = m.labels[id];
    m.label_addr[id] = m.funcs[f].widget_addr[w];
  }
}

std::int64_t displacement(const MoverModule& m, const Widget& w,
                          std::uint64_t self_addr) {
  const std::uint64_t target =
      w.kind == Widget::Kind::Transfer ? w.target : m.label_addr[w.label];
  return static_cast<std::int64_t>(target) -
         static_cast<std::int64_t>(self_addr);
}

void tally(RelocStats& s, const Widget& w) {
  using Form = Widget::Form;
  switch (w.kind) {
    case Widget::Kind::CondBranch:
      if (w.form == Form::C2)
        ++s.branch_c2;
      else if (w.form == Form::Near)
        ++s.branch_near;
      else
        ++s.branch_long;
      break;
    case Widget::Kind::Jump:
      if (w.form == Form::C2)
        ++s.jump_c2;
      else
        ++s.jump_near;
      break;
    case Widget::Kind::Transfer:
      if (w.form == Form::Near)
        ++s.transfer_jal;
      else
        ++s.transfer_auipc_jalr;
      break;
    case Widget::Kind::Code:
      break;
  }
}

// ---- lower ---------------------------------------------------------------
void lower_pass(MoverModule& m) {
  std::size_t n_insns = 0;
  for (const FunctionImage& fi : m.funcs)
    for (const auto& [a, b] : fi.func->blocks()) n_insns += b->insns().size();
  m.pool.insns.reserve(n_insns);
  m.pool.rvc.reserve(n_insns);
  for (FunctionImage& fi : m.funcs) Lowering(m, fi).run();
  resolve_labels(m);
}

// ---- weave: generate snippet code into the anchors -----------------------
void weave_pass(MoverModule& m) {
  // Room for 16 instructions per snippet (a counter lowers to 4-10), so the
  // pool does not reallocate while it grows: a reallocation briefly holds
  // two copies of it, while capacity that weaving never fills is never
  // touched and costs no memory.
  std::size_t snippets = 0;
  for (const FunctionImage& fi : m.funcs)
    for (const WeaveItem& item : fi.weave_items)
      snippets += item.snippets->size();
  m.pool.insns.reserve(m.pool.size() + 16 * snippets);
  m.pool.rvc.reserve(m.pool.size() + 16 * snippets);
  std::vector<isa::Instruction> code;
  for (FunctionImage& fi : m.funcs) {
    for (const WeaveItem& item : fi.weave_items) {
      isa::RegSet dead;
      if (item.anchor_addr) {
        dead = fi.live->dead_at(item.anchor_addr);
      } else if (item.live_block) {
        dead = fi.live->dead_before(item.live_block, item.live_index);
      }
      const std::uint32_t first = m.pool.size();
      for (const codegen::SnippetPtr& s : *item.snippets) {
        codegen::GenStats gs;
        code = m.gen->generate(*s, dead, &gs);
        for (const isa::Instruction& insn : code) m.pool.push(insn);
        m.stats.gen.n_insns += gs.n_insns;
        m.stats.gen.scratch_from_dead += gs.scratch_from_dead;
        m.stats.gen.scratch_spilled += gs.scratch_spilled;
        m.stats.snippet_insns += gs.n_insns;
      }
      fi.widgets[item.widget_index] =
          Widget::code(first, m.pool.size() - first, m.pool);
    }
  }
}

// ---- rvc: re-compress relocated encodings --------------------------------
//
// Relocation and the 4-byte-only code generator inflate originally
// compressed code; this pass shrinks every eligible encoding back to its C
// form before relaxation, so branch displacements are measured against the
// tightest layout.
void rvc_pass(MoverModule& m) {
  std::uint64_t before = 0, after = 0;
  for (FunctionImage& fi : m.funcs) {
    for (Widget& w : fi.widgets) {
      before += w.size();
      if (m.rvc && w.kind == Widget::Kind::Code && w.count != 0) {
        m.stats.rvc_recompressed += m.pool.compress(w.first, w.count);
        w = Widget::code(w.first, w.count, m.pool);
      }
      after += w.size();
    }
  }
  m.stats.bytes_before_rvc = before;
  m.stats.bytes_after_rvc = after;
}

// ---- relax: branch-reach fixed point -------------------------------------
//
// Lay the module out, grow any control transfer whose displacement exceeds
// its current form, and repeat until no form changes. Forms only grow, so
// the iteration terminates (worst case: every control transfer reaches
// Long).
void relax_pass(MoverModule& m) {
  run_layout(m);
  bool changed;
  do {
    changed = false;
    for (FunctionImage& fi : m.funcs) {
      for (std::size_t i = 0; i < fi.widgets.size(); ++i) {
        Widget& w = fi.widgets[i];
        if (!w.is_cf()) continue;
        if (w.relax(displacement(m, w, fi.widget_addr[i]))) changed = true;
      }
    }
    ++m.stats.relax_iterations;
    if (changed) run_layout(m);
  } while (changed);
}

// ---- emit: serialize at the final layout ---------------------------------
void emit_pass(MoverModule& m) {
  m.text.clear();
  if (!m.funcs.empty())
    m.text.reserve(m.funcs.back().widget_addr.back() - m.base);
  for (FunctionImage& fi : m.funcs) {
    for (std::size_t i = 0; i < fi.widgets.size(); ++i) {
      const Widget& w = fi.widgets[i];
      const std::size_t at = m.text.size();
      if (w.is_cf()) {
        w.emit_cf(displacement(m, w, fi.widget_addr[i]), &m.text);
        tally(m.stats, w);
      } else {
        m.pool.emit(w.first, w.count, &m.text);
      }
      if (m.text.size() - at != w.size())
        throw Error("patch: widget emitted size disagrees with layout");
    }
  }
}

// The pipeline: each step runs under its own trace span and timer gauge.
struct Step {
  const char* span;
  const char* gauge;
  void (*run)(MoverModule&);
};

constexpr Step kPipeline[] = {
    {"rvdyn.patch.pass.lower", "rvdyn.patch.pass.lower.ns", lower_pass},
    {"rvdyn.patch.pass.weave", "rvdyn.patch.pass.weave.ns", weave_pass},
    {"rvdyn.patch.pass.rvc", "rvdyn.patch.pass.rvc.ns", rvc_pass},
    {"rvdyn.patch.pass.relax", "rvdyn.patch.pass.relax.ns", relax_pass},
    {"rvdyn.patch.pass.emit", "rvdyn.patch.pass.emit.ns", emit_pass},
};

}  // namespace

CodeMover::CodeMover(std::uint64_t base, bool rvc,
                     codegen::CodeGenerator* gen,
                     const dataflow::Summaries* summaries) {
  module_.base = base;
  module_.rvc = rvc;
  module_.gen = gen;
  module_.summaries = summaries;
}

const dataflow::Liveness& CodeMover::add_function(const parse::Function* f,
                                                  WeaveSpec spec) {
  FunctionImage fi;
  fi.func = f;
  fi.spec = std::move(spec);
  fi.live = std::make_unique<const dataflow::Liveness>(*f, module_.summaries);
  module_.funcs.push_back(std::move(fi));
  return *module_.funcs.back().live;
}

const std::vector<std::uint8_t>& CodeMover::run() {
  for (const Step& step : kPipeline) {
    RVDYN_OBS_SPAN(step.span);
    RVDYN_OBS_TIMER(step.gauge);
    step.run(module_);
  }
  return module_.text;
}

std::uint64_t CodeMover::label_addr(std::uint64_t block,
                                    std::size_t func) const {
  const std::int64_t id = find_label(module_, func, LabelKey::at(block));
  if (id < 0) throw Error("patch: relocation target has no label");
  return module_.label_addr[static_cast<std::size_t>(id)];
}

}  // namespace rvdyn::patch::reloc
