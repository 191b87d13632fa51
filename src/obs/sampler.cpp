#include "obs/sampler.hpp"

#include "obs/metrics.hpp"

namespace rvdyn::obs {

Sampler::Sampler(emu::Machine& m, const parse::CodeObject& co,
                 SamplerOptions opts)
    : m_(m), co_(co), opts_(opts), access_(m), walker_(access_, co) {
  if (opts_.interval == 0) opts_.interval = 1;
  attach();
}

Sampler::~Sampler() { detach(); }

void Sampler::attach() {
  if (attached_) return;
  m_.set_sample_hook(opts_.interval,
                     [this](emu::Machine& m) { on_sample(m); });
  attached_ = true;
}

void Sampler::detach() {
  if (!attached_) return;
  m_.clear_sample_hook();
  attached_ = false;
}

void Sampler::reset() {
  stacks_.clear();
  samples_ = 0;
  jit_samples_ = 0;
  truncated_walks_ = 0;
}

void Sampler::on_sample(emu::Machine& m) {
  ++samples_;
  RVDYN_OBS_COUNT("rvdyn.obs.sampler.samples");
  const std::uint64_t pc = m.pc();
#if RVDYN_JIT_ENABLED
  // Occupancy only — never part of the folded key (profiles must be
  // byte-identical with the tier on or off).
  if (m.jit_tier() != nullptr && m.jit_tier()->block_info(pc) != nullptr)
    ++jit_samples_;
#endif
  std::vector<std::string> names;
  if (opts_.capture_stacks) {
    const auto frames = walker_.walk(opts_.max_depth);
    if (frames.size() >= opts_.max_depth) ++truncated_walks_;
    RVDYN_OBS_HIST("rvdyn.obs.sampler.stack_depth", frames.size());
    names.reserve(frames.size());
    // walk() returns innermost first; folded stacks want root first.
    for (auto it = frames.rbegin(); it != frames.rend(); ++it)
      names.push_back(it->func_name.empty() ? co_.symbolize(it->pc)
                                            : std::string(it->func_name));
  } else {
    names.push_back(co_.symbolize(pc));
  }
  stacks_.add(names);
}

}  // namespace rvdyn::obs
