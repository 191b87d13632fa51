// Tier: the backend-neutral compile/execute/invalidate orchestration.
#include "emu/jit/jit.hpp"

#if RVDYN_JIT_ENABLED

#include <chrono>
#include <cstring>

#include "emu/jit/backend.hpp"
#include "emu/jit/jit_ir.hpp"
#include "emu/machine.hpp"
#include "obs/metrics.hpp"

namespace rvdyn::emu::jit {

std::unique_ptr<Tier> Tier::create(const Config& cfg) {
  Config c = cfg;
  if (c.backend == BackendKind::Auto)
    c.backend = x64_backend_available() ? BackendKind::X64
                                        : BackendKind::Threaded;
  if (c.backend == BackendKind::X64) {
    if (auto t = make_x64_tier(c)) return t;
    c.backend = BackendKind::Threaded;  // W^X said no after all
  }
  return make_threaded_tier(c);
}

bool Tier::config_drifted(Machine& m) const {
  if (!have_snapshot_) return false;
  static_assert(sizeof(CycleModel) <= sizeof(model_snapshot_));
  return std::memcmp(model_snapshot_, &Runtime::model(m),
                     sizeof(CycleModel)) != 0 ||
         profile_compiled_ != Runtime::profiling(m);
}

void Tier::take_snapshot(Machine& m) {
  std::memcpy(model_snapshot_, &Runtime::model(m), sizeof(CycleModel));
  profile_compiled_ = Runtime::profiling(m);
  have_snapshot_ = true;
}

bool Tier::compile(Machine& m, std::uint64_t start,
                   const std::vector<isa::Instruction>& insns) {
  if (config_drifted(m)) invalidate_all(InvalidateCause::Config);
  take_snapshot(m);
  if (has_block(start)) return true;
  if (live_blocks_ >= cfg_.max_blocks)
    invalidate_all(InvalidateCause::Capacity);

  const auto t0 = std::chrono::steady_clock::now();
  BlockIR ir;
  bool truncated = false;
  if (!build_block_ir(Runtime::model(m), start, insns, &ir, &truncated)) {
    ++stats_.compile_rejected;
    return false;
  }
  const std::uint32_t n = ir.n_retired;
  if (!emit_block(m, ir)) {
    ++stats_.compile_rejected;
    return false;
  }
  if (truncated) ++stats_.compile_truncated;
  ++stats_.blocks_compiled;
  stats_.insns_compiled += n;
  ++live_blocks_;
  infos_[ir.start] = BlockInfo{ir.start,     ir.end,        ir.n_retired,
                               ir.cost_fall, ir.cost_taken, ir.charges};
  const auto dt = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  stats_.compile_ns += dt;
  // Per-block latency distribution; the counter above only carries totals.
  RVDYN_OBS_HIST("rvdyn.emu.jit.compile_block_ns", dt);
  return true;
}

std::uint64_t Tier::execute(Machine& m, std::uint64_t max_steps) {
  if (config_drifted(m)) {
    invalidate_all(InvalidateCause::Config);
    return 0;
  }
  JitState& st = Runtime::state(m);
  if (!has_block(st.pc)) return 0;
  st.machine = &m;
  st.tier = this;
  st.budget = max_steps;
  st.exit_kind = kExitNone;
  st.blocks_entered = 0;
  st.dispatch_hits = 0;
  st.helper_calls = 0;
  st.slow_stores = 0;
  ++stats_.sessions;
  run_session(m);
  const std::uint64_t done = max_steps - st.budget;
  stats_.insns_retired += done;
  stats_.blocks_entered += st.blocks_entered;
  stats_.dispatch_hits += st.dispatch_hits;
  stats_.helper_calls += st.helper_calls;
  stats_.slow_stores += st.slow_stores;
  switch (st.exit_kind) {
    case kExitEdge: ++stats_.exit_edge; break;
    case kExitDispatch: ++stats_.exit_dispatch; break;
    case kExitBudget: ++stats_.exit_budget; break;
    case kExitInterp: ++stats_.exit_interp; break;
    default: break;
  }
  return done;
}

void Tier::charge_eviction(std::uint64_t dropped, InvalidateCause cause) {
  switch (cause) {
    case InvalidateCause::WriteCode: stats_.evict_write_code += dropped; break;
    case InvalidateCause::FenceI: stats_.evict_fencei += dropped; break;
    case InvalidateCause::Capacity: stats_.evict_capacity += dropped; break;
    case InvalidateCause::Config: stats_.evict_config += dropped; break;
  }
}

void Tier::invalidate_range(std::uint64_t lo, std::uint64_t hi,
                            InvalidateCause cause) {
  const std::uint64_t n = drop_range(lo, hi);
  // Keep the attribution side-table in lockstep with the backend's block
  // set: drop every record whose guest range overlaps [lo, hi).
  for (auto it = infos_.begin(); it != infos_.end();) {
    if (it->second.start < hi && it->second.end > lo)
      it = infos_.erase(it);
    else
      ++it;
  }
  if (n == 0) return;
  charge_eviction(n, cause);
  live_blocks_ -= n;
  ++epoch_;  // stale bcache stamps now re-offer their blocks
}

void Tier::invalidate_all(InvalidateCause cause) {
  const std::uint64_t n = drop_all();
  infos_.clear();
  if (n == 0) return;
  charge_eviction(n, cause);
  live_blocks_ = 0;
  ++epoch_;
}

const BlockInfo* Tier::block_info(std::uint64_t pc) const {
  auto it = infos_.upper_bound(pc);
  if (it == infos_.begin()) return nullptr;
  --it;
  return pc < it->second.end ? &it->second : nullptr;
}

void Tier::publish_metrics() {
#if RVDYN_OBS_ENABLED
  const Stats& c = stats_;
  const Stats& p = published_;
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.blocks_compiled",
                    c.blocks_compiled - p.blocks_compiled);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.insns_compiled",
                    c.insns_compiled - p.insns_compiled);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.compile_rejected",
                    c.compile_rejected - p.compile_rejected);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.compile_truncated",
                    c.compile_truncated - p.compile_truncated);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.code_bytes", c.code_bytes - p.code_bytes);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.compile_ns", c.compile_ns - p.compile_ns);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.sessions", c.sessions - p.sessions);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.blocks_entered",
                    c.blocks_entered - p.blocks_entered);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.insns_retired",
                    c.insns_retired - p.insns_retired);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.dispatch_hits",
                    c.dispatch_hits - p.dispatch_hits);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.helper_calls",
                    c.helper_calls - p.helper_calls);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.slow_stores",
                    c.slow_stores - p.slow_stores);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.exit.edge", c.exit_edge - p.exit_edge);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.exit.dispatch",
                    c.exit_dispatch - p.exit_dispatch);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.exit.budget",
                    c.exit_budget - p.exit_budget);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.exit.interp",
                    c.exit_interp - p.exit_interp);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.chains_installed",
                    c.chains_installed - p.chains_installed);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.chains_broken",
                    c.chains_broken - p.chains_broken);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.dispatch_entries",
                    c.dispatch_entries - p.dispatch_entries);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.evict.write_code",
                    c.evict_write_code - p.evict_write_code);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.evict.fencei",
                    c.evict_fencei - p.evict_fencei);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.evict.capacity",
                    c.evict_capacity - p.evict_capacity);
  RVDYN_OBS_COUNT_N("rvdyn.emu.jit.evict.config",
                    c.evict_config - p.evict_config);
  RVDYN_OBS_GAUGE("rvdyn.emu.jit.live_blocks",
                  static_cast<std::uint64_t>(live_blocks_));
  published_ = stats_;
#endif
}

}  // namespace rvdyn::emu::jit

#endif  // RVDYN_JIT_ENABLED
