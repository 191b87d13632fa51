// Shared plumbing of the repository benchmark: the benchmark's own spans,
// sample statistics, the seeded generator, check accounting and the
// workload interface. Nothing here reaches into a library layer; the
// workloads (wl_*.cpp) call only public toolkit APIs and wrap each call in
// a Span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rvdyn::emu {
class Machine;
}
namespace rvdyn::patch {
class BinaryEditor;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- seeded inputs ----------------------------------------------------------

/// splitmix64: every generated input of a run derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a, for input digests and output-identity checks.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
  }
  void add_u64(std::uint64_t v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// ---- statistics ---------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (copied).
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// ---- the benchmark's own spans --------------------------------------------------

/// Spans the benchmark records around calls into a layer's public API:
/// name, start, end, parent and iteration id, kept in memory and written
/// out at exit. Disabled (the untraced run) a Span costs one branch.
class Tracer {
 public:
  struct Record {
    std::uint32_t name;
    std::int32_t parent;  ///< index into records(), -1 for a root span
    std::uint32_t iter;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  /// Storage bound: a traced phase stops starting iterations once full.
  static constexpr std::size_t kMaxRecords = 500000;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  bool full() const { return records_.size() >= kMaxRecords; }
  void set_iter(std::uint32_t iter) { iter_ = iter; }

  std::int32_t open(const char* name);
  void close(std::int32_t idx);

  const std::vector<Record>& records() const { return records_; }
  const std::string& name_of(std::uint32_t id) const { return names_[id]; }
  /// Id of `name`, or -1 when no span of that name was recorded.
  int id_of(std::string_view name) const;

  /// Total duration (ms) of the spans named `name`, by iteration id.
  std::map<std::uint32_t, double> per_iter_ms(std::string_view name) const;
  /// Duration (us) of each span named `name` in iterations below `iter_end`.
  std::vector<double> per_call_us(std::string_view name,
                                  std::uint32_t iter_end) const;
  /// Self time (ms) of the spans named `name`, by iteration id: their
  /// duration minus the part of it that their child spans cover.
  std::map<std::uint32_t, double> per_iter_self_ms(std::string_view name) const;

  /// Chrome trace_event JSON (load in Perfetto / chrome://tracing).
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  std::uint32_t iter_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::int32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, const char* name)
      : t_(t), idx_(t.enabled() ? t.open(name) : -1) {}
  ~Span() {
    if (idx_ >= 0) t_.close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

// ---- checks and the workload interface --------------------------------------------

/// Which reference the check self-test corrupts (run.py --selftest): each
/// must surface as failed operations, never as a pass.
enum class Sabotage { None, Counter, Magic, Frames };

/// Operations attempted and failed. An operation fails once however many
/// of its checks fail; each failing check names itself once on stderr so a
/// failing run says why.
class Checks {
 public:
  void attempt() {
    ++attempted_;
    current_failed_ = false;
  }
  /// Marks the current operation failed when `ok` is false; returns `ok`.
  bool expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool current_failed_ = false;
  std::map<std::string, std::uint64_t> reported_;
};

struct Env {
  std::uint64_t seed = 1;
  Sabotage sabotage = Sabotage::None;
  Tracer* tracer = nullptr;
  Checks* checks = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What op_ms_* time on this workload (rewrite_ms, run_ms, campaign_ms,
  /// session_ms), printed beside them.
  virtual const char* op_name() const = 0;

  /// Everything before the first timed iteration: generate inputs from
  /// the seed, assemble, reference runs, warm-up. Each call starts over.
  virtual void setup() = 0;

  /// Digest of the generated inputs (same seed => same digest).
  virtual std::uint64_t input_digest() const = 0;
  /// One-line description of the generated inputs.
  virtual std::string describe_inputs() const = 0;

  /// One timed iteration with fresh objects, every output checked;
  /// returns the latency (ms) of the iteration's operation.
  virtual double iterate() = 0;

  /// Checks made once per run, after the timed loop.
  virtual void final_check() {}

  /// Per-iteration values noted since the last clear (per-layer counts and
  /// ratios, and the workload's own exact end-to-end figures), by name.
  const std::map<std::string, std::vector<double>>& noted() const {
    return noted_;
  }
  void clear_noted() { noted_.clear(); }

 protected:
  void note(const std::string& name, double v) { noted_[name].push_back(v); }
  /// Notes the codegen and patch counts of a committed editor session.
  void note_editor(const rvdyn::patch::BinaryEditor& ed);
  /// Notes a finished process's emu counts (instret, JIT, block cache).
  void note_machine(const rvdyn::emu::Machine& m);

 private:
  std::map<std::string, std::vector<double>> noted_;
};

std::unique_ptr<Workload> make_rewrite(const Env& env);
std::unique_ptr<Workload> make_attach_run(const Env& env);
std::unique_ptr<Workload> make_fuzz(const Env& env);
std::unique_ptr<Workload> make_debug(const Env& env);

}  // namespace perfbench
