// The campaign loop: corpus scheduling, mutation, worker sharding, triage.
#include <algorithm>
#include <cstring>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/postmortem.hpp"
#include "obs/stats.hpp"

namespace rvdyn::fuzz {

// --- corpus -----------------------------------------------------------------

std::size_t Corpus::add(std::vector<std::uint8_t> bytes, unsigned novelty) {
  std::lock_guard lock(mu_);
  entries_.push_back({std::move(bytes), novelty});
  total_energy_ += energy(novelty);
  return entries_.size() - 1;
}

unsigned Corpus::copy_entry(std::size_t idx,
                            std::vector<std::uint8_t>& out) const {
  std::lock_guard lock(mu_);
  const Entry& e = entries_.at(idx);
  out.assign(e.bytes.begin(), e.bytes.end());
  return e.novelty;
}

std::size_t Corpus::copy_prefix(std::size_t idx, std::uint8_t* dst,
                                std::size_t n) const {
  std::lock_guard lock(mu_);
  const std::vector<std::uint8_t>& bytes = entries_.at(idx).bytes;
  n = std::min(n, bytes.size());
  if (n != 0) std::memcpy(dst, bytes.data(), n);
  return n;
}

std::size_t Corpus::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

unsigned Corpus::energy(unsigned novelty) {
  unsigned e = 1;
  while (novelty > 0) {
    ++e;
    novelty >>= 1;
  }
  return e;
}

std::size_t Corpus::pick(std::uint64_t rng_state) const {
  std::lock_guard lock(mu_);
  if (entries_.empty()) return 0;
  if (total_energy_ == 0) return rng_state % entries_.size();
  // Energy-weighted roulette: entries admitted with more novel edges are
  // proportionally more likely to be rescheduled.
  std::uint64_t ticket = rng_state % total_energy_;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::uint64_t e = energy(entries_[i].novelty);
    if (ticket < e) return i;
    ticket -= e;
  }
  return entries_.size() - 1;
}

// --- mutator ----------------------------------------------------------------

std::uint64_t Mutator::next() {
  // xorshift64* — deterministic, seedable, no libc RNG state.
  s_ ^= s_ >> 12;
  s_ ^= s_ << 25;
  s_ ^= s_ >> 27;
  return s_ * 0x2545F4914F6CDD1DULL;
}

void Mutator::mutate(std::vector<std::uint8_t>& data, const Corpus& corpus,
                     std::size_t max_len) {
  if (data.empty()) data.push_back(0);
  // Stack 1..4 havoc steps so single-step minima don't trap the search.
  const unsigned steps = 1 + static_cast<unsigned>(next() % 4);
  for (unsigned s = 0; s < steps; ++s) {
    const std::uint64_t r = next();
    const std::size_t pos = static_cast<std::size_t>(next()) % data.size();
    switch (r % 6) {
      case 0:  // single bit flip
        data[pos] ^= static_cast<std::uint8_t>(1u << (next() % 8));
        break;
      case 1:  // random byte overwrite
        data[pos] = static_cast<std::uint8_t>(next());
        break;
      case 2:  // bounded arithmetic
        data[pos] = static_cast<std::uint8_t>(
            data[pos] + static_cast<int>(next() % 35) - 17);
        break;
      case 3:  // extend with a random byte (inputs grow toward magic length)
        if (data.size() < max_len)
          data.push_back(static_cast<std::uint8_t>(next()));
        break;
      case 4:  // truncate
        if (data.size() > 1) data.resize(1 + next() % (data.size() - 1));
        break;
      case 5:  // splice: overwrite a run with another corpus entry's bytes
        if (corpus.size() == 0) break;
        corpus.copy_prefix(next() % corpus.size(), data.data() + pos,
                           data.size() - pos);
        break;
    }
  }
  if (data.size() > max_len) data.resize(max_len);
}

// --- campaign ---------------------------------------------------------------

namespace {

bool is_crash(emu::StopReason r) {
  switch (r) {
    case emu::StopReason::Breakpoint:
    case emu::StopReason::IllegalInsn:
    case emu::StopReason::BadFetch:
    case emu::StopReason::BadSyscall:
      return true;
    default:
      return false;
  }
}

}  // namespace

/// Everything one shard owns: a private guest, its snapshot, a private
/// RNG/mutation stream, reused input and map buffers, and a private metric
/// namespace — workers share only the corpus, the global coverage set and
/// the result under their own locks.
struct Campaign::Worker {
  emu::Machine m;
  emu::Machine::Snapshot snap;
  Mutator mut;
  std::vector<std::uint8_t> base;   ///< the corpus entry being mutated
  std::vector<std::uint8_t> input;  ///< this exec's test case
  std::vector<std::uint8_t> map;
  // Plain tallies, so an exec pays no atomic add; publish() adds their
  // growth to the worker's own counters.
  WorkerStats stats, published;
  obs::StatIds<WorkerStats> ids;

  Worker(std::uint64_t seed, const std::string& prefix, unsigned widx)
      : mut(seed),
        map(kMapSize),
        ids(obs::register_stats<WorkerStats>(prefix + ".w" +
                                             std::to_string(widx) + ".")) {}

  void publish() { obs::publish(ids, stats, published); }
};

Campaign::Campaign(const symtab::Symtab& target, CampaignOptions opts)
    : opts_(std::move(opts)), woven_(weave_coverage(target)) {
  const symtab::Symbol* in = woven_.binary.find_symbol("fuzz_input");
  const symtab::Symbol* len = woven_.binary.find_symbol("fuzz_len");
  if (in == nullptr || len == nullptr)
    throw Error("fuzz: target must export fuzz_input and fuzz_len symbols");
  if (woven_.trap_entries != 0)
    throw Error(
        "fuzz: coverage weaving needed trap springboards; every woven block "
        "would stop as Breakpoint and mask real crashes (move the patch "
        "area into jal range)");
  input_addr_ = in->value;
  len_addr_ = len->value;
  if (in->size != 0 && in->size < opts_.max_input_len)
    opts_.max_input_len = in->size;
  if (opts_.workers < 1) opts_.workers = 1;
}

Campaign::~Campaign() = default;

void Campaign::add_seed(std::vector<std::uint8_t> input) {
  if (input.size() > opts_.max_input_len) input.resize(opts_.max_input_len);
  seeds_.push_back(std::move(input));
}

bool Campaign::claim_exec(std::uint64_t* exec_no) {
  std::uint64_t n = execs_.load(std::memory_order_relaxed);
  do {
    if (n >= opts_.max_execs || stop_.load(std::memory_order_acquire))
      return false;
  } while (!execs_.compare_exchange_weak(n, n + 1, std::memory_order_relaxed));
  *exec_no = n + 1;
  return true;
}

bool Campaign::execute_one(Worker& w, const std::vector<std::uint8_t>& input,
                           std::uint64_t exec_no) {
  w.stats.reset_pages += w.m.reset_to_snapshot(w.snap).pages_restored;
  emu::Memory& mem = w.m.memory();
  // Scratch slots are dirty-exempt (not restored); re-zero them so the
  // first woven block of this run starts a fresh edge chain.
  mem.write(kPrevAddr, 0, 8);
  mem.write(kNewEdgesAddr, 0, 8);
  if (!input.empty()) mem.write_bytes(input_addr_, input.data(), input.size());
  mem.write(len_addr_, input.size(), 8);

  w.m.run(opts_.exec_step_budget);
  const emu::StopReason stop = w.m.last_stop();
  ++w.stats.execs;

  if (is_crash(stop)) {
    ++w.stats.crashes;
    std::lock_guard lock(result_mu_);
    // Keep the first crash's full postmortem; later duplicates only count.
    if (result_.crashes.empty()) {
      CrashReport cr;
      cr.input = input;
      cr.reason = stop;
      cr.pc = w.m.pc();
      cr.found_at_exec = exec_no;
      cr.postmortem = obs::postmortem_report(w.m, woven_.code(), stop);
      result_.crashes.push_back(std::move(cr));
    }
    if (opts_.stop_on_crash) stop_.store(true, std::memory_order_release);
  } else if (stop == emu::StopReason::Running) {
    ++w.stats.hangs;
    std::lock_guard lock(result_mu_);
    ++result_.hangs;
  }

  // Guest-side novelty gate: only consult the (mutex-guarded) global set
  // when this run lit at least one local map slot for the first time. Lit
  // slots never read 0 again (see edge_snippet), so with one worker every
  // scan admits an input.
  if (mem.read(kNewEdgesAddr, 8) == 0) return false;
  ++w.stats.novelty_scans;
  read_map(w.m, w.map.data());
  const unsigned fresh = global_.merge(w.map.data());
  if (fresh == 0) return false;
  ++w.stats.corpus_admits;
  corpus_.add(input, fresh);
  if (opts_.collect_curve) {
    std::lock_guard lock(result_mu_);
    result_.coverage_curve.emplace_back(exec_no, global_.edges_seen());
  }
  return true;
}

void Campaign::run_worker(unsigned widx) {
  Worker& w = *workers_[widx];
  // Each pass mutates one corpus entry for batch × energy rounds, then
  // draws the next entry by energy-weighted pick. Inputs admitted along the
  // way are reachable only through later picks.
  for (std::size_t idx = widx % corpus_.size();;
       idx = corpus_.pick(w.mut.next())) {
    const unsigned rounds =
        opts_.batch * Corpus::energy(corpus_.copy_entry(idx, w.base));
    for (unsigned i = 0; i < rounds; ++i) {
      std::uint64_t exec_no = 0;
      if (!claim_exec(&exec_no)) {
        w.publish();
        return;
      }
      w.input.assign(w.base.begin(), w.base.end());
      w.mut.mutate(w.input, corpus_, opts_.max_input_len);
      execute_one(w, w.input, exec_no);
    }
  }
}

const WorkerStats& Campaign::worker_stats(unsigned i) const {
  return workers_.at(i)->stats;
}

CampaignResult Campaign::run() {
  // Namespace-scoped reset: clear this campaign's counters (and nothing
  // else) so back-to-back campaigns in one process never accumulate.
  obs::Registry::instance().reset(opts_.metrics_prefix + ".");
  result_ = CampaignResult{};
  execs_.store(0);
  stop_.store(false);

  workers_.clear();
  for (unsigned i = 0; i < opts_.workers; ++i) {
    auto w = std::make_unique<Worker>(opts_.seed * 0x9E3779B97F4A7C15ULL + i,
                                      opts_.metrics_prefix, i);
    attach_coverage(w->m, woven_);
    w->snap = w->m.take_snapshot();
    workers_.push_back(std::move(w));
  }

  // Calibration: run each seed unmutated on worker 0 so the corpus starts
  // with measured novelty (and the curve starts at the seeds' coverage).
  if (seeds_.empty()) seeds_.push_back({});
  for (const auto& s : seeds_)
    if (!execute_one(*workers_[0], s, ++execs_) && corpus_.size() == 0)
      corpus_.add(s, 0);  // keep at least one schedulable entry
  workers_[0]->publish();

  run_on_workers(opts_.workers, [this](unsigned widx) { run_worker(widx); });

  result_.execs = execs_.load();
  result_.corpus_size = corpus_.size();
  result_.edges_covered = global_.edges_seen();
  obs::Registry::instance().set_gauge(
      obs::Registry::instance().register_metric(
          opts_.metrics_prefix + ".edges_covered", obs::MetricKind::Gauge),
      result_.edges_covered);
  obs::Registry::instance().set_gauge(
      obs::Registry::instance().register_metric(
          opts_.metrics_prefix + ".corpus_size", obs::MetricKind::Gauge),
      result_.corpus_size);
  return result_;
}

}  // namespace rvdyn::fuzz
