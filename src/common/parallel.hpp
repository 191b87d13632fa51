// Fork-join helpers shared by the parser's parallel phases and the fuzz
// campaign's workers: spawn, run, join. Nothing outlives the call.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace rvdyn {

/// Run `fn(worker_idx)` on `n` workers: n-1 spawned threads plus the
/// calling thread as worker 0. Returns once every worker has returned.
template <typename Fn>
void run_on_workers(unsigned n, Fn&& fn) {
  if (n <= 1) {
    fn(0u);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (unsigned w = 1; w < n; ++w) threads.emplace_back([&fn, w] { fn(w); });
  fn(0u);
  for (auto& t : threads) t.join();
}

/// Call `fn(worker_idx, i)` exactly once for every i in [0, count), on at
/// most `n` workers that claim runs of consecutive indices from one shared
/// cursor. Runs keep neighbouring items, often neighbours in memory, on one
/// worker; they shrink on small counts so that every worker gets several.
/// Returns the workers' summed wait at the join in nanoseconds: for each
/// worker, the time from running out of indices until the last worker
/// finished.
template <typename Fn>
std::uint64_t parallel_for(unsigned n, std::size_t count, Fn&& fn) {
  n = static_cast<unsigned>(std::min<std::size_t>(n, count));
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0u, i);
    return 0;
  }
  using Clock = std::chrono::steady_clock;
  const std::size_t run = std::clamp<std::size_t>(count / (8 * n), 1, 16);
  std::atomic<std::size_t> next{0};
  std::vector<Clock::time_point> done(n);
  run_on_workers(n, [&](unsigned w) {
    for (std::size_t b; (b = next.fetch_add(run, std::memory_order_relaxed)) <
                        count;)
      for (std::size_t i = b, e = std::min(count, b + run); i < e; ++i)
        fn(w, i);
    done[w] = Clock::now();
  });
  const Clock::time_point last = *std::max_element(done.begin(), done.end());
  std::uint64_t idle_ns = 0;
  for (const Clock::time_point t : done)
    idle_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(last - t)
            .count());
  return idle_ns;
}

}  // namespace rvdyn
