// rvdyn::obs stats lists: each layer declares its counters once.
//
// A layer's tallies are one X-macro list with one entry per counter, the
// struct field and its full export name, e.g. (continuation backslashes
// left out)
//
//   #define RVDYN_LAYER_STATS(X)
//     X(hits, "rvdyn.layer.hits")
//     X(misses, "rvdyn.layer.misses")
//   struct LayerStats { RVDYN_STATS(LayerStats, RVDYN_LAYER_STATS) };
//
// RVDYN_STATS gives the struct one plain std::uint64_t field per entry, in
// list order, which the hot path bumps with ++, and entries(), the list as
// (field, name) pairs. obs::publish() walks entries() to add each field's
// growth since the last publish to the registry. Adding a counter is one
// list entry: its field, its publish and its export name all come from it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace rvdyn::obs {

/// One list entry: a counter's field in stats struct `S` and its name.
template <typename S>
struct StatEntry {
  std::uint64_t S::*field;
  const char* name;
};

/// Registry ids of `S`'s counters, in list order.
template <typename S>
using StatIds = std::array<Registry::Id, S::entries().size()>;

/// Register `S`'s counters as `prefix` + each entry's name.
template <typename S>
StatIds<S> register_stats(const std::string& prefix = {}) {
  StatIds<S> ids{};
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = Registry::instance().register_metric(
        prefix + S::entries()[i].name, MetricKind::Counter);
  return ids;
}

/// Add each counter's growth since `last` to the registry through `ids`,
/// then set `last`'s counters to the current values (its other members are
/// left alone). Compiles to nothing when the build sets RVDYN_OBS_ENABLED=0.
template <typename S>
void publish(const StatIds<S>& ids, const S& now, S& last) {
#if RVDYN_OBS_ENABLED
  Registry& r = Registry::instance();
  constexpr auto entries = S::entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto field = entries[i].field;
    if (now.*field != last.*field) r.add(ids[i], now.*field - last.*field);
    last.*field = now.*field;
  }
#else
  (void)ids, (void)now, (void)last;
#endif
}

/// publish() under the list's own names, registered once per process.
template <typename S>
void publish(const S& now, S& last) {
#if RVDYN_OBS_ENABLED
  static const StatIds<S> ids = register_stats<S>();
  publish(ids, now, last);
#else
  (void)now, (void)last;
#endif
}

}  // namespace rvdyn::obs

/// Expands inside the body of stats struct `Self`: a `std::uint64_t` field
/// per entry of `LIST` and the entries() table obs::publish() reads.
#define RVDYN_STATS(Self, LIST)                  \
  LIST(RVDYN_STATS_FIELD_)                       \
  static constexpr auto entries() {              \
    using S_ = Self;                             \
    return std::array{LIST(RVDYN_STATS_ENTRY_)}; \
  }
#define RVDYN_STATS_FIELD_(field, name) std::uint64_t field = 0;
#define RVDYN_STATS_ENTRY_(field, name) \
  ::rvdyn::obs::StatEntry<S_>{&S_::field, name},
