// Sparse paged memory for the emulated RISC-V process.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rvdyn::emu {

/// Byte-addressed sparse memory backed by 4KiB pages allocated on first
/// touch. Unmapped reads return zero only through the checked interfaces;
/// the Machine treats unmapped *instruction fetch* as a fault.
///
/// Snapshot/reset (the fuzzing substrate): snapshot() deep-copies every
/// mapped page and arms dirty tracking; from then on the first store into
/// each page records it in a dirty list, and reset() copies back *only*
/// those pages (plus drops pages first touched after the snapshot, so the
/// mapped footprint — and therefore digest() — round-trips exactly).
/// Pages inside a dirty-exempt range (coverage bitmaps, harness scratch)
/// are never captured, restored, or dropped.
class Memory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ULL << kPageBits;

  bool is_mapped(std::uint64_t addr) const {
    return pages_.count(addr >> kPageBits) != 0;
  }

  /// Pre-map [addr, addr+size) (zero-filled).
  void map(std::uint64_t addr, std::uint64_t size) {
    for (std::uint64_t p = addr >> kPageBits; p <= (addr + size - 1) >> kPageBits;
         ++p)
      rec(p << kPageBits);
  }

  std::uint8_t read8(std::uint64_t addr) {
    return page(addr)[addr & (kPageSize - 1)];
  }
  void write8(std::uint64_t addr, std::uint8_t v) {
    page_w(addr)[addr & (kPageSize - 1)] = v;
  }

  /// Little-endian load of `size` (1/2/4/8) bytes.
  std::uint64_t read(std::uint64_t addr, unsigned size) {
    if (((addr & (kPageSize - 1)) + size) <= kPageSize) {
      const std::uint8_t* p = &page(addr)[addr & (kPageSize - 1)];
      std::uint64_t v = 0;
      std::memcpy(&v, p, size);
      return v;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
      v |= static_cast<std::uint64_t>(read8(addr + i)) << (8 * i);
    return v;
  }

  /// Little-endian store of `size` bytes. A page-straddling store dirties
  /// both pages (the byte loop funnels through write8 -> page_w).
  void write(std::uint64_t addr, std::uint64_t v, unsigned size) {
    if (((addr & (kPageSize - 1)) + size) <= kPageSize) {
      std::uint8_t* p = &page_w(addr)[addr & (kPageSize - 1)];
      std::memcpy(p, &v, size);
      return;
    }
    for (unsigned i = 0; i < size; ++i)
      write8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Bulk store, chunked per page (one dirty mark + one memcpy per page).
  void write_bytes(std::uint64_t addr, const std::uint8_t* data,
                   std::size_t n) {
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t a = addr + i;
      const std::uint64_t off = a & (kPageSize - 1);
      std::size_t chunk = kPageSize - off;
      if (chunk > n - i) chunk = n - i;
      std::memcpy(page_w(a) + off, data + i, chunk);
      i += chunk;
    }
  }
  void read_bytes(std::uint64_t addr, std::uint8_t* data, std::size_t n) {
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t a = addr + i;
      const std::uint64_t off = a & (kPageSize - 1);
      std::size_t chunk = kPageSize - off;
      if (chunk > n - i) chunk = n - i;
      std::memcpy(data + i, page(a) + off, chunk);
      i += chunk;
    }
  }

  /// Host pointer to `addr`'s page data (zero-fill allocating on first
  /// touch, like the load/store path). Pages never move once allocated, so
  /// the pointer stays valid until the page is dropped by reset() — the
  /// JIT's inline TLB caches it per page, and the Machine drops a page's
  /// TLB entries when reset() drops the page.
  std::uint8_t* page_ptr(std::uint64_t addr) { return page(addr); }

  /// Like page_ptr, but records the page as dirty first: the JIT's store
  /// slow path fills its *write* TLB through this, so every page is on the
  /// dirty list before any inline store can bypass Memory::write.
  std::uint8_t* page_ptr_w(std::uint64_t addr) { return page_w(addr); }

  /// Order-independent FNV-1a digest over (page number, page bytes) of
  /// every mapped page. Zero-filled pages contribute, so two memories
  /// compare equal only when their mapped footprints match too. Pass
  /// `include_exempt = false` to skip dirty-exempt pages (harness-owned
  /// state that legitimately diverges across snapshot resets).
  std::uint64_t digest(bool include_exempt = true) const {
    std::uint64_t acc = 0;
    for (const auto& [num, pg] : pages_) {
      if (!include_exempt && pg->exempt) continue;
      std::uint64_t h = 1469598103934665603ULL;
      const auto mix = [&h](std::uint8_t b) {
        h = (h ^ b) * 1099511628211ULL;
      };
      for (unsigned i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(num >> (8 * i)));
      for (std::uint8_t b : pg->bytes) mix(b);
      acc += h;  // commutative combine: iteration order is unspecified
    }
    return acc;
  }

  /// Copy `n` bytes into `data` without allocating pages. Returns false
  /// (leaving `data` unspecified) when any byte of the range is unmapped.
  /// This is the instruction-fetch interface: a fetch must never map pages
  /// as a side effect the way the zero-fill-on-touch read path does.
  bool try_read_bytes(std::uint64_t addr, std::uint8_t* data,
                      std::size_t n) const {
    std::size_t i = 0;
    while (i < n) {
      const auto it = pages_.find((addr + i) >> kPageBits);
      if (it == pages_.end()) return false;
      const std::uint64_t off = (addr + i) & (kPageSize - 1);
      std::size_t chunk = kPageSize - off;
      if (chunk > n - i) chunk = n - i;
      std::memcpy(data + i, it->second->bytes.data() + off, chunk);
      i += chunk;
    }
    return true;
  }

  /// Little-endian load of `size` (1/2/4/8) bytes that never maps a page:
  /// 0 when any byte of the range is unmapped. The read for tools that
  /// must leave the process untouched, such as a stack walker probing a
  /// garbage frame pointer. A range inside one page costs one page lookup
  /// and one copy.
  std::uint64_t peek(std::uint64_t addr, unsigned size) const {
    std::uint64_t v = 0;
    if (size > 8) return 0;
    const std::uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
      const auto it = pages_.find(addr >> kPageBits);
      if (it == pages_.end()) return 0;
      const std::uint8_t* p = it->second->bytes.data() + off;
      if (size == 8) std::memcpy(&v, p, 8);
      else std::memcpy(&v, p, size);
      return v;
    }
    std::uint8_t buf[8];
    if (!try_read_bytes(addr, buf, size)) return 0;
    std::memcpy(&v, buf, size);
    return v;
  }

  /// Host bytes of the page containing `addr`, or nullptr when it is
  /// unmapped. Never maps a page. The pointer stays valid until reset()
  /// drops the page.
  const std::uint8_t* page_data(std::uint64_t addr) const {
    const auto it = pages_.find(addr >> kPageBits);
    return it == pages_.end() ? nullptr : it->second->bytes.data();
  }

  // --- snapshot / dirty-page reset -----------------------------------------

  /// Copy every mapped non-exempt page into its record's snapshot buffer
  /// and arm dirty tracking. A second call replaces the previous snapshot,
  /// reusing the buffers.
  void snapshot() {
    dirty_list_.clear();
    fresh_list_.clear();
    for (auto& [num, pg] : pages_) {
      pg->dirty = false;
      if (pg->exempt) continue;
      if (!pg->snap) pg->snap = std::make_unique<PageBytes>();
      *pg->snap = pg->bytes;
    }
    tracking_ = true;
  }

  bool snapshot_active() const { return tracking_; }

  struct ResetStats {
    std::size_t pages_restored = 0;  ///< dirty pages copied back
    std::size_t pages_dropped = 0;   ///< post-snapshot pages unmapped
  };

  /// Restore the snapshot: copy back only the dirty pages, unmap pages
  /// first touched after snapshot() (so the mapped footprint — and
  /// digest() — matches the snapshot exactly), and clear both lists. The
  /// dirty list holds page records, so a restore is one copy per page and
  /// no lookup. `on_page(num, holds_code, dropped)` runs for each page the
  /// reset cleans or drops, before its bytes change or its record is freed:
  /// the Machine evicts cached code and JIT TLB entries there. Dropping a
  /// page invalidates host pointers previously returned for it.
  template <typename OnPage>
  ResetStats reset(OnPage&& on_page) {
    ResetStats st;
    for (PageRec* r : dirty_list_) {
      r->dirty = false;
      if (!r->snap) continue;  // fresh page, dropped below
      on_page(r->num, r->code, false);
      r->bytes = *r->snap;
      ++st.pages_restored;
    }
    dirty_list_.clear();
    for (const PageRec* r : fresh_list_) {
      const std::uint64_t num = r->num;
      on_page(num, r->code, true);
      pages_.erase(num);  // frees r
      ++st.pages_dropped;
    }
    fresh_list_.clear();
    return st;
  }

  /// Mark [addr, addr+size) as dirty-exempt: pages the snapshot machinery
  /// ignores entirely (allocated here if absent). Used for cumulative
  /// harness state — the fuzzer's coverage bitmap survives every reset.
  void set_dirty_exempt(std::uint64_t addr, std::uint64_t size) {
    if (size == 0) return;
    for (std::uint64_t p = addr >> kPageBits;
         p <= (addr + size - 1) >> kPageBits; ++p) {
      PageRec& r = rec(p << kPageBits);
      r.exempt = true;
      r.dirty = false;
      // Retroactively scrub the page from any tracking state so it is
      // neither restored nor dropped by a later reset().
      r.snap.reset();
      purge(dirty_list_, &r);
      purge(fresh_list_, &r);
    }
  }

  /// Flag `addr`'s page as holding decoded code (no-op when unmapped), so a
  /// reset that restores or drops the page evicts that code first.
  void mark_code(std::uint64_t addr) {
    const auto it = pages_.find(addr >> kPageBits);
    if (it != pages_.end()) it->second->code = true;
  }

  /// Page numbers dirtied since the snapshot (insertion order, exact: one
  /// entry per touched page). Valid while the snapshot is armed.
  std::vector<std::uint64_t> dirty_pages() const {
    return numbers(dirty_list_);
  }
  /// Page numbers first mapped after the snapshot (dropped by reset()).
  std::vector<std::uint64_t> fresh_pages() const {
    return numbers(fresh_list_);
  }

  std::size_t mapped_pages() const { return pages_.size(); }

 private:
  using PageBytes = std::array<std::uint8_t, kPageSize>;
  /// Everything known about one page, found with one lookup.
  struct PageRec {
    PageBytes bytes;
    std::uint64_t num = 0;  ///< guest page number
    /// Contents at the last snapshot(); null for exempt pages and pages
    /// first mapped after it.
    std::unique_ptr<PageBytes> snap;
    bool dirty = false;
    bool exempt = false;
    /// An instruction was decoded from this page (set on the Machine's
    /// icache miss path). Data pages commonly sit between the original
    /// text and the relocated patch area, so only flagged pages pay a
    /// code eviction on restore. Conservative across evictions (the flag
    /// stays until the record is freed), which only costs a redundant
    /// sweep, never a stale block.
    bool code = false;
  };

  static void purge(std::vector<PageRec*>& v, const PageRec* r) {
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v[i] == r) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
  }

  static std::vector<std::uint64_t> numbers(const std::vector<PageRec*>& v) {
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (const PageRec* r : v) out.push_back(r->num);
    return out;
  }

  PageRec& rec(std::uint64_t addr) {
    const std::uint64_t num = addr >> kPageBits;
    auto& p = pages_[num];
    if (!p) {
      p = std::make_unique<PageRec>();
      p->bytes.fill(0);
      p->num = num;
      if (tracking_) fresh_list_.push_back(p.get());
    }
    return *p;
  }

  std::uint8_t* page(std::uint64_t addr) { return rec(addr).bytes.data(); }

  std::uint8_t* page_w(std::uint64_t addr) {
    PageRec& r = rec(addr);
    if (tracking_ && !r.dirty && !r.exempt) {
      r.dirty = true;
      dirty_list_.push_back(&r);
    }
    return r.bytes.data();
  }

  std::unordered_map<std::uint64_t, std::unique_ptr<PageRec>> pages_;
  std::vector<PageRec*> dirty_list_;  ///< dirtied since the snapshot
  std::vector<PageRec*> fresh_list_;  ///< first mapped since the snapshot
  bool tracking_ = false;
};

}  // namespace rvdyn::emu
