// Paged guest memory with a soft-MMU (QEMU's softmmu equivalent).
//
// Guest virtual pages map to physical frames when the loader / brk maps a
// region. Accesses to unmapped pages produce a page fault that the
// execution engine turns into the guest-visible SIGSEGV analogue — this is
// how injected pointer corruptions become "OS exception" terminations.
// Physical addresses are exposed because the taint shadow and the paper's
// propagation log are keyed by them.
//
// Memory is demand-zero: mapping a region assigns each page its frame index
// (and therefore its paddr) immediately, but the 4 KiB of storage behind a
// frame is only allocated when the page is first translated. An unbacked
// page reads as zero, exactly like a freshly backed one, so backing is
// invisible to the guest — it only decides which pages cost host memory
// (and which pages a checkpoint must copy).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace chaser::vm {

inline constexpr std::uint64_t kPageBits = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageBits;
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

class GuestMemory {
 public:
  GuestMemory() = default;

  // Non-copyable (owns frames), movable.
  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;
  GuestMemory(GuestMemory&&) = default;
  GuestMemory& operator=(GuestMemory&&) = default;

  /// Map all pages covering [vaddr, vaddr + bytes), zero-filled. Frame
  /// indices are assigned now, in ascending page order; storage is not.
  /// Already-mapped pages are left untouched.
  void MapRegion(GuestAddr vaddr, std::uint64_t bytes);

  /// Drop every mapping, as for a fresh process: TLB entries and counters
  /// reset, and backing pages are kept aside for reuse by later mappings.
  void Clear();

  /// True if the byte at `vaddr` is mapped (backed or not).
  bool IsMapped(GuestAddr vaddr) const;

  /// Virtual -> physical translation; nullopt on unmapped page. Backs the
  /// page on first translation, so every returned paddr has storage.
  ///
  /// Hot path: a small direct-mapped software TLB (QEMU's victim-TLB shape,
  /// minus the victim) sits in front of the radix page table. A hit costs
  /// one compare; misses fill the slot. The TLB caches only positive
  /// entries, so fault behaviour is identical to a page-table walk.
  std::optional<PhysAddr> Translate(GuestAddr vaddr) const {
    const std::uint64_t vpage = vaddr >> kPageBits;
    const TlbEntry& e = tlb_[vpage & (kTlbEntries - 1)];
    if (e.vpage == vpage) {
      ++tlb_hits_;
      return e.frame_base + (vaddr & kPageMask);
    }
    return TranslateSlow(vaddr, vpage);
  }

  /// Load `size` (1/2/4/8) bytes little-endian. Returns nullopt on fault
  /// (any byte unmapped); `paddr_out` receives the physical address of the
  /// first byte on success.
  ///
  /// Deliberately out of line: an earlier version inlined a fused
  /// TLB-probe + memcpy fast path into every interpreter load/store handler,
  /// and measurement showed the code bloat cost more than the saved call on
  /// every workload once the radix page table made TranslateSlow two array
  /// loads (lud campaigns ran ~15% slower with the fused path).
  std::optional<std::uint64_t> Load(GuestAddr vaddr, std::uint32_t size,
                                    PhysAddr* paddr_out);

  /// Store the low `size` bytes of `value`. False on fault; a faulting
  /// store writes nothing (no partial stores).
  bool Store(GuestAddr vaddr, std::uint32_t size, std::uint64_t value,
             PhysAddr* paddr_out);

  /// Bulk copy out of guest memory. False if any byte is unmapped.
  bool ReadBytes(GuestAddr vaddr, void* dst, std::uint64_t n) const;

  /// Bulk copy into guest memory. False if any byte is unmapped.
  bool WriteBytes(GuestAddr vaddr, const void* src, std::uint64_t n);

  /// Pages with a frame index (mapped), and the subset with storage.
  std::uint64_t mapped_pages() const { return frames_.size(); }
  std::uint64_t backed_pages() const { return backed_; }

  /// Drop every cached translation (called on any mapping change).
  void FlushTlb() { tlb_.fill(TlbEntry{}); }

  std::uint64_t tlb_hits() const { return tlb_hits_; }
  std::uint64_t tlb_misses() const { return tlb_misses_; }

  /// Everything Restore needs to reproduce this memory exactly: the page
  /// table, the contents of the backed pages only, and the live TLB entries
  /// with the hit/miss counters (which trial records report).
  struct Snapshot {
    /// The page table as runs of consecutive vpages mapped to consecutive
    /// frames (each MapRegion call leaves one run per region).
    struct MapRun {
      std::uint64_t vpage = 0;
      std::uint32_t frame = 0;
      std::uint32_t pages = 0;
    };
    std::vector<MapRun> map;
    std::uint64_t frames = 0;                // mapped pages (frame count)
    std::vector<std::uint32_t> page_frame;   // frame index of each backed page
    std::vector<std::uint8_t> page_bytes;    // kPageSize bytes each
    std::vector<std::pair<std::uint64_t, PhysAddr>> tlb;  // (vpage, frame base)
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;

    /// Host bytes the snapshot occupies (for checkpoint budgets).
    std::uint64_t Bytes() const;
  };
  void Save(Snapshot* out) const;
  /// Replace the whole memory by `snap`, TLB entries and counters included.
  void Restore(const Snapshot& snap);

 private:
  struct TlbEntry {
    std::uint64_t vpage = ~0ull;  // ~0 never matches: vaddrs are < 2^52 pages
    PhysAddr frame_base = 0;      // paddr of the frame's first byte
  };
  // Power of two. 1024 slots cover lud-sized working sets (a few hundred
  // guest pages) without conflict thrash; at 16 B/entry the table still sits
  // comfortably in L2.
  static constexpr std::size_t kTlbEntries = 1024;

  std::optional<PhysAddr> TranslateSlow(GuestAddr vaddr,
                                        std::uint64_t vpage) const;

  /// Storage for one page, recycled from `spare_` when possible; contents
  /// are unspecified.
  std::unique_ptr<std::uint8_t[]> TakePage() const;

  std::uint8_t* FramePtr(PhysAddr paddr) {
    return frames_[paddr >> kPageBits].get() + (paddr & kPageMask);
  }
  const std::uint8_t* FramePtr(PhysAddr paddr) const {
    return frames_[paddr >> kPageBits].get() + (paddr & kPageMask);
  }

  // vpage index -> frame index, as a two-level direct-mapped table (a radix
  // page table, not a hash): leaf arrays of 512 entries allocated on demand,
  // indexed by a growable directory. Guest addresses top out just above
  // kStackTop (~2^19 pages), so the directory stays tiny while lookups and
  // inserts are two array indexations — the former unordered_map here was a
  // top campaign-profile entry (trial engines rebuild guest memory
  // thousands of times, and every TLB miss lands here).
  // paddr = frame_index * kPageSize + offset.
  static constexpr std::uint64_t kLeafBits = 9;  // 512 pages = 2 MiB per leaf
  static constexpr std::uint64_t kLeafPages = 1ull << kLeafBits;
  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};
  struct Leaf {
    std::array<std::uint32_t, kLeafPages> frames;
  };
  /// Frame index of `vpage`, or kNoFrame when unmapped.
  std::uint32_t FrameIndex(std::uint64_t vpage) const {
    const std::uint64_t d = vpage >> kLeafBits;
    if (d >= dir_.size() || dir_[d] == nullptr) return kNoFrame;
    return dir_[d]->frames[vpage & (kLeafPages - 1)];
  }

  std::vector<std::unique_ptr<Leaf>> dir_;
  // Frame index -> storage, null until the page is first translated.
  // `mutable` because backing happens inside the const Translate: it is
  // invisible to every reader (an unbacked page reads as zero).
  mutable std::vector<std::unique_ptr<std::uint8_t[]>> frames_;
  mutable std::vector<std::unique_ptr<std::uint8_t[]>> spare_;
  mutable std::uint64_t backed_ = 0;

  // Direct-mapped translation cache. `mutable` because Translate is
  // semantically const; the TLB is pure memoisation.
  mutable std::array<TlbEntry, kTlbEntries> tlb_{};
  mutable std::uint64_t tlb_hits_ = 0;
  mutable std::uint64_t tlb_misses_ = 0;
};

}  // namespace chaser::vm
