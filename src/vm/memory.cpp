#include "vm/memory.h"

#include <algorithm>
#include <cstring>

namespace chaser::vm {

void GuestMemory::AppendRun(const Snapshot::MapRun& run) {
  // Grow the directory and allocate leaves up front so the insert loop below
  // is pure array stores.
  const std::uint64_t last_leaf = (run.vpage + run.pages - 1) >> kLeafBits;
  if (last_leaf >= dir_.size()) dir_.resize(last_leaf + 1);
  for (std::uint64_t d = run.vpage >> kLeafBits; d <= last_leaf; ++d) {
    if (dir_[d] == nullptr) {
      dir_[d] = std::make_unique<Leaf>();
      dir_[d]->frames.fill(kNoFrame);
    }
  }
  for (std::uint32_t i = 0; i < run.pages; ++i) {
    const std::uint64_t vp = run.vpage + i;
    dir_[vp >> kLeafBits]->frames[vp & (kLeafPages - 1)] = run.frame + i;
  }
  frames_.resize(frames_.size() + run.pages);
  // Runs cover the frames in order, so a run continues the last one exactly
  // when its vpages do.
  if (!runs_.empty() && runs_.back().vpage + runs_.back().pages == run.vpage) {
    runs_.back().pages += run.pages;
  } else {
    runs_.push_back(run);
  }
}

void GuestMemory::MapRegion(GuestAddr vaddr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = vaddr >> kPageBits;
  const std::uint64_t last = (vaddr + bytes - 1) >> kPageBits;
  // Demand-zero: only the frame index is assigned here. Storage comes on
  // first translation (TranslateSlow), so a 1 MiB stack or a large brk costs
  // one pointer per page until the guest touches it.
  for (std::uint64_t vp = first; vp <= last;) {
    std::uint64_t end = vp;
    while (end <= last && FrameIndex(end) == kNoFrame) ++end;
    if (end > vp) {
      AppendRun({vp, static_cast<std::uint32_t>(frames_.size()),
                 static_cast<std::uint32_t>(end - vp)});
    }
    vp = end + 1;  // `end` is mapped already (or past the region)
  }
  // No TLB flush: the TLB caches only positive entries, newly-mapped pages
  // cannot be cached yet, and a frame's index (its paddr) never changes once
  // assigned — backing it later does not move it. Only Restore unmaps, and
  // it resets the TLB.
}

void GuestMemory::ReleaseBacked() {
  for (const std::uint32_t f : backed_) spare_.push_back(std::move(frames_[f]));
  backed_.clear();
}

void GuestMemory::FlushTlb() {
  if (tlb_fills_ > kTlbFillCap) {
    tlb_.fill(TlbEntry{});
  } else {
    for (std::size_t i = 0; i < tlb_fills_; ++i) tlb_[tlb_filled_[i]] = TlbEntry{};
  }
  tlb_fills_ = 0;
}

bool GuestMemory::IsMapped(GuestAddr vaddr) const {
  return FrameIndex(vaddr >> kPageBits) != kNoFrame;
}

std::unique_ptr<std::uint8_t[]> GuestMemory::TakePage() const {
  if (spare_.empty()) {
    return std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
  }
  std::unique_ptr<std::uint8_t[]> page = std::move(spare_.back());
  spare_.pop_back();
  return page;
}

std::optional<PhysAddr> GuestMemory::TranslateSlow(GuestAddr vaddr,
                                                   std::uint64_t vpage) const {
  ++tlb_misses_;
  // Wild vpages (injected pointer corruption makes arbitrary 64-bit
  // addresses) fall out of the directory bounds check inside FrameIndex and
  // read as unmapped, exactly like a hash miss did.
  const std::uint32_t frame = FrameIndex(vpage);
  if (frame == kNoFrame) return std::nullopt;
  if (frames_[frame] == nullptr) {
    // First touch: back the page with zeros. The TLB is filled only below,
    // so a TLB hit always names a backed frame.
    frames_[frame] = TakePage();
    std::memset(frames_[frame].get(), 0, kPageSize);
    backed_.push_back(frame);
  }
  const PhysAddr frame_base = static_cast<PhysAddr>(frame) * kPageSize;
  FillTlb(vpage, frame_base);
  return frame_base + (vaddr & kPageMask);
}

std::uint64_t GuestMemory::Snapshot::Bytes() const {
  return sizeof(Snapshot) + map.size() * sizeof(MapRun) +
         page_frame.size() * sizeof(std::uint32_t) + page_bytes.size() +
         tlb.size() * sizeof(tlb[0]);
}

void GuestMemory::Save(Snapshot* out) const {
  *out = Snapshot{};
  out->map = runs_;
  out->frames = frames_.size();
  out->page_frame = backed_;
  std::sort(out->page_frame.begin(), out->page_frame.end());
  out->page_bytes.reserve(backed_.size() * kPageSize);
  for (const std::uint32_t f : out->page_frame) {
    out->page_bytes.insert(out->page_bytes.end(), frames_[f].get(),
                           frames_[f].get() + kPageSize);
  }
  for (const TlbEntry& e : tlb_) {
    if (e.vpage != TlbEntry{}.vpage) out->tlb.emplace_back(e.vpage, e.frame_base);
  }
  out->tlb_hits = tlb_hits_;
  out->tlb_misses = tlb_misses_;
}

std::uint64_t GuestMemory::SharedFrames(
    const std::vector<Snapshot::MapRun>& map) const {
  // Both lists are maximal runs in frame order starting at frame 0, so they
  // agree run for run up to the first run that differs; within that run the
  // shorter length still agrees.
  std::uint64_t shared = 0;
  for (std::size_t i = 0; i < runs_.size() && i < map.size(); ++i) {
    if (runs_[i].vpage != map[i].vpage) break;
    shared += std::min(runs_[i].pages, map[i].pages);
    if (runs_[i].pages != map[i].pages) break;
  }
  return shared;
}

void GuestMemory::UnmapFrom(std::uint64_t keep) {
  while (!runs_.empty() && runs_.back().frame + runs_.back().pages > keep) {
    Snapshot::MapRun& run = runs_.back();
    const std::uint32_t from =
        keep > run.frame ? static_cast<std::uint32_t>(keep - run.frame) : 0;
    // These pages are mapped, so their leaves exist.
    for (std::uint32_t i = from; i < run.pages; ++i) {
      const std::uint64_t vp = run.vpage + i;
      dir_[vp >> kLeafBits]->frames[vp & (kLeafPages - 1)] = kNoFrame;
    }
    if (from == 0) {
      runs_.pop_back();
    } else {
      run.pages = from;
    }
  }
  frames_.resize(keep);
}

void GuestMemory::Restore(const Snapshot& snap) {
  ReleaseBacked();
  const std::uint64_t keep = SharedFrames(snap.map);
  UnmapFrom(keep);
  for (const Snapshot::MapRun& run : snap.map) {
    if (run.frame + run.pages <= keep) continue;
    const std::uint32_t skip =
        keep > run.frame ? static_cast<std::uint32_t>(keep - run.frame) : 0;
    AppendRun({run.vpage + skip, run.frame + skip, run.pages - skip});
  }
  for (std::size_t i = 0; i < snap.page_frame.size(); ++i) {
    std::unique_ptr<std::uint8_t[]>& frame = frames_[snap.page_frame[i]];
    frame = TakePage();
    std::memcpy(frame.get(), snap.page_bytes.data() + i * kPageSize, kPageSize);
    backed_.push_back(snap.page_frame[i]);
  }
  FlushTlb();
  for (const auto& [vpage, frame_base] : snap.tlb) FillTlb(vpage, frame_base);
  tlb_hits_ = snap.tlb_hits;
  tlb_misses_ = snap.tlb_misses;
}

std::optional<std::uint64_t> GuestMemory::Load(GuestAddr vaddr,
                                               std::uint32_t size,
                                               PhysAddr* paddr_out) {
  const auto paddr = Translate(vaddr);
  if (!paddr) return std::nullopt;
  if (paddr_out != nullptr) *paddr_out = *paddr;
  // Fast path: the access does not cross a page boundary.
  if ((vaddr & kPageMask) + size <= kPageSize) {
    std::uint64_t v = 0;
    std::memcpy(&v, FramePtr(*paddr), size);
    return v;
  }
  // Slow path: byte-by-byte across pages.
  std::uint64_t v = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto pa = Translate(vaddr + i);
    if (!pa) return std::nullopt;
    v |= static_cast<std::uint64_t>(*FramePtr(*pa)) << (8 * i);
  }
  return v;
}

bool GuestMemory::Store(GuestAddr vaddr, std::uint32_t size,
                        std::uint64_t value, PhysAddr* paddr_out) {
  const auto paddr = Translate(vaddr);
  if (!paddr) return false;
  if (paddr_out != nullptr) *paddr_out = *paddr;
  if ((vaddr & kPageMask) + size <= kPageSize) {
    std::memcpy(FramePtr(*paddr), &value, size);
    return true;
  }
  // Verify all bytes are mapped before writing any (no partial stores).
  for (std::uint32_t i = 0; i < size; ++i) {
    if (!Translate(vaddr + i)) return false;
  }
  for (std::uint32_t i = 0; i < size; ++i) {
    *FramePtr(*Translate(vaddr + i)) = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return true;
}

bool GuestMemory::ReadBytes(GuestAddr vaddr, void* dst, std::uint64_t n) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t done = 0;
  while (done < n) {
    const auto paddr = Translate(vaddr + done);
    if (!paddr) return false;
    const std::uint64_t in_page = kPageSize - ((vaddr + done) & kPageMask);
    const std::uint64_t chunk = std::min(in_page, n - done);
    std::memcpy(out + done, FramePtr(*paddr), chunk);
    done += chunk;
  }
  return true;
}

bool GuestMemory::WriteBytes(GuestAddr vaddr, const void* src, std::uint64_t n) {
  const auto* in = static_cast<const std::uint8_t*>(src);
  // Check the whole range first so a fault never leaves a partial write.
  for (std::uint64_t off = 0; off < n; off += kPageSize) {
    if (!IsMapped(vaddr + off)) return false;
  }
  if (n > 0 && !IsMapped(vaddr + n - 1)) return false;
  std::uint64_t done = 0;
  while (done < n) {
    const auto paddr = Translate(vaddr + done);
    const std::uint64_t in_page = kPageSize - ((vaddr + done) & kPageMask);
    const std::uint64_t chunk = std::min(in_page, n - done);
    std::memcpy(FramePtr(*paddr), in + done, chunk);
    done += chunk;
  }
  return true;
}

}  // namespace chaser::vm
