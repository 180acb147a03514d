#include "vm/memory.h"

#include <algorithm>
#include <cstring>

namespace chaser::vm {

void GuestMemory::MapRegion(GuestAddr vaddr, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = vaddr >> kPageBits;
  const std::uint64_t last = (vaddr + bytes - 1) >> kPageBits;
  // Grow the directory and allocate leaves up front so the insert loop below
  // is pure array stores.
  const std::uint64_t last_leaf = last >> kLeafBits;
  if (last_leaf >= dir_.size()) dir_.resize(last_leaf + 1);
  for (std::uint64_t d = first >> kLeafBits; d <= last_leaf; ++d) {
    if (dir_[d] == nullptr) {
      dir_[d] = std::make_unique<Leaf>();
      dir_[d]->frames.fill(kNoFrame);
    }
  }
  // Demand-zero: only the frame index is assigned here. Storage comes on
  // first translation (TranslateSlow), so a 1 MiB stack or a large brk costs
  // one pointer per page until the guest touches it.
  for (std::uint64_t vp = first; vp <= last; ++vp) {
    std::uint32_t& slot = dir_[vp >> kLeafBits]->frames[vp & (kLeafPages - 1)];
    if (slot != kNoFrame) continue;
    slot = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  // No TLB flush: the TLB caches only positive entries, newly-mapped pages
  // cannot be cached yet, and a frame's index (its paddr) never changes once
  // assigned — backing it later does not move it. The moment unmap/remap
  // exists this must flush.
}

void GuestMemory::Clear() {
  for (auto& frame : frames_) {
    if (frame != nullptr) spare_.push_back(std::move(frame));
  }
  frames_.clear();
  dir_.clear();
  backed_ = 0;
  FlushTlb();
  tlb_hits_ = 0;
  tlb_misses_ = 0;
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
    ++backed_;
  }
  const PhysAddr frame_base = static_cast<PhysAddr>(frame) * kPageSize;
  tlb_[vpage & (kTlbEntries - 1)] = TlbEntry{vpage, frame_base};
  return frame_base + (vaddr & kPageMask);
}

std::uint64_t GuestMemory::Snapshot::Bytes() const {
  return sizeof(Snapshot) + map.size() * sizeof(MapRun) +
         page_frame.size() * sizeof(std::uint32_t) + page_bytes.size() +
         tlb.size() * sizeof(tlb[0]);
}

void GuestMemory::Save(Snapshot* out) const {
  *out = Snapshot{};
  for (std::uint64_t d = 0; d < dir_.size(); ++d) {
    if (dir_[d] == nullptr) continue;
    for (std::uint64_t i = 0; i < kLeafPages; ++i) {
      const std::uint32_t frame = dir_[d]->frames[i];
      if (frame == kNoFrame) continue;
      const std::uint64_t vpage = (d << kLeafBits) | i;
      Snapshot::MapRun* run = out->map.empty() ? nullptr : &out->map.back();
      if (run != nullptr && run->vpage + run->pages == vpage &&
          run->frame + run->pages == frame) {
        ++run->pages;
      } else {
        out->map.push_back({vpage, frame, 1});
      }
    }
  }
  out->frames = frames_.size();
  out->page_bytes.reserve(backed_ * kPageSize);
  for (std::uint64_t f = 0; f < frames_.size(); ++f) {
    if (frames_[f] == nullptr) continue;
    out->page_frame.push_back(static_cast<std::uint32_t>(f));
    out->page_bytes.insert(out->page_bytes.end(), frames_[f].get(),
                           frames_[f].get() + kPageSize);
  }
  for (const TlbEntry& e : tlb_) {
    if (e.vpage != TlbEntry{}.vpage) out->tlb.emplace_back(e.vpage, e.frame_base);
  }
  out->tlb_hits = tlb_hits_;
  out->tlb_misses = tlb_misses_;
}

void GuestMemory::Restore(const Snapshot& snap) {
  Clear();
  for (const Snapshot::MapRun& run : snap.map) {
    for (std::uint32_t i = 0; i < run.pages; ++i) {
      const std::uint64_t vpage = run.vpage + i;
      const std::uint64_t d = vpage >> kLeafBits;
      if (d >= dir_.size()) dir_.resize(d + 1);
      if (dir_[d] == nullptr) {
        dir_[d] = std::make_unique<Leaf>();
        dir_[d]->frames.fill(kNoFrame);
      }
      dir_[d]->frames[vpage & (kLeafPages - 1)] = run.frame + i;
    }
  }
  frames_.resize(snap.frames);
  for (std::size_t i = 0; i < snap.page_frame.size(); ++i) {
    std::unique_ptr<std::uint8_t[]>& frame = frames_[snap.page_frame[i]];
    frame = TakePage();
    std::memcpy(frame.get(), snap.page_bytes.data() + i * kPageSize, kPageSize);
  }
  backed_ = snap.page_frame.size();
  for (const auto& [vpage, frame_base] : snap.tlb) {
    tlb_[vpage & (kTlbEntries - 1)] = TlbEntry{vpage, frame_base};
  }
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
