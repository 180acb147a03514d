#include "campaign/ladder.h"

#include <algorithm>

namespace chaser::campaign {

CheckpointLadder::CheckpointLadder(std::uint64_t golden_instructions)
    : spacing_(std::max<std::uint64_t>(1, golden_instructions / kRungs)) {}

const TrialCheckpoint* CheckpointLadder::Deepest(
    Rank rank, std::uint64_t nth, std::optional<std::uint64_t> pc) const {
  const auto it = rungs_.find(rank);
  if (it == rungs_.end()) return nullptr;
  // Executions only grow along a run, so the deepest qualifying rung is the
  // last one whose count is below nth. A pc the prefix never executed has
  // count 0 and qualifies every rung.
  const TrialCheckpoint* best = nullptr;
  for (const auto& cp : it->second) {
    if (cp == nullptr) continue;
    const core::Chaser::Checkpoint& c =
        cp->chaser.ranks[static_cast<std::size_t>(rank)];
    std::uint64_t count = c.exec_count;
    if (pc) count = *pc < c.site_execs.size() ? c.site_execs[*pc] : 0;
    if (count < nth) best = cp.get();
  }
  return best;
}

std::optional<std::size_t> CheckpointLadder::OpenRung(
    Rank rank, std::uint64_t instructions) const {
  if (closed_) return std::nullopt;
  const std::uint64_t rung = instructions / spacing_;
  if (rung == 0 || rung >= kRungs) return std::nullopt;
  const auto it = rungs_.find(rank);
  if (it != rungs_.end() && it->second[rung] != nullptr) return std::nullopt;
  return static_cast<std::size_t>(rung);
}

bool CheckpointLadder::Add(Rank rank, std::size_t rung,
                           std::unique_ptr<TrialCheckpoint> cp) {
  std::uint64_t bytes = sizeof(TrialCheckpoint) + cp->cluster.Bytes();
  for (const core::Chaser::Checkpoint& r : cp->chaser.ranks) {
    bytes += sizeof(r) + r.site_execs.size() * sizeof(std::uint64_t) +
             r.taint_timeline.size() * sizeof(core::TaintSample);
  }
  if (bytes_ + bytes > kBudgetBytes) {
    closed_ = true;
    return false;
  }
  bytes_ += bytes;
  rungs_[rank][rung] = std::move(cp);
  return true;
}

}  // namespace chaser::campaign
