// Trial checkpoints: start each trial from its last pre-injection checkpoint
// instead of from boot.
//
// Before its fault fires, a trial does exactly what every other trial
// injecting the same rank does: the trigger only counts targeted executions
// (per pc, for a sampled campaign's site-local trigger), the injector has
// not run, and no taint exists. A CheckpointLadder keeps, per inject rank,
// whole-job checkpoints at Cluster::Run round boundaries spaced
// golden-instructions / kRungs apart. Whichever trial first passes a rung
// before its trigger fires captures it; later trials on that rank restore
// the deepest checkpoint that precedes their own firing point and run only
// the rest. A uniform trial fires at its nth targeted execution, so a rung
// qualifies while its targeted-execution count is below nth; a sampled
// trial fires at the nth execution of one pc, so a rung qualifies while
// that pc's count is below nth. Records, reports and spools are
// byte-identical to running every trial from boot (DESIGN.md, "Demand-zero
// memory and trial checkpoints").
//
// Checkpoints come from a trial's own pre-fire run, not from the golden
// run: golden instruments every inject rank and a trial only one, so TB
// chains and the TLB/chain counters in the records would differ.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "common/types.h"
#include "core/chaser_mpi.h"
#include "mpi/cluster.h"

namespace chaser::campaign {

/// One whole-trial checkpoint, taken at a round boundary before the inject
/// rank's trigger fired.
struct TrialCheckpoint {
  mpi::Cluster::Checkpoint cluster;
  /// Carries the inject rank's targeted-execution count and, in sampled
  /// campaigns, its per-pc site counts.
  core::ChaserMpi::Checkpoint chaser;
};

class CheckpointLadder {
 public:
  /// Rungs per inject rank; rung k sits at the first round boundary at or
  /// past k * golden / kRungs instructions (rung 0 would be the boot).
  static constexpr std::size_t kRungs = 8;
  /// Host memory one engine's ladder may hold. A constant, not a knob: it
  /// bounds the resident cost of the optimisation on every workload.
  static constexpr std::uint64_t kBudgetBytes = 2ull << 20;

  explicit CheckpointLadder(std::uint64_t golden_instructions);

  /// Deepest checkpoint of `rank` that precedes a trigger firing at the
  /// `nth` targeted execution or, with `pc` set, at the nth execution of
  /// that pc; null if none does.
  const TrialCheckpoint* Deepest(Rank rank, std::uint64_t nth,
                                 std::optional<std::uint64_t> pc) const;

  /// The empty rung a round boundary at `instructions` falls on, if the
  /// ladder still takes captures.
  std::optional<std::size_t> OpenRung(Rank rank,
                                      std::uint64_t instructions) const;

  /// Store a capture for `rung`. Returns false, and takes no further
  /// captures, when it would exceed kBudgetBytes.
  bool Add(Rank rank, std::size_t rung, std::unique_ptr<TrialCheckpoint> cp);

  /// Stop taking captures (e.g. the job cannot be checkpointed).
  void Close() { closed_ = true; }

  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t spacing_;
  std::map<Rank, std::array<std::unique_ptr<TrialCheckpoint>, kRungs>> rungs_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

}  // namespace chaser::campaign
