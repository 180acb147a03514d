// Shard-space partitioning and the fleet merge.
//
// A sharded campaign splits one trial plan (app, runs, seed, policy) across
// N workers: worker i runs exactly the global trial indices with
// index % N == i, in seed order. Because every worker derives the identical
// seed sequence (Campaign::DeriveTrialSeeds) and trials are pure functions
// of their run_seed, the partition is deterministic, disjoint, and complete
// — and feeding the per-shard records in global seed order to the same
// CommitCursor every Campaign commits through reproduces the unsharded
// report byte for byte, early stop included (the stop prefix is re-evaluated
// here, in global order, which is why shard workers themselves never stop
// early).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace chaser::campaign {

struct ShardSpec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
};

/// Parse "i/N" (e.g. "0/4"). Throws ConfigError unless N > 0 and i < N.
ShardSpec ParseShardSpec(const std::string& spec);

/// The global trial indices shard `spec` owns, ascending. The unsharded 0/1
/// spec yields the identity sequence 0..runs-1.
std::vector<std::uint64_t> ShardTrialIndices(std::uint64_t runs,
                                             const ShardSpec& spec);

/// The campaign plan a merge reconstructs results against. Must match what
/// every shard worker ran (same app label, runs, seed, policy, stop rule).
struct MergePlan {
  std::string app;
  std::uint64_t runs = 0;
  std::uint64_t seed = 0;
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  double stop_ci = 0.0;
  bool keep_records = true;
};

/// Merge per-shard trial records into the result an unsharded run of `plan`
/// would have produced. `shard_records` is the concatenation of every
/// shard's records (any order — they are re-keyed by run_seed). Throws
/// ConfigError on a duplicate run_seed (two shards ran the same trial, or
/// one CSV was passed twice) or on a seed the plan needs that no shard
/// provided (a shard's records are incomplete) — except past the early-stop
/// point, where missing trials are expected.
CampaignResult MergeShardRecords(const MergePlan& plan,
                                 const std::vector<RunRecord>& shard_records);

/// One shard's records as a pull stream, in the shard's own (seed-order)
/// sequence: fills `*out` and returns true, or returns false at the end.
using ShardRecordStream = std::function<bool(RunRecord*)>;

/// Streaming MergeShardRecords: byte-identical result, bounded memory.
/// `streams[i]` must yield shard i's records in order — because shard i owns
/// exactly the global trial indices with index % N == i, the global seed
/// order is a round-robin over the streams, so the merge pulls one record at
/// a time and never materializes a shard's record set. Each pulled record's
/// run_seed is verified against the plan's derived seed sequence; a mismatch
/// (duplicate, missing, or mis-ordered trial) is a ConfigError. `sink`, when
/// set, sees every committed record in global seed order — the hook a merged
/// CTR store or streaming CSV export hangs off.
CampaignResult MergeShardStreams(
    const MergePlan& plan, std::vector<ShardRecordStream> streams,
    const std::function<void(const RunRecord&)>& sink = nullptr);

// ---------------------------------------------------------------------------
// Fleet observability: shard status parsing and the live rollup.
// ---------------------------------------------------------------------------

/// One shard worker's status as parsed from its status.json file or its
/// /status scrape body (the same document either way — see obs/status.h).
struct ShardStatus {
  bool ok = false;       // parsed; every other field is garbage when false
  bool running = false;  // worker still mid-campaign
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t replayed = 0;
  std::uint64_t benign = 0;
  std::uint64_t terminated = 0;
  std::uint64_t sdc = 0;
  std::uint64_t infra = 0;
  std::uint64_t taint_lost = 0;
  std::uint64_t trace_dropped = 0;
  double elapsed_s = 0.0;
  double trials_per_s = 0.0;
  /// eta_known=false mirrors a JSON-null eta_s: the shard has trials left
  /// but no throughput sample yet, so its remaining time is unknown (not 0).
  bool eta_known = false;
  double eta_s = 0.0;
  /// "host:port" of the worker's scrape server ("" when it runs without
  /// one) — how the coordinator upgrades from file polling to live scrapes.
  std::string obs_endpoint;
};

/// Parse a status.json document. Unparseable input yields ok=false rather
/// than a throw: a shard that has not written its first status yet is a
/// normal, transient condition for the rollup, not an error.
ShardStatus ParseShardStatus(const std::string& json);

/// The fleet-wide aggregate of whatever shards are reporting.
struct FleetRollup {
  std::uint64_t shards = 0;            // statuses passed in
  std::uint64_t shards_reporting = 0;  // of those, ok == true
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t replayed = 0;
  std::uint64_t benign = 0;
  std::uint64_t terminated = 0;
  std::uint64_t sdc = 0;
  std::uint64_t infra = 0;
  std::uint64_t taint_lost = 0;
  std::uint64_t trace_dropped = 0;
  double trials_per_s = 0.0;  // sum of per-shard rates
  /// Fleet ETA is the slowest shard's ETA — but only when every shard is
  /// reporting AND has a known ETA. One unknown shard makes the fleet ETA
  /// unknown (JSON null), never an optimistic partial max: folding unknown
  /// in as 0 is exactly the lie the null-for-unknown contract forbids.
  bool eta_known = false;
  double eta_s = 0.0;
  /// Outcome mix over completed trials (0.0 when done == 0).
  double benign_rate = 0.0;
  double terminated_rate = 0.0;
  double sdc_rate = 0.0;
  double infra_rate = 0.0;
};

/// Aggregate shard statuses (one entry per shard, ok=false for shards with
/// nothing to report yet) into the fleet view described above.
FleetRollup RollUpShards(const std::vector<ShardStatus>& statuses);

}  // namespace chaser::campaign
