#include "campaign/fleet.h"

#include <map>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::campaign {

ShardSpec ParseShardSpec(const std::string& spec) {
  const std::vector<std::string> parts = Split(spec, '/');
  ShardSpec s;
  if (parts.size() != 2 || !ParseU64(parts[0], &s.index) ||
      !ParseU64(parts[1], &s.count)) {
    throw ConfigError("--shard: expected I/N (e.g. 0/4), got '" + spec + "'");
  }
  if (s.count == 0) throw ConfigError("--shard: shard count must be > 0");
  if (s.index >= s.count) {
    throw ConfigError(StrFormat(
        "--shard: index %llu out of range for %llu shards (valid: 0..%llu)",
        static_cast<unsigned long long>(s.index),
        static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.count - 1)));
  }
  return s;
}

std::vector<std::uint64_t> ShardTrialIndices(std::uint64_t runs,
                                             const ShardSpec& spec) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw ConfigError("ShardTrialIndices: invalid shard spec");
  }
  std::vector<std::uint64_t> indices;
  indices.reserve(static_cast<std::size_t>(runs / spec.count + 1));
  for (std::uint64_t i = spec.index; i < runs; i += spec.count) {
    indices.push_back(i);
  }
  return indices;
}

namespace {

// The merge's commit: the same CommitCursor a Campaign reduces through, so
// the merged result is bit-identical to one process running the plan. The
// records carry every field Accumulate and the estimator read.
CommitCursor MergeCursor(const MergePlan& plan,
                         std::function<void(const RunRecord&)> sink) {
  return CommitCursor({.planned = plan.runs,
                       .sample_policy = plan.sample_policy,
                       .stop_ci = plan.stop_ci,
                       .keep_records = plan.keep_records,
                       .sink = std::move(sink)});
}

}  // namespace

CampaignResult MergeShardRecords(const MergePlan& plan,
                                 const std::vector<RunRecord>& shard_records) {
  std::map<std::uint64_t, const RunRecord*> by_seed;
  for (const RunRecord& rec : shard_records) {
    const auto [it, inserted] = by_seed.emplace(rec.run_seed, &rec);
    if (!inserted) {
      throw ConfigError(StrFormat(
          "MergeShardRecords: run_seed %llu appears twice — two shards ran "
          "the same trial, or a records file was passed more than once",
          static_cast<unsigned long long>(rec.run_seed)));
    }
  }
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(plan.seed, plan.runs);
  CommitCursor cursor = MergeCursor(plan, nullptr);
  for (std::uint64_t t = 0; t < plan.runs && !cursor.closed(); ++t) {
    const auto it = by_seed.find(seeds[static_cast<std::size_t>(t)]);
    if (it == by_seed.end()) {
      throw ConfigError(StrFormat(
          "MergeShardRecords: no shard provided trial seed %llu (trial %llu "
          "of %llu) — a shard's records are incomplete or missing",
          static_cast<unsigned long long>(seeds[static_cast<std::size_t>(t)]),
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(plan.runs)));
    }
    cursor.Offer(t, *it->second);
  }
  return cursor.Finish();
}

CampaignResult MergeShardStreams(
    const MergePlan& plan, std::vector<ShardRecordStream> streams,
    const std::function<void(const RunRecord&)>& sink) {
  if (streams.empty()) {
    throw ConfigError("MergeShardStreams: no shard streams");
  }
  const std::uint64_t n_shards = streams.size();
  const std::vector<std::uint64_t> seeds =
      Campaign::DeriveTrialSeeds(plan.seed, plan.runs);
  // Global trial t's record is the next unread record of stream t % N — the
  // shard partition *is* the round-robin, so pulling in lockstep walks the
  // global seed order with one in-flight record per shard.
  CommitCursor cursor = MergeCursor(plan, sink);
  RunRecord rec;
  for (std::uint64_t t = 0; t < plan.runs && !cursor.closed(); ++t) {
    ShardRecordStream& stream = streams[static_cast<std::size_t>(t % n_shards)];
    if (!stream(&rec)) {
      throw ConfigError(StrFormat(
          "MergeShardStreams: shard %llu ran out of records at trial %llu of "
          "%llu — its store is incomplete",
          static_cast<unsigned long long>(t % n_shards),
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(plan.runs)));
    }
    if (rec.run_seed != seeds[static_cast<std::size_t>(t)]) {
      throw ConfigError(StrFormat(
          "MergeShardStreams: shard %llu yielded trial seed %llu where the "
          "plan expects %llu (trial %llu of %llu) — duplicate, missing, or "
          "out-of-order trial",
          static_cast<unsigned long long>(t % n_shards),
          static_cast<unsigned long long>(rec.run_seed),
          static_cast<unsigned long long>(seeds[static_cast<std::size_t>(t)]),
          static_cast<unsigned long long>(t + 1),
          static_cast<unsigned long long>(plan.runs)));
    }
    cursor.Offer(t, rec);
  }
  return cursor.Finish();
}

namespace {

std::uint64_t JsonU64(const std::string& json, const std::string& key) {
  double v = 0.0;
  if (!JsonFindNumber(json, key, &v) || v < 0.0) return 0;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

ShardStatus ParseShardStatus(const std::string& json) {
  ShardStatus s;
  // The two fields every status document has; their absence means this is
  // not (yet) a status.json — e.g. an empty or half-missing file.
  std::string running;
  double total = 0.0;
  if (!JsonFindRaw(json, "running", &running) ||
      !JsonFindNumber(json, "total", &total)) {
    return s;
  }
  s.ok = true;
  s.running = running == "true";
  s.total = static_cast<std::uint64_t>(total);
  s.done = JsonU64(json, "done");
  s.replayed = JsonU64(json, "replayed");
  s.benign = JsonU64(json, "benign");
  s.terminated = JsonU64(json, "terminated");
  s.sdc = JsonU64(json, "sdc");
  s.infra = JsonU64(json, "infra");
  s.taint_lost = JsonU64(json, "taint_lost");
  s.trace_dropped = JsonU64(json, "trace_dropped");
  JsonFindNumber(json, "elapsed_s", &s.elapsed_s);
  JsonFindNumber(json, "trials_per_s", &s.trials_per_s);
  // eta_s is null while the shard has work left but no rate sample yet;
  // JsonFindNumber's false return IS the null signal (see strings.h).
  s.eta_known = JsonFindNumber(json, "eta_s", &s.eta_s);
  JsonFindString(json, "obs", &s.obs_endpoint);
  return s;
}

FleetRollup RollUpShards(const std::vector<ShardStatus>& statuses) {
  FleetRollup r;
  r.shards = statuses.size();
  r.eta_known = true;  // until a silent or eta-null shard proves otherwise
  for (const ShardStatus& s : statuses) {
    if (!s.ok) {
      r.eta_known = false;
      continue;
    }
    ++r.shards_reporting;
    r.total += s.total;
    r.done += s.done;
    r.replayed += s.replayed;
    r.benign += s.benign;
    r.terminated += s.terminated;
    r.sdc += s.sdc;
    r.infra += s.infra;
    r.taint_lost += s.taint_lost;
    r.trace_dropped += s.trace_dropped;
    r.trials_per_s += s.trials_per_s;
    if (!s.eta_known) {
      r.eta_known = false;
    } else if (s.eta_s > r.eta_s) {
      r.eta_s = s.eta_s;  // the fleet finishes when its slowest shard does
    }
  }
  if (!r.eta_known) r.eta_s = 0.0;
  if (r.done > 0) {
    const double done = static_cast<double>(r.done);
    r.benign_rate = static_cast<double>(r.benign) / done;
    r.terminated_rate = static_cast<double>(r.terminated) / done;
    r.sdc_rate = static_cast<double>(r.sdc) / done;
    r.infra_rate = static_cast<double>(r.infra) / done;
  }
  return r;
}

}  // namespace chaser::campaign
