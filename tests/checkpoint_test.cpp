// Tests for trial checkpoints (campaign/ladder.h): a campaign whose trials
// start from pre-injection checkpoints must produce exactly what running
// every trial from boot produces. The oracle is a fresh TrialEngine per
// trial — its ladder is empty, so it always boots — and the comparison
// covers every record field and every byte of every per-trial spool, for
// uniform and sampled policies, on every driver, and on the configurations
// that must bypass the ladder.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "campaign/journal.h"
#include "campaign/report.h"
#include "hub/remote/server.h"
#include "obs/metrics.h"
#include "tcg/shared_cache.h"

namespace chaser::campaign {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("chaser_checkpoint_test_" + name + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

apps::AppSpec BuildApp(const std::string& app) {
  if (app == "matvec") return apps::BuildMatvec({});
  if (app == "clamr") return apps::BuildClamr({});
  if (app == "lud") return apps::BuildLud({});
  if (app == "bfs") return apps::BuildBfs({});
  if (app == "kmeans") return apps::BuildKmeans({});
  throw std::invalid_argument(app);
}

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// Every RunRecord field, for whole-record equality.
auto Fields(const RunRecord& r) {
  return std::tie(r.outcome, r.kind, r.signal, r.inject_rank, r.failure_rank,
                  r.deadlock, r.propagated_cross_rank, r.propagated_cross_node,
                  r.injections, r.tainted_reads, r.tainted_writes,
                  r.peak_tainted_bytes, r.tainted_output_bytes, r.trigger_nth,
                  r.flip_bits, r.inject_pc, r.inject_class, r.sample_weight,
                  r.run_seed, r.instructions, r.tb_chain_hits, r.tlb_hits,
                  r.tlb_misses, r.trace_dropped, r.taint_lost, r.retries,
                  r.infra_error, r.injector, r.fault_class);
}

void ExpectSameRecords(const std::vector<RunRecord>& got,
                       const std::vector<RunRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(Fields(got[i]) == Fields(want[i]))
        << "record " << i << " (seed " << want[i].run_seed << ") differs";
  }
  std::ostringstream a, b;
  WriteRecordsCsv(got, a);
  WriteRecordsCsv(want, b);
  EXPECT_EQ(a.str(), b.str());
}

/// Relative path -> bytes of every file under `dir`.
std::map<std::string, std::string> SlurpTree(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    files[fs::relative(e.path(), dir).string()] = ss.str();
  }
  return files;
}

std::set<Rank> InjectRanks(const CampaignConfig& config) {
  return config.inject_ranks.empty() ? std::set<Rank>{0} : config.inject_ranks;
}

/// The oracle: every trial on a fresh engine (empty ladder, boots every
/// time), against a golden profile from yet another engine.
std::vector<RunRecord> FreshEngineRecords(const apps::AppSpec& spec,
                                          CampaignConfig config) {
  // Share translations the way Campaign does.
  tcg::SharedTbCache cache;
  if (config.shared_tb_cache == nullptr) config.shared_tb_cache = &cache;
  const std::set<Rank> ranks = InjectRanks(config);
  TrialEngine golden_engine(spec, config, ranks);
  const GoldenProfile golden = golden_engine.RunGolden();
  std::vector<RunRecord> records;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    TrialEngine engine(spec, config, ranks);
    engine.AdoptGolden(golden);
    records.push_back(engine.RunTrial(seed));
  }
  return records;
}

CampaignConfig BaseConfig(const std::string& app, const apps::AppSpec& spec) {
  CampaignConfig config;
  config.runs = app == "clamr" ? 24 : 40;
  config.seed = 17;
  // Samples inside the prefix make the restored taint timeline matter.
  config.chaser_options.taint_sample_interval = 5000;
  if (app == "clamr") {
    for (Rank r = 0; r < spec.num_ranks; ++r) config.inject_ranks.insert(r);
  }
  return config;
}

// ---- identity against the boot-every-trial oracle ---------------------------

class CheckpointIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, SamplePolicy>> {};

std::string IdentityName(
    const ::testing::TestParamInfo<CheckpointIdentity::ParamType>& info) {
  const auto& [app, trace, policy] = info.param;
  std::string name = app + (trace ? "_trace" : "_notrace");
  if (policy != SamplePolicy::kUniform) {
    name += std::string("_") + SamplePolicyName(policy);
  }
  return name;
}

TEST_P(CheckpointIdentity, RecordsAndSpoolsMatchFreshEngines) {
  const auto& [app, trace, policy] = GetParam();
  const apps::AppSpec spec = BuildApp(app);
  CampaignConfig config = BaseConfig(app, spec);
  config.trace = trace;
  config.sample_policy = policy;
  const std::string dir = TempDir(IdentityName({GetParam(), 0}));

  CampaignConfig oracle_config = config;
  oracle_config.spool_dir = dir + "/oracle";
  const std::vector<RunRecord> want = FreshEngineRecords(spec, oracle_config);

  const std::uint64_t restores0 =
      CounterValue("trial_checkpoint_restores_total");
  const std::uint64_t skipped0 =
      CounterValue("trial_prefix_insns_skipped_total");
  CampaignConfig laddered = config;
  laddered.spool_dir = dir + "/laddered";
  Campaign campaign(spec, laddered);
  const CampaignResult got = campaign.Run();

  EXPECT_GT(CounterValue("trial_checkpoint_restores_total"), restores0)
      << "the ladder was never used; this test would prove nothing";
  EXPECT_GT(CounterValue("trial_prefix_insns_skipped_total"), skipped0);
  ExpectSameRecords(got.records, want);
  const auto oracle_spools = SlurpTree(dir + "/oracle");
  EXPECT_EQ(oracle_spools.size() > 0, true);
  EXPECT_TRUE(SlurpTree(dir + "/laddered") == oracle_spools)
      << "a per-trial spool differs from the fresh-engine run";
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, CheckpointIdentity,
    ::testing::Combine(::testing::Values("matvec", "clamr", "lud", "bfs"),
                       ::testing::Bool(),
                       ::testing::Values(SamplePolicy::kUniform)),
    IdentityName);

// Sampled trials fire at the nth execution of one pc: a restored checkpoint
// must carry the inject rank's per-pc counts. On clamr every rank injects,
// so the stratified cases draw sites on several ranks.
INSTANTIATE_TEST_SUITE_P(
    Sampled, CheckpointIdentity,
    ::testing::Combine(::testing::Values("kmeans", "matvec", "lud", "clamr"),
                       ::testing::Bool(),
                       ::testing::Values(SamplePolicy::kWeighted,
                                         SamplePolicy::kStratified)),
    IdentityName);

// ---- every driver agrees with the oracle ------------------------------------

std::string RenderOf(const std::vector<RunRecord>& records,
                     const std::string& label) {
  CampaignResult result;
  result.runs = records.size();
  for (const RunRecord& rec : records) result.Accumulate(rec, true);
  return result.Render(label);
}

/// Shard i's records as stream i of a MergeShardStreams call. The merge keeps
/// no records, so the committed ones are collected from its sink into the
/// returned result.
CampaignResult MergeInMemory(const MergePlan& plan,
                             const std::vector<std::vector<RunRecord>>& shards) {
  std::vector<ShardRecordStream> streams;
  for (const std::vector<RunRecord>& shard : shards) {
    streams.push_back([&shard, next = std::size_t{0}](RunRecord* out) mutable {
      if (next == shard.size()) return false;
      *out = shard[next++];
      return true;
    });
  }
  std::vector<RunRecord> sunk;
  CampaignResult merged = MergeShardStreams(
      plan, std::move(streams),
      [&sunk](const RunRecord& rec) { sunk.push_back(rec); });
  EXPECT_TRUE(merged.records.empty()) << "a merge keeps no records";
  merged.records = std::move(sunk);
  return merged;
}

TEST(CheckpointDrivers, SerialParallelShardedAndResumedMatchTheOracle) {
  const apps::AppSpec spec = BuildApp("clamr");
  const CampaignConfig config = BaseConfig("clamr", spec);
  const std::vector<RunRecord> want = FreshEngineRecords(spec, config);
  const std::string want_report = RenderOf(want, "clamr");

  {
    SCOPED_TRACE("serial");
    Campaign serial(spec, config);
    const CampaignResult got = serial.Run();
    ExpectSameRecords(got.records, want);
    EXPECT_EQ(got.Render("clamr"), want_report);
  }
  {
    SCOPED_TRACE("parallel --jobs 4");
    Campaign parallel(spec, config, 4);
    const CampaignResult got = parallel.Run();
    ExpectSameRecords(got.records, want);
    EXPECT_EQ(got.Render("clamr"), want_report);
  }
  {
    SCOPED_TRACE("3 shards");
    std::vector<std::vector<RunRecord>> shard_records;
    for (std::uint64_t s = 0; s < 3; ++s) {
      CampaignConfig shard = config;
      shard.shard_index = s;
      shard.shard_count = 3;
      Campaign worker(spec, shard);
      shard_records.push_back(worker.Run().records);
    }
    MergePlan plan;
    plan.app = "clamr";
    plan.runs = config.runs;
    plan.seed = config.seed;
    const CampaignResult merged = MergeInMemory(plan, shard_records);
    ExpectSameRecords(merged.records, want);
    EXPECT_EQ(merged.Render("clamr"), want_report);
  }
  {
    SCOPED_TRACE("mid-campaign resume");
    const std::string dir = TempDir("resume");
    CampaignConfig resumed = config;
    resumed.journal_path = dir + "/journal.chj";
    {
      // A campaign killed after 9 trials left this journal behind.
      std::vector<RunRecord> none;
      TrialJournal journal(resumed.journal_path, config.seed, spec.name, &none);
      for (std::size_t i = 0; i < 9; ++i) journal.Append(want[i]);
    }
    Campaign campaign(spec, resumed);
    const CampaignResult got = campaign.Run();
    ExpectSameRecords(got.records, want);
    EXPECT_EQ(got.Render("clamr"), want_report);
    fs::remove_all(dir);
  }
}

TEST(CheckpointDrivers, WeightedStopCiStopsAtTheSamePointOnEveryDriver) {
  const apps::AppSpec spec = BuildApp("kmeans");
  CampaignConfig config = BaseConfig("kmeans", spec);
  config.runs = 160;
  config.sample_policy = SamplePolicy::kWeighted;
  config.stop_ci = 0.3;  // wide enough to fire well before 160 trials
  MergePlan plan;
  plan.app = "kmeans";
  plan.runs = config.runs;
  plan.seed = config.seed;
  plan.sample_policy = config.sample_policy;
  plan.stop_ci = config.stop_ci;
  // The oracle: every planned trial booted on a fresh engine, cut at the
  // stop point by the same rule the merge applies.
  const CampaignResult want =
      MergeInMemory(plan, {FreshEngineRecords(spec, config)});
  ASSERT_TRUE(want.stopped_early) << "the stop rule must fire for this test";
  const std::string want_report = want.Render("kmeans");
  const auto expect_oracle = [&](const CampaignResult& got) {
    ExpectSameRecords(got.records, want.records);
    EXPECT_EQ(got.runs, want.runs);
    EXPECT_TRUE(got.stopped_early);
    EXPECT_EQ(got.Render("kmeans"), want_report);
  };

  const std::uint64_t restores0 =
      CounterValue("trial_checkpoint_restores_total");
  {
    SCOPED_TRACE("serial");
    Campaign serial(spec, config);
    expect_oracle(serial.Run());
  }
  EXPECT_GT(CounterValue("trial_checkpoint_restores_total"), restores0);
  {
    SCOPED_TRACE("parallel --jobs 4");
    Campaign parallel(spec, config, 4);
    expect_oracle(parallel.Run());
  }
  {
    SCOPED_TRACE("3 shards");
    std::vector<std::vector<RunRecord>> shard_records;
    for (std::uint64_t s = 0; s < 3; ++s) {
      CampaignConfig shard = config;
      shard.shard_index = s;
      shard.shard_count = 3;
      Campaign worker(spec, shard);
      shard_records.push_back(worker.Run().records);
    }
    expect_oracle(MergeInMemory(plan, shard_records));
  }
  {
    SCOPED_TRACE("mid-campaign resume");
    const std::string dir = TempDir("resume_weighted");
    CampaignConfig resumed = config;
    resumed.journal_path = dir + "/journal.chj";
    {
      // A campaign killed after 9 trials left this journal behind.
      std::vector<RunRecord> none;
      TrialJournal journal(resumed.journal_path, config.seed, spec.name, &none);
      for (std::size_t i = 0; i < 9; ++i) journal.Append(want.records[i]);
    }
    Campaign campaign(spec, resumed);
    expect_oracle(campaign.Run());
    fs::remove_all(dir);
  }
}

// ---- the site-keyed ladder ---------------------------------------------------

/// A checkpoint of `rank` (of 2) whose inject-rank chaser holds `execs`
/// targeted executions and the given per-pc counts.
std::unique_ptr<TrialCheckpoint> Rung(Rank rank, std::uint64_t execs,
                                      std::vector<std::uint64_t> sites) {
  auto cp = std::make_unique<TrialCheckpoint>();
  cp->chaser.ranks.resize(2);
  cp->chaser.ranks[static_cast<std::size_t>(rank)].exec_count = execs;
  cp->chaser.ranks[static_cast<std::size_t>(rank)].site_execs = std::move(sites);
  return cp;
}

TEST(CheckpointLadderSites, DeepestRungBelowTheSiteCount) {
  // Golden 800 instructions: rungs 1..7 sit 100 instructions apart.
  CheckpointLadder ladder(800);
  // pc 2 runs 3 times per rung; pc 3 only from rung 3 on; pc 4 never.
  ASSERT_TRUE(ladder.Add(0, 1, Rung(0, 10, {0, 0, 3, 0, 0})));
  ASSERT_TRUE(ladder.Add(0, 2, Rung(0, 20, {0, 0, 6, 0, 0})));
  ASSERT_TRUE(ladder.Add(0, 3, Rung(0, 30, {0, 0, 9, 1, 0})));
  const auto rung_of = [&](const TrialCheckpoint* cp) -> int {
    if (cp == nullptr) return 0;
    return static_cast<int>(cp->chaser.ranks[0].exec_count / 10);
  };
  // A rung whose count equals nth has already fired there: never chosen.
  EXPECT_EQ(rung_of(ladder.Deepest(0, 6, 2)), 1);
  EXPECT_EQ(rung_of(ladder.Deepest(0, 7, 2)), 2);  // count nth-1 = 6
  EXPECT_EQ(rung_of(ladder.Deepest(0, 3, 2)), 0);
  EXPECT_EQ(rung_of(ladder.Deepest(0, 1, 3)), 2);
  // A pc absent from every prefix qualifies every rung.
  EXPECT_EQ(rung_of(ladder.Deepest(0, 1, 4)), 3);
  // Uniform draws keep the global rule: targeted_execs < nth.
  EXPECT_EQ(rung_of(ladder.Deepest(0, 20, std::nullopt)), 1);
  EXPECT_EQ(rung_of(ladder.Deepest(0, 21, std::nullopt)), 2);
  EXPECT_EQ(rung_of(ladder.Deepest(0, 10, std::nullopt)), 0);
  // Rungs are keyed by rank: rank 1 has none.
  EXPECT_EQ(ladder.Deepest(1, 1, 4), nullptr);
  ASSERT_TRUE(ladder.Add(1, 5, Rung(1, 50, {0, 0, 0, 0, 0})));
  EXPECT_EQ(ladder.Deepest(1, 1, 2), ladder.Deepest(1, 1, 4));
  EXPECT_NE(ladder.Deepest(1, 1, 2), nullptr);
  EXPECT_EQ(rung_of(ladder.Deepest(0, 1, 4)), 3);
}

TEST(CheckpointLadderSites, StratifiedClamrRestoresOnEveryInjectRank) {
  // Every clamr rank injects: a stratified draw lands on any rank, and each
  // trial may only restore its own rank's rungs.
  const apps::AppSpec spec = BuildApp("clamr");
  CampaignConfig config = BaseConfig("clamr", spec);
  config.sample_policy = SamplePolicy::kStratified;
  config.runs = 32;
  tcg::SharedTbCache cache;
  config.shared_tb_cache = &cache;
  const std::vector<RunRecord> want = FreshEngineRecords(spec, config);
  const std::set<Rank> ranks = InjectRanks(config);
  TrialEngine engine(spec, config, ranks);
  const GoldenProfile golden = engine.RunGolden();
  engine.AdoptGolden(golden);
  std::vector<RunRecord> got;
  std::set<Rank> restored_on;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    const std::uint64_t restores0 =
        CounterValue("trial_checkpoint_restores_total");
    got.push_back(engine.RunTrial(seed));
    if (CounterValue("trial_checkpoint_restores_total") > restores0) {
      restored_on.insert(got.back().inject_rank);
    }
  }
  ExpectSameRecords(got, want);
  EXPECT_GE(restored_on.size(), 2u)
      << "restores should happen on several inject ranks, not only rank 0";
}

// ---- configurations that must bypass the ladder -----------------------------

void ExpectBypass(const std::string& app, CampaignConfig config) {
  const apps::AppSpec spec = BuildApp(app);
  const std::vector<RunRecord> want = FreshEngineRecords(spec, config);
  const std::uint64_t captures0 =
      CounterValue("trial_checkpoint_captures_total");
  const std::uint64_t restores0 =
      CounterValue("trial_checkpoint_restores_total");
  Campaign campaign(spec, config);
  const CampaignResult got = campaign.Run();
  EXPECT_EQ(CounterValue("trial_checkpoint_captures_total"), captures0);
  EXPECT_EQ(CounterValue("trial_checkpoint_restores_total"), restores0);
  ExpectSameRecords(got.records, want);
}

TEST(CheckpointBypass, HubFaultModel) {
  const apps::AppSpec spec = BuildApp("matvec");
  CampaignConfig config = BaseConfig("matvec", spec);
  config.hub_fault.publish_drop_prob = 0.5;
  config.hub_fault.outage_start = 3;
  config.hub_fault.outage_end = 9;
  ExpectBypass("matvec", config);
}

TEST(CheckpointBypass, HubFaultTrigger) {
  const apps::AppSpec spec = BuildApp("matvec");
  CampaignConfig config = BaseConfig("matvec", spec);
  hub::HubFaultModel model;
  model.publish_drop_prob = 0.25;
  config.hub_fault_trigger = model;
  ExpectBypass("matvec", config);
}

TEST(CheckpointBypass, RemoteHub) {
  hub::remote::HubServer server({});
  server.Start();
  const apps::AppSpec spec = BuildApp("matvec");
  CampaignConfig config = BaseConfig("matvec", spec);
  config.runs = 16;
  config.hub_endpoints = {"127.0.0.1:" + std::to_string(server.port())};
  ExpectBypass("matvec", config);
}

TEST(CheckpointBypass, OwnedTranslations) {
  // An engine built without a shared translation cache owns every TB, which
  // a checkpoint cannot reference: one engine serving the whole campaign
  // must boot every trial and still match the oracle.
  const apps::AppSpec spec = BuildApp("matvec");
  const CampaignConfig config = BaseConfig("matvec", spec);
  ASSERT_EQ(config.shared_tb_cache, nullptr);
  const std::vector<RunRecord> want = FreshEngineRecords(spec, config);
  const std::uint64_t captures0 =
      CounterValue("trial_checkpoint_captures_total");
  const std::uint64_t restores0 =
      CounterValue("trial_checkpoint_restores_total");
  const std::set<Rank> ranks = InjectRanks(config);
  TrialEngine engine(spec, config, ranks);
  const GoldenProfile golden = engine.RunGolden();
  engine.AdoptGolden(golden);
  std::vector<RunRecord> got;
  for (const std::uint64_t seed :
       Campaign::DeriveTrialSeeds(config.seed, config.runs)) {
    got.push_back(engine.RunTrial(seed));
  }
  EXPECT_EQ(CounterValue("trial_checkpoint_captures_total"), captures0);
  EXPECT_EQ(CounterValue("trial_checkpoint_restores_total"), restores0);
  ExpectSameRecords(got, want);
}

// ---- observability -----------------------------------------------------------

TEST(CheckpointMetrics, LadderSeriesAreExported) {
  const apps::AppSpec spec = BuildApp("clamr");
  CampaignConfig config = BaseConfig("clamr", spec);
  config.runs = 12;
  Campaign campaign(spec, config);
  campaign.Run();
  const std::string prom = obs::Registry::Global().ToPrometheus();
  for (const char* series :
       {"trial_checkpoint_captures_total", "trial_checkpoint_restores_total",
        "trial_prefix_insns_skipped_total", "trial_checkpoint_ladder_bytes"}) {
    EXPECT_NE(prom.find(std::string("# TYPE ") + series), std::string::npos)
        << series;
  }
  const std::int64_t ladder =
      obs::Registry::Global().GetGauge("trial_checkpoint_ladder_bytes").Value();
  EXPECT_GT(ladder, 0);
  EXPECT_LE(ladder, static_cast<std::int64_t>(CheckpointLadder::kBudgetBytes));
}

}  // namespace
}  // namespace chaser::campaign
