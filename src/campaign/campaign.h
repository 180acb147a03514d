// Fault-injection campaign driver.
//
// Reproduces the paper's methodology (§IV-B): run the application once
// cleanly (the "golden" run) to capture reference output and profile how
// often the targeted instruction classes execute; then run N injection
// trials, each flipping x random bits in the operands of the targeted
// instruction after it executed a random number of times, and classify each
// trial as:
//
//   benign      output files bit-wise identical to the golden run
//   terminated  OS exception (SIGSEGV, ...), program-level assertion
//               (CLAMR's mass checker -> "detected"), or MPI-runtime error
//   SDC         ran to completion but output differs bit-wise
//
// Every application (single-process or MPI) runs under a Cluster; a
// 1-rank cluster is just a VM with the MPI syscalls available but unused.
//
// The campaign splits into two phases with very different sharing rules:
//
//   golden phase   runs once, produces an immutable GoldenProfile that every
//                  subsequent trial only reads;
//   trial phase    each trial mutates a Cluster + ChaserMpi + TaintHub. That
//                  mutable state is encapsulated in a TrialEngine: the
//                  Campaign's calling thread runs trials on the campaign's
//                  own engine, and each extra `jobs` worker thread on its own.
//
// However the trials are executed — inline, across a worker pool, on shard
// workers merged afterwards — their records reach the result through one
// CommitCursor in campaign seed order, so the report, records, journal,
// sink stream and early-stop point never depend on the worker count.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/app.h"
#include "campaign/ladder.h"
#include "campaign/sampling.h"
#include "common/rng.h"
#include "core/chaser_mpi.h"
#include "core/injectors/registry.h"
#include "hub/tainthub.h"
#include "mpi/cluster.h"
#include "tcg/shared_cache.h"

namespace chaser::obs {
class Telemetry;
}

namespace chaser::campaign {

class TrialJournal;

/// kInfra is not a fault-injection outcome at all: it marks a trial whose
/// *harness* failed (an exception escaped the engine) even after the retry
/// budget, and which was quarantined instead of aborting the campaign.
/// kCrashed is an *injection* outcome: the injected fault killed its guest
/// rank outright (GuestSignal::kCrash, the rank-crash injector) — a real
/// system-level fault result, unlike kInfra, and distinct from kTerminated
/// where the guest OS/runtime/checker detected the fault.
enum class Outcome : std::uint8_t { kBenign, kTerminated, kSdc, kInfra,
                                    kCrashed };

const char* OutcomeName(Outcome o);

/// One injection trial.
struct RunRecord {
  Outcome outcome = Outcome::kBenign;
  vm::TerminationKind kind = vm::TerminationKind::kExited;
  vm::GuestSignal signal = vm::GuestSignal::kNone;
  Rank inject_rank = 0;
  Rank failure_rank = -1;
  bool deadlock = false;
  bool propagated_cross_rank = false;
  bool propagated_cross_node = false;
  std::uint64_t injections = 0;
  std::uint64_t tainted_reads = 0;
  std::uint64_t tainted_writes = 0;
  std::uint64_t peak_tainted_bytes = 0;
  /// Tainted bytes that reached any rank's output stream — a trace-only
  /// predictor of silent data corruption.
  std::uint64_t tainted_output_bytes = 0;
  std::uint64_t trigger_nth = 0;   // the chosen "after executed n times"
  unsigned flip_bits = 0;          // the chosen x
  /// Sampled campaigns only (zero/default on the uniform path): the drawn
  /// injection site — trigger_nth is then *pc-local* — and the importance
  /// weight mapping this trial back to the uniform-over-invocations
  /// estimand (1.0 for weighted draws, mass_c·K/M for stratified).
  std::uint64_t inject_pc = 0;
  guest::InstrClass inject_class = guest::InstrClass::kMov;
  double sample_weight = 1.0;
  std::uint64_t run_seed = 0;      // reproduce this exact trial
  std::uint64_t instructions = 0;  // total guest instructions this trial
  /// Hot-path counters summed over ranks (deterministic per run_seed and
  /// invariant across worker counts, shared translation caches
  /// and checkpoint restores — which is why they may live in the
  /// identity-checked record).
  std::uint64_t tb_chain_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  /// Events the in-memory TraceLogs dropped at their capacity cap this
  /// trial (0 when everything fit; a spool still captured all of them).
  std::uint64_t trace_dropped = 0;
  /// Messages whose taint shadow the hub lost this trial (publish dropped,
  /// outage, or receiver poll deadline exhausted) — see hub::HubFaultModel.
  std::uint64_t taint_lost = 0;
  /// Attempts discarded before this record was produced (0 = first attempt
  /// succeeded). For a kInfra record: the full retry budget, all exhausted.
  unsigned retries = 0;
  /// kInfra only: what() of the last exception that escaped the engine.
  std::string infra_error;
  /// Non-default-injector campaigns only (empty strings on the legacy
  /// path): the registry name of the armed injector and its fault class.
  /// Their presence switches the records CSV to v6.
  std::string injector;
  std::string fault_class;
};

struct CampaignConfig {
  std::uint64_t runs = 1000;
  std::uint64_t seed = 12345;
  unsigned flip_bits_min = 1;
  unsigned flip_bits_max = 2;
  bool trace = true;                 // fault-propagation tracing on/off
  std::set<Rank> inject_ranks;       // empty = rank 0 only
  core::Chaser::Options chaser_options;
  std::uint64_t scheduler_quantum = 20'000;
  /// Watchdog: per-rank budget = multiplier * golden instret + slack.
  std::uint64_t watchdog_multiplier = 20;
  std::uint64_t watchdog_slack = 1'000'000;
  bool keep_records = true;          // retain per-run records (Fig. 8/9 need them)
  /// Non-empty: stream every trial's full trace (events, taint timeline,
  /// hub transfers, outcome metadata) to `<spool_dir>/trial-<run_seed>/` as
  /// an analysis::TraceSpool — no event cap, readable by chaser_analyze.
  std::string spool_dir;
  /// Extra attempts granted to a trial whose engine throws (fresh
  /// Cluster/TaintHub each attempt, exponential backoff between them).
  /// Past the budget the trial is quarantined as Outcome::kInfra instead of
  /// aborting the campaign. 0 = quarantine on the first throw.
  unsigned trial_retries = 0;
  /// Base of the exponential backoff between retry attempts (doubled per
  /// attempt, capped at ~1 s). 0 disables sleeping — tests use that.
  std::uint64_t retry_backoff_ms = 10;
  /// Non-empty: append every completed trial to this crash-safe journal
  /// (campaign/journal.h) and, on start, replay any trials it already holds
  /// instead of re-running them — `chaser_run --resume`.
  std::string journal_path;
  /// Trial-pruning policy (campaign/sampling.h). kUniform is the legacy
  /// path, byte-identical to pre-sampling builds; kWeighted/kStratified
  /// profile golden sites and draw injection points from equivalence
  /// classes.
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  /// Early stop: halt once every outcome-rate Wilson interval (95%) is
  /// narrower than this full width, never before SampleController::
  /// kMinStopTrials trials. 0 = run all `runs` trials. Works with any
  /// policy and any worker count; the stop point is a deterministic function
  /// of the seed-ordered trial prefix, so it is journal/resume-safe.
  double stop_ci = 0.0;
  /// Degradation model installed into every trial's TaintHub (outages,
  /// publish drops, visibility lag, poll-retry deadline).
  hub::HubFaultModel hub_fault;
  /// Injector family for every trial (core/injectors/registry.h). The
  /// default (empty name) is the legacy probabilistic bit-flip path, byte-
  /// identical to pre-registry builds; any named spec is built fresh per
  /// trial from the registry after the trial's RNG draws.
  core::InjectorSpec injector;
  /// Per-trial hub fault arming (`--hub-fault-trigger`): when set, the model
  /// is installed only inside each trial window — the golden run and any
  /// non-trial execution stay clean, unlike the ambient `hub_fault` — with a
  /// per-trial seed forked from the trial RNG, making network-partition
  /// campaigns samplable and resume-safe like any other fault space.
  std::optional<hub::HubFaultModel> hub_fault_trigger;
  /// Shard-worker identity: this process runs only trial indices i with
  /// i % shard_count == shard_index (seed-order partition of the trial
  /// space). The default 0/1 is the unsharded single-process campaign and
  /// changes nothing. When shard_count > 1, --stop-ci is force-disabled in
  /// the worker (the stop prefix is defined in *global* seed order, which a
  /// single shard cannot observe) and re-applied at merge by
  /// campaign::MergeShardRecords.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// Non-empty: every trial's hub operations go to these chaser_hubd
  /// endpoints ("host:port", key-space-sharded when more than one) through a
  /// hub::remote::RemoteTaintHub instead of the in-process TaintHub.
  std::vector<std::string> hub_endpoints;
  /// Test/chaos hook: invoked as (run_seed, attempt) right before each trial
  /// attempt, *inside* the containment boundary — throwing from here
  /// exercises the retry/quarantine path deterministically.
  std::function<void(std::uint64_t, unsigned)> trial_chaos;
  /// Called once per committed trial, in campaign seed order, right after
  /// the record enters the result — journal-replayed records included, which
  /// is what makes a resumed sink stream identical to an uninterrupted one.
  /// The CommitCursor calls it as the seed-order prefix grows, while later
  /// trials still run: on the calling thread at jobs 1, on whichever worker
  /// completed the prefix otherwise, never on two threads at once. The
  /// streaming hook the CTR trial store hangs off; an exception thrown from
  /// it ends the campaign, and no later trial is sunk or journaled.
  std::function<void(const RunRecord&)> record_sink;
  /// Borrowed observability facade (obs/telemetry.h); must outlive the
  /// campaign. Null = telemetry off — instrumentation sites degrade to a
  /// thread_local load + branch and the campaign's outputs are byte-identical
  /// either way (telemetry only observes).
  obs::Telemetry* telemetry = nullptr;

  // ---- Translation cache ---------------------------------------------------
  /// Cross-trial translation cache shared by every VM the campaign creates.
  /// Null = the Campaign owns one; set it to share translations
  /// among several campaigns over the same app (it must outlive them). A
  /// TrialEngine built directly with null gives each VM private TBs.
  tcg::SharedTbCache* shared_tb_cache = nullptr;
  /// Per-VM local TB-index cap and shared-cache live-TB cap; overflow does a
  /// full flush (QEMU semantics), surfaced in eviction stats. 0 = unlimited.
  std::uint64_t tb_cache_cap = 0;
};

struct CampaignResult {
  std::uint64_t runs = 0;
  std::uint64_t benign = 0;
  std::uint64_t terminated = 0;
  std::uint64_t sdc = 0;

  // Termination sub-causes (Table III):
  std::uint64_t os_exception = 0;     // guest signals on the injected rank
  std::uint64_t mpi_error = 0;        // MPI-runtime-detected (incl. deadlock)
  std::uint64_t assert_detected = 0;  // program-level checker fired
  std::uint64_t other_rank_failed = 0;  // failure surfaced on a non-injected rank

  // Cross-rank propagation subset:
  std::uint64_t propagated_runs = 0;
  std::uint64_t propagated_terminated = 0;
  std::uint64_t propagated_os_exception = 0;
  std::uint64_t propagated_mpi_error = 0;

  /// Total trace events dropped across all trials by the in-memory
  /// TraceLog capacity cap (Render flags this so truncated traces are
  /// never mistaken for complete ones).
  std::uint64_t trace_dropped = 0;

  /// Trials whose injected fault killed the guest rank (Outcome::kCrashed;
  /// rank-crash injector). Zero on every default-injector campaign.
  std::uint64_t crashed = 0;
  /// Trials quarantined after exhausting the retry budget (Outcome::kInfra).
  std::uint64_t infra = 0;
  /// Messages whose taint shadow the degraded hub lost, summed over trials.
  std::uint64_t taint_lost = 0;

  // Hot-path counters summed over trials (see RunRecord).
  std::uint64_t tb_chain_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;

  std::vector<RunRecord> records;

  // ---- Sampled-campaign estimates (has_estimates gates everything below;
  // ---- a plain uniform campaign leaves them untouched so its Render stays
  // ---- byte-identical) -----------------------------------------------------
  bool has_estimates = false;
  SamplePolicy sample_policy = SamplePolicy::kUniform;
  double stop_ci = 0.0;          // requested interval width; 0 = no early stop
  bool stopped_early = false;    // the stop rule fired before planned_runs
  std::uint64_t planned_runs = 0;  // config.runs (runs = trials committed)
  std::uint64_t estimate_trials = 0;  // trials in the estimator (no infra)
  double effective_n = 0.0;      // Kish effective sample size
  WilsonInterval est_benign;
  WilsonInterval est_terminated;
  WilsonInterval est_sdc;
  WilsonInterval est_hang;       // deadlock subset of terminated

  /// Tally one trial into the counters (and into `records` if
  /// `keep_record`). The CommitCursor calls it in seed order.
  void Accumulate(const RunRecord& rec, bool keep_record);

  /// Fill the estimates block from a finished estimator (fed in seed order
  /// by the CommitCursor, so the floats agree bit for bit on every path).
  void FillEstimates(const OutcomeEstimator& est, SamplePolicy policy,
                     double stop_ci_width, std::uint64_t planned);

  double Pct(std::uint64_t n) const {
    return runs == 0 ? 0.0 : 100.0 * static_cast<double>(n) / static_cast<double>(runs);
  }
  /// Multi-line human-readable summary.
  std::string Render(const std::string& label) const;
};

/// The immutable product of the one-time golden phase: reference outputs,
/// per-rank targeted-execution counts, and the clean instruction count.
/// After RunGolden it is only ever read, so one profile can be shared by any
/// number of worker-private TrialEngines without copies or locks.
struct GoldenProfile {
  std::map<std::pair<Rank, int>, std::string> outputs;
  std::map<Rank, std::uint64_t> targeted_execs;
  /// Per-site execution histogram of the inject ranks (pc-ascending per
  /// rank). Captured only for sampled campaigns — empty on the uniform
  /// path, where nothing reads it.
  GoldenSiteMap sites;
  std::uint64_t instructions = 0;

  /// Reference output of rank `r` on guest fd `fd`; throws ConfigError
  /// naming the rank/fd if that stream was never captured.
  const std::string& output(Rank r, int fd) const;
  /// Golden targeted-execution count of inject rank `r`; throws ConfigError
  /// naming the rank if it was not profiled.
  std::uint64_t execs(Rank r) const;
};

/// One trial-execution engine: a private Cluster + ChaserMpi (and therefore
/// TaintHub) that runs injection trials against a shared GoldenProfile.
/// Engines own all per-trial mutable state — two engines never share
/// anything writable, which is what makes a worker pool race-free.
class TrialEngine {
 public:
  /// `spec`, `config` and `inject_ranks` are borrowed and must stay alive
  /// and unmodified for the engine's lifetime. Throws ConfigError if an
  /// inject rank is outside the spec's rank range.
  TrialEngine(const apps::AppSpec& spec, const CampaignConfig& config,
              const std::set<Rank>& inject_ranks);

  /// Execute the clean profiling run (never-firing trigger, tracing off) and
  /// return the profile. Throws ConfigError if the clean app fails or an
  /// inject rank never executes the targeted classes.
  GoldenProfile RunGolden();

  /// Adopt a profile — typically captured by a different engine — and
  /// tighten the watchdog from its instruction count. Required before
  /// RunTrial; the profile must outlive the engine.
  void AdoptGolden(const GoldenProfile& golden);

  /// Execute one injection trial. `run_seed` fully determines the trial.
  RunRecord RunTrial(std::uint64_t run_seed);

  mpi::Cluster& cluster() { return *cluster_; }
  core::ChaserMpi& chaser() { return *chaser_; }

 private:
  void Classify(const mpi::JobResult& job, RunRecord* rec);
  /// Remove the trial spool's sink from every rank's trace log.
  void DetachSpool();
  /// Right after Start of a ladder trial: restore the deepest checkpoint
  /// preceding the trigger's firing point, then capture open rungs until it
  /// fires.
  void EnterLadder(Rank rank, std::uint64_t nth,
                   std::optional<std::uint64_t> pc);

  const apps::AppSpec& spec_;
  const CampaignConfig& config_;
  const std::set<Rank>& inject_ranks_;
  /// One immutable copy of the app image, lent to every rank VM of every
  /// trial (Vm::StartProcess shared overload) instead of re-copied per start.
  std::shared_ptr<const guest::Program> image_;
  std::unique_ptr<mpi::Cluster> cluster_;
  /// Remote hub client (config.hub_endpoints non-empty). Declared before
  /// chaser_: the ChaserMpi's hooks point into it, so it must be destroyed
  /// after them.
  std::unique_ptr<hub::HubService> remote_hub_;
  std::unique_ptr<core::ChaserMpi> chaser_;
  const GoldenProfile* golden_ = nullptr;
  /// Sampling frame built by AdoptGolden when the policy needs one. Every
  /// engine rebuilds it from the same profile deterministically, so worker
  /// engines agree without sharing.
  std::unique_ptr<SamplingPlan> plan_;
  /// Pre-injection checkpoints of this engine's trials (campaign/ladder.h);
  /// null when this campaign's trials cannot share a prefix.
  std::unique_ptr<CheckpointLadder> ladder_;
};

/// Containment boundary every campaign worker runs its trials through: run
/// one trial, catching anything the engine throws. A throwing attempt discards
/// `*engine` (its Cluster/TaintHub may be in an arbitrary state) and retries
/// with a freshly built engine after exponential backoff, up to
/// config.trial_retries extra attempts. Exhausting the budget quarantines
/// the trial as an Outcome::kInfra record carrying the last exception text —
/// the campaign keeps going. `*engine` may be null on entry (it is built
/// lazily) and is left usable for the next trial whenever possible.
RunRecord RunTrialContained(std::unique_ptr<TrialEngine>* engine,
                            const apps::AppSpec& spec,
                            const CampaignConfig& config,
                            const std::set<Rank>& inject_ranks,
                            const GoldenProfile& golden,
                            std::uint64_t run_seed);

/// The one seed-order commit behind every campaign result: the Campaign
/// driver at any worker count (shard workers included) and both shard merges
/// (campaign/fleet.h) reduce through it. Records arrive as (position,
/// record) pairs in any order — as workers finish trials, as journal replay
/// or a merge supplies them — and the cursor holds only those that are
/// complete but not yet committable. Each time the seed-order prefix grows
/// it commits the next record: journal append (executed trials only),
/// CampaignResult::Accumulate, the sink, committed-trial telemetry, the
/// SampleController — and latches the stop once the estimate converges.
/// From then on (or once a journal append or sink call throws) the cursor
/// is closed: whatever is offered is discarded, its spool directory removed,
/// so nothing past the stop reaches the result, sink, journal or spool.
/// Thread-safe: offers serialize on one mutex, so the sink and the journal
/// are never called from two threads at once.
class CommitCursor {
 public:
  struct Options {
    /// The campaign's planned trial count — the denominator of the sampling
    /// report line and of the stopped-early verdict.
    std::uint64_t planned = 0;
    SamplePolicy sample_policy = SamplePolicy::kUniform;
    double stop_ci = 0.0;  // 0 = never stop early
    bool keep_records = true;
    std::function<void(const RunRecord&)> sink;
    TrialJournal* journal = nullptr;       // borrowed; may be null
    obs::Telemetry* telemetry = nullptr;   // borrowed; may be null
    std::string spool_dir;                 // where discarded trials spooled
  };

  explicit CommitCursor(Options options);

  /// Hand over position `index`'s record (`replayed`: it came from the
  /// resume journal, so it is not appended again) and commit the prefix it
  /// completes. Rethrows what a journal append or the sink throws. Each
  /// position must be offered at most once.
  void Offer(std::uint64_t index, const RunRecord& rec, bool replayed = false);

  /// True once nothing more can commit: the stop latched or a commit threw.
  /// Every position not yet committed is then past the stop.
  bool closed() const { return closed_.load(); }

  /// The estimator state, for a live status channel (null on a plain
  /// uniform campaign, which keeps no estimator).
  std::shared_ptr<const SampleController> controller() const {
    return controller_;
  }

  /// The committed result; call once, after the last Offer.
  CampaignResult Finish();

 private:
  void CommitLocked(const RunRecord& rec, bool replayed);
  void DiscardLocked(const RunRecord& rec) const;

  Options options_;
  std::shared_ptr<SampleController> controller_;
  std::mutex mutex_;
  std::uint64_t next_ = 0;  // the next position to commit
  std::map<std::uint64_t, std::pair<RunRecord, bool>> pending_;
  std::atomic<bool> closed_{false};
  CampaignResult result_;
};

/// The campaign driver: one golden run, then config.runs independent
/// seeded trials reduced through a CommitCursor.
class Campaign {
 public:
  /// `jobs` trial workers: the calling thread runs trials on the campaign's
  /// own engine, and `jobs - 1` extra threads each on a private one, all
  /// claiming trials from one counter. `jobs == 1` starts no thread (so
  /// cluster()/chaser() show the last trial, even from inside the sink);
  /// `jobs == 0` picks one worker per hardware thread. The result is
  /// bit-identical at every worker count.
  Campaign(apps::AppSpec spec, CampaignConfig config, unsigned jobs = 1);

  /// Execute the golden run (throws ConfigError if the clean app fails) and
  /// profile targeted-instruction execution counts per inject rank.
  void RunGolden();

  /// Execute one injection trial (RunGolden must have happened; Run() calls
  /// it lazily). `run_seed` fully determines the trial.
  RunRecord RunOnce(std::uint64_t run_seed);

  /// Full campaign: golden + config.runs trials across the workers. Trial
  /// failures are contained per RunTrialContained. With config.journal_path
  /// set, every committed trial is journalled (in seed order) and trials
  /// already in the journal are replayed instead of re-run — the resumed
  /// result is byte-identical to an uninterrupted one.
  CampaignResult Run();

  /// The first `n` trial seeds for campaign seed `seed` (the n successive
  /// Fork()s of Rng(seed)); trial position i always runs seed i, whichever
  /// worker claims it.
  static std::vector<std::uint64_t> DeriveTrialSeeds(std::uint64_t seed,
                                                     std::uint64_t n);

  // ---- Introspection -------------------------------------------------------
  unsigned jobs() const { return jobs_; }
  bool golden_done() const { return golden_done_; }
  const GoldenProfile& golden() const { return golden_; }
  /// Golden output of (r, fd); throws ConfigError naming the rank/fd if the
  /// golden run has not happened or that stream was never captured.
  const std::string& golden_output(Rank r, int fd) const;
  std::uint64_t golden_targeted_execs(Rank r) const;
  std::uint64_t golden_instructions() const { return golden_.instructions; }
  const apps::AppSpec& spec() const { return spec_; }
  const std::set<Rank>& inject_ranks() const { return inject_ranks_; }
  mpi::Cluster& cluster() { return engine_->cluster(); }
  core::ChaserMpi& chaser() { return engine_->chaser(); }
  /// The shared translation cache in use (campaign-owned or external).
  const tcg::SharedTbCache* shared_tb_cache() const {
    return config_.shared_tb_cache;
  }

 private:
  apps::AppSpec spec_;
  CampaignConfig config_;
  std::set<Rank> inject_ranks_;
  /// Campaign-owned shared cache (when no external cache was supplied).
  /// Declared before engine_: engines must be destroyed before the cache
  /// their VMs point into.
  std::unique_ptr<tcg::SharedTbCache> owned_tb_cache_;
  /// Owned via pointer so containment can rebuild it after a trial throws
  /// (a half-destroyed Cluster must never serve another trial).
  std::unique_ptr<TrialEngine> engine_;  // borrows spec_/config_/inject_ranks_
  unsigned jobs_ = 1;

  GoldenProfile golden_;
  bool golden_done_ = false;
};

}  // namespace chaser::campaign
