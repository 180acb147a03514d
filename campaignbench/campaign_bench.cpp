// campaign_bench — times whole fault-injection campaigns, layer by layer.
//
// Drives the library the way tools/chaser_run.cpp does: apps::Build*, then a
// Campaign (serial) or ParallelCampaign with a record_sink feeding a
// store::CtrStoreWriter (plus a resume journal in the durable variant),
// then CampaignResult::Render. Every timing is taken from outside, at the
// public calls this file makes; nothing under src/ is instrumented for it.
//
//   campaign_bench --workload clamr-trace --seed 1 --seconds 30 --trace 0
//                  --work-dir .bench_build/work
//
// One run repeats campaigns (campaign seeds derived from --seed) until
// --seconds have passed and prints one JSON object of raw per-campaign
// samples on stdout; campaignbench/run.py reduces them to the metrics.
//
// Variants of a campaign (all on the same campaign seed):
//   plain    the user's path, no telemetry, no spans — the end-to-end numbers
//   traced   + the benchmark's own spans and a quiet obs::Telemetry whose
//            phase histograms give the layers reachable only inside the
//            campaign classes
//   notaint  plain with CampaignConfig::trace = false, paired with plain for
//            the per-instruction cost of taint tracking
//   durable  plain + a resume journal (`chaser_run --resume`) and a quiet
//            telemetry for its fsync phase; workloads with `journal` only
// A --trace 0 run executes only plain campaigns; a --trace 1 run rotates the
// others in per campaign seed. The journal stays out of the end-to-end
// numbers: its one fsync per trial waits on a shared disk whose latency
// swings 3x for minutes at a time.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "campaign/campaign.h"
#include "campaign/fleet.h"
#include "campaign/parallel.h"
#include "common/error.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "store/ctr.h"
#include "store/query.h"
#include "tcg/shared_cache.h"

namespace {

using namespace chaser;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Reset the kernel's resident-set high-water mark to the current RSS, so the
/// next PeakRssMb() covers one campaign only (Linux clear_refs "5").
/// Freed heap is handed back first (malloc_trim), so one campaign's peak
/// does not inherit the previous campaign's retained arenas.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM since the last ResetPeakRss (or process start), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw ConfigError("no VmHWM in /proc/self/status");
}

std::string Fnv1aHex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---- Host-speed reference ---------------------------------------------------

/// Host-speed reference: a toy register-machine interpreter (switch dispatch
/// over a fixed random 64-op program, 16 registers, 64 KiB of memory) — the
/// shape of work the guest interpreter does, sharing no code with the
/// library, so no change to the library moves it. Its duration tracks how
/// fast this host runs right now: on a shared host, campaigns slow down and
/// speed up by up to 2x over tens of seconds, and run.py divides that out.
/// Returns the median of five ~5 ms repetitions, in seconds.
double HostSpeedKernelSeconds() {
  struct Op {
    std::uint8_t code, a, b, c;
  };
  static const std::vector<Op> prog = [] {
    std::vector<Op> p(64);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (Op& op : p) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      op = {static_cast<std::uint8_t>(x % 8),
            static_cast<std::uint8_t>((x >> 8) % 16),
            static_cast<std::uint8_t>((x >> 16) % 16),
            static_cast<std::uint8_t>((x >> 24) % 16)};
    }
    return p;
  }();
  static std::atomic<std::uint64_t> sink{0};
  std::vector<double> reps;
  std::vector<std::uint64_t> mem(8192);
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t r[16];
    for (int i = 0; i < 16; ++i) r[i] = static_cast<std::uint64_t>(i * 7 + rep);
    const Clock::time_point t0 = Clock::now();
    for (int iter = 0; iter < 28'000; ++iter) {
      for (const Op& op : prog) {
        switch (op.code) {
          case 0: r[op.a] = r[op.b] + r[op.c]; break;
          case 1: r[op.a] = r[op.b] ^ (r[op.c] << 1); break;
          case 2: r[op.a] = mem[r[op.b] & 8191]; break;
          case 3: mem[r[op.b] & 8191] = r[op.c]; break;
          case 4: r[op.a] = (r[op.b] * r[op.c]) | 1; break;
          case 5: if (r[op.b] & 1) r[op.a] += 7; break;
          case 6: r[op.a] = r[op.b] >> (r[op.c] & 31); break;
          default: r[op.a] = r[op.b] - r[op.c] + 3; break;
        }
      }
    }
    sink.fetch_add(r[0] + r[15], std::memory_order_relaxed);
    reps.push_back(SecondsSince(t0));
  }
  return Median(reps);
}

/// Run the host-speed kernel on `threads` threads at once (the campaign's
/// own thread count) and return the median of their durations.
double HostSpeedSeconds(unsigned threads) {
  std::vector<double> t(threads);
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) {
    pool.emplace_back([&t, i] { t[i] = HostSpeedKernelSeconds(); });
  }
  t[0] = HostSpeedKernelSeconds();
  for (std::thread& th : pool) th.join();
  return Median(t);
}

// ---- Workloads --------------------------------------------------------------

/// Why each workload exists is recorded in BENCHMARK.json and
/// campaignbench/spec.json; the constants below are the whole definition.
struct Workload {
  std::string name;
  std::string app;
  std::uint64_t runs = 0;        // trials per campaign (planned, for sampled)
  bool inject_all_ranks = false;
  campaign::SamplePolicy policy = campaign::SamplePolicy::kUniform;
  double stop_ci = 0.0;
  unsigned jobs = 1;             // 1 = serial Campaign, else ParallelCampaign
  bool journal = false;          // traced runs add the durable variant
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "clamr-trace", .app = "clamr", .runs = 100,
       .inject_all_ranks = true},
      {.name = "matvec-store", .app = "matvec", .runs = 2000, .journal = true},
      {.name = "kmeans-sampled", .app = "kmeans", .runs = 5000,
       .policy = campaign::SamplePolicy::kWeighted, .stop_ci = 0.05,
       .jobs = 2},
  };
  return kWorkloads;
}

apps::AppSpec BuildApp(const std::string& app) {
  if (app == "clamr") return apps::BuildClamr({});
  if (app == "matvec") return apps::BuildMatvec({});
  if (app == "kmeans") return apps::BuildKmeans({});
  throw ConfigError("unknown app '" + app + "'");
}

// ---- Spans ------------------------------------------------------------------

/// The benchmark's own spans, kept in memory and written out at the end.
struct Span {
  std::string name;
  double t0 = 0.0;  // seconds since the run started
  double t1 = 0.0;
  std::int64_t parent = -1;
  std::uint64_t run_seed = 0;  // the trial's seed; the campaign seed above it
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  std::int64_t Open(std::string name, std::int64_t parent,
                    std::uint64_t run_seed) {
    spans_.push_back({std::move(name), Now(), 0.0, parent, run_seed});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void Close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].t1 = Now();
  }
  void WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << StrFormat(
          "{\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f,\"parent\":%lld,"
          "\"run_seed\":%llu}\n",
          s.name.c_str(), s.t0, s.t1, static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.run_seed));
    }
    if (!out) throw ConfigError("cannot write spans to " + path);
  }

 private:
  double Now() const { return SecondsSince(epoch_); }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span that is a no-op when no log is attached (plain variant).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t parent,
             std::uint64_t run_seed = 0)
      : log_(log), id_(log ? log->Open(name, parent, run_seed) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int64_t id_;
};

constexpr int kResumeReps = 5;

// ---- Record comparison (store read-back check) ------------------------------

bool SameRecord(const campaign::RunRecord& a, const campaign::RunRecord& b) {
  return a.outcome == b.outcome && a.kind == b.kind && a.signal == b.signal &&
         a.inject_rank == b.inject_rank && a.failure_rank == b.failure_rank &&
         a.deadlock == b.deadlock &&
         a.propagated_cross_rank == b.propagated_cross_rank &&
         a.propagated_cross_node == b.propagated_cross_node &&
         a.injections == b.injections && a.tainted_reads == b.tainted_reads &&
         a.tainted_writes == b.tainted_writes &&
         a.peak_tainted_bytes == b.peak_tainted_bytes &&
         a.tainted_output_bytes == b.tainted_output_bytes &&
         a.trigger_nth == b.trigger_nth && a.flip_bits == b.flip_bits &&
         a.inject_pc == b.inject_pc && a.inject_class == b.inject_class &&
         a.sample_weight == b.sample_weight && a.run_seed == b.run_seed &&
         a.instructions == b.instructions &&
         a.tb_chain_hits == b.tb_chain_hits && a.tlb_hits == b.tlb_hits &&
         a.tlb_misses == b.tlb_misses && a.trace_dropped == b.trace_dropped &&
         a.taint_lost == b.taint_lost && a.retries == b.retries &&
         a.infra_error == b.infra_error && a.injector == b.injector &&
         a.fault_class == b.fault_class;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ---- One campaign -----------------------------------------------------------

enum class Variant { kPlain, kTraced, kNoTaint, kDurable };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kTraced: return "traced";
    case Variant::kNoTaint: return "notaint";
    case Variant::kDurable: return "durable";
  }
  return "?";
}

/// Everything one campaign yields: scalar samples by name, the trial
/// latencies, and which correctness checks failed.
struct CampaignSample {
  Variant variant = Variant::kPlain;
  std::uint64_t campaign_seed = 0;
  std::string digest;
  std::vector<std::pair<std::string, double>> values;
  std::vector<double> trial_ms;  // successive trial starts on one worker
  std::vector<double> exec_ms;   // the same minus the trial's sink call
  std::vector<std::string> failed_checks;

  void Set(const std::string& k, double v) { values.emplace_back(k, v); }
};

/// Per-trial engine counters readable from the serial Campaign's sink
/// (ParallelCampaign keeps its engines private, so these stay zero there).
struct EngineCounters {
  std::uint64_t tb_execs = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t messages = 0;
  std::uint64_t hub_polls = 0;
  std::uint64_t hub_hits = 0;
};

double HistMeanUs(const std::string& name) {
  obs::Histogram& h =
      obs::Registry::Global().GetHistogram(name, obs::LatencyBoundsNs());
  return h.Count() == 0 ? 0.0
                        : static_cast<double>(h.Sum()) /
                              static_cast<double>(h.Count()) / 1e3;
}

double HistSumMs(const std::string& name) {
  return static_cast<double>(
             obs::Registry::Global()
                 .GetHistogram(name, obs::LatencyBoundsNs())
                 .Sum()) /
         1e6;
}

std::uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

class CampaignRunner {
 public:
  CampaignRunner(const Workload& w, std::string work_dir, SpanLog* spans)
      : w_(w), work_dir_(std::move(work_dir)), spans_(spans) {}

  CampaignSample Run(std::uint64_t campaign_seed, Variant variant) {
    CampaignSample s;
    s.variant = variant;
    s.campaign_seed = campaign_seed;
    const bool traced = variant == Variant::kTraced;
    const bool durable = variant == Variant::kDurable;
    SpanLog* const spans = traced ? spans_ : nullptr;

    const std::string store_dir = work_dir_ + "/store";
    const std::string journal_path = work_dir_ + "/journal.chj";
    fs::remove_all(store_dir);
    fs::remove(journal_path);

    std::unique_ptr<obs::Telemetry> telemetry;
    if (traced || durable) {
      obs::Registry::Global().Reset();
      telemetry = std::make_unique<obs::Telemetry>(obs::TelemetryOptions{});
    }

    ResetPeakRss();
    const Clock::time_point t_start = Clock::now();
    const double cpu_start = CpuSeconds();
    ScopedSpan root(spans, "campaign", -1, campaign_seed);

    // ---- set-up: build, campaign + store construction, golden run --------
    Clock::time_point t = Clock::now();
    apps::AppSpec spec;
    {
      ScopedSpan sp(spans, "apps.build", root.id());
      spec = BuildApp(w_.app);
    }
    s.Set("build_ms", 1e3 * SecondsSince(t));
    const std::string label = spec.name;

    campaign::CampaignConfig config = BaseConfig(spec, campaign_seed);
    config.trace = variant != Variant::kNoTaint;
    config.telemetry = telemetry.get();
    if (durable) config.journal_path = journal_path;

    store::CtrWriterOptions store_options;
    store_options.resume = durable;
    store::CtrStoreWriter writer(store_dir, StoreIdentity(campaign_seed),
                                 store_options);

    // The sink: store append, record copy for the read-back check, and
    // (traced) a span per commit with a child per store add.
    std::vector<campaign::RunRecord> sunk;
    std::vector<double> sink_ms;
    double add_s = 0.0;
    EngineCounters eng;
    std::function<void()> read_engine;  // serial Campaign only
    config.record_sink = [&](const campaign::RunRecord& rec) {
      const Clock::time_point c0 = Clock::now();
      ScopedSpan commit(spans, "sink.commit", run_span_, rec.run_seed);
      if (read_engine) read_engine();
      {
        const Clock::time_point a0 = Clock::now();
        ScopedSpan add(spans, "store.add", commit.id(), rec.run_seed);
        writer.Add(rec);
        add_s += SecondsSince(a0);
      }
      sunk.push_back(rec);
      sink_ms.push_back(1e3 * SecondsSince(c0));
    };
    // Trial latency: trial_chaos fires on the worker thread right before
    // each trial, so the time between two successive starts on one thread is
    // one trial as that worker saw it, sink and journal included. The record
    // sink cannot give this on ParallelCampaign, which feeds it only after
    // the workers have joined.
    std::mutex starts_mu;
    std::map<std::thread::id, Clock::time_point> last_start;
    std::vector<double> trial_ms;
    config.trial_chaos = [&](std::uint64_t, unsigned) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(starts_mu);
      const auto [it, first] =
          last_start.try_emplace(std::this_thread::get_id(), now);
      if (!first) {
        trial_ms.push_back(
            std::chrono::duration<double, std::milli>(now - it->second)
                .count());
        it->second = now;
      }
    };

    std::unique_ptr<campaign::Campaign> serial;
    std::unique_ptr<campaign::ParallelCampaign> parallel;
    if (w_.jobs == 1) {
      serial = std::make_unique<campaign::Campaign>(std::move(spec), config);
    } else {
      parallel = std::make_unique<campaign::ParallelCampaign>(
          std::move(spec), config, w_.jobs);
    }
    // Arming the main thread before RunGolden puts the golden run's phases
    // (translation above all) into the telemetry histograms.
    if (telemetry != nullptr) telemetry->AttachThread("main");
    t = Clock::now();
    {
      ScopedSpan sp(spans, "campaign.golden", root.id());
      serial ? serial->RunGolden() : parallel->RunGolden();
    }
    s.Set("golden_ms", 1e3 * SecondsSince(t));
    const std::uint64_t golden_insns = serial ? serial->golden_instructions()
                                              : parallel->golden_instructions();
    s.Set("golden_insns", static_cast<double>(golden_insns));
    s.Set("setup_s", SecondsSince(t_start));

    if (traced && serial) {
      campaign::Campaign* c = serial.get();
      const int ranks = c->spec().num_ranks;
      std::vector<std::uint64_t> last_execs(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        last_execs[static_cast<std::size_t>(r)] =
            c->cluster().rank_vm(r).tb_executions();
      }
      read_engine = [c, ranks, &eng, last_execs]() mutable {
        for (int r = 0; r < ranks; ++r) {
          const std::uint64_t now = c->cluster().rank_vm(r).tb_executions();
          eng.tb_execs += now - last_execs[static_cast<std::size_t>(r)];
          last_execs[static_cast<std::size_t>(r)] = now;
          const core::TraceLog& log = c->chaser().rank_chaser(r).trace_log();
          eng.trace_events += log.events().size() + log.dropped();
        }
        eng.messages += c->cluster().messages_delivered();
        const hub::HubStats hs = c->chaser().hub().stats();
        eng.hub_polls += hs.polls;
        eng.hub_hits += hs.hits;
      };
    }

    // ---- trial phase --------------------------------------------------------
    const std::uint64_t publishes0 = CounterValue("hub_publish_total");
    const std::uint64_t polls0 = CounterValue("hub_poll_total");
    const double cpu_run0 = CpuSeconds();
    const Clock::time_point t_run = Clock::now();
    campaign::CampaignResult result;
    {
      ScopedSpan sp(spans, "campaign.trials", root.id());
      run_span_ = sp.id();
      result = serial ? serial->Run() : parallel->Run();
    }
    const double run_s = SecondsSince(t_run);
    const double run_cpu_s = CpuSeconds() - cpu_run0;
    if (telemetry != nullptr) telemetry->DetachThread();
    s.Set("trial_phase_s", run_s);
    s.Set("trial_cpu_s", run_cpu_s);
    double sink_s = 0.0;
    for (const double ms : sink_ms) sink_s += ms / 1e3;
    s.Set("sink_s", sink_s);
    s.trial_ms = trial_ms;
    // Serial: interval i holds trial i's own sink call; in parallel the sink
    // ran after the trials, outside every interval.
    s.exec_ms = trial_ms;
    if (serial) {
      for (std::size_t i = 0; i < s.exec_ms.size(); ++i) {
        s.exec_ms[i] -= sink_ms[i];
      }
    }
    s.Set("store_add_us", sunk.empty() ? 0.0 : 1e6 * add_s / sunk.size());
    s.Set("committed", static_cast<double>(result.runs));

    // ---- answer: render + seal the store ------------------------------------
    t = Clock::now();
    std::string report;
    {
      ScopedSpan sp(spans, "report.render", root.id());
      report = result.Render(label);
    }
    s.Set("render_ms", 1e3 * SecondsSince(t));
    t = Clock::now();
    {
      ScopedSpan sp(spans, "store.finish", root.id());
      writer.Finish();
    }
    s.Set("finish_ms", 1e3 * SecondsSince(t));
    s.Set("time_to_answer_s", SecondsSince(t_start));
    s.Set("cpu_s", CpuSeconds() - cpu_start);
    s.Set("peak_rss_mb", PeakRssMb());
    s.digest = Fnv1aHex(report);

    // ---- per-layer counts ---------------------------------------------------
    const tcg::SharedTbCache* cache =
        serial ? serial->shared_tb_cache() : parallel->shared_tb_cache();
    if (cache != nullptr) {
      const tcg::SharedTbCache::Stats cs = cache->stats();
      s.Set("tcg_translations", static_cast<double>(cs.translations));
      s.Set("tcg_reuses", static_cast<double>(cs.reuses));
    }
    AddRecordCounts(result, &s);
    if (telemetry != nullptr) {
      telemetry->Finish();
      s.Set("hub_publishes",
            static_cast<double>(CounterValue("hub_publish_total") -
                                publishes0));
      s.Set("hub_polls",
            static_cast<double>(CounterValue("hub_poll_total") - polls0));
      s.Set("eng_tb_execs", static_cast<double>(eng.tb_execs));
      s.Set("eng_trace_events", static_cast<double>(eng.trace_events));
      s.Set("eng_messages", static_cast<double>(eng.messages));
      s.Set("eng_hub_polls", static_cast<double>(eng.hub_polls));
      s.Set("eng_hub_hits", static_cast<double>(eng.hub_hits));
      s.Set("translate_ms", HistSumMs("phase_translate_ns"));
      s.Set("inject_us", HistMeanUs("phase_inject_ns"));
      s.Set("propagate_us", HistMeanUs("phase_taint-propagate_ns"));
      s.Set("hub_publish_us", HistMeanUs("phase_hub-publish_ns"));
      s.Set("hub_poll_us", HistMeanUs("phase_hub-poll_ns"));
      s.Set("fsync_us", HistMeanUs("phase_journal-fsync_ns"));
      s.Set("fsync_count",
            static_cast<double>(obs::Registry::Global()
                                    .GetHistogram("phase_journal-fsync_ns",
                                                  obs::LatencyBoundsNs())
                                    .Count()));
    }

    // ---- correctness checks (outside the answer time) -----------------------
    if (result.infra > 0) s.failed_checks.push_back("infra-trials");
    if (sunk.size() != result.runs) s.failed_checks.push_back("sink-count");
    {
      ScopedSpan sp(spans, "store.readback", root.id());
      store::CtrStoreScanner scan(store_dir);
      campaign::RunRecord rec;
      std::size_t i = 0;
      bool same = true;
      while (scan.Next(&rec)) {
        same = same && i < sunk.size() && SameRecord(rec, sunk[i]);
        ++i;
      }
      if (!same || i != sunk.size() || scan.truncated() || !scan.sealed()) {
        s.failed_checks.push_back("store-readback");
      }
    }
    s.Set("store_bytes", static_cast<double>(DirBytes(store_dir)));
    t = Clock::now();
    {
      ScopedSpan sp(spans, "store.query", root.id());
      const store::QueryResult q = store::RunQuery(store_dir, {});
      const auto& o = q.total.outcomes;
      using campaign::Outcome;
      const auto at = [&](Outcome k) { return o[static_cast<int>(k)]; };
      if (q.matched != result.runs || at(Outcome::kBenign) != result.benign ||
          at(Outcome::kTerminated) != result.terminated ||
          at(Outcome::kSdc) != result.sdc ||
          at(Outcome::kInfra) != result.infra ||
          at(Outcome::kCrashed) != result.crashed) {
        s.failed_checks.push_back("query-tallies");
      }
    }
    s.Set("query_ms", 1e3 * SecondsSince(t));

    // ---- resume pass --------------------------------------------------------
    serial.reset();
    parallel.reset();
    // Resuming is idempotent, so it is repeated and the fastest pass kept.
    std::vector<double> resume_s, replay_ms;
    for (int rep = 0; rep < kResumeReps; ++rep) {
      t = Clock::now();
      {
        ScopedSpan sp(spans, "resume", root.id());
        double ms = 0.0;
        const std::string again = Resume(label, campaign_seed, store_dir,
                                         durable ? journal_path : "",
                                         config.trace, spans,
                                         sp.id(), &s, &ms);
        replay_ms.push_back(ms);
        if (again != report) s.failed_checks.push_back("resume-identity");
      }
      resume_s.push_back(SecondsSince(t));
    }
    s.Set("resume_s", *std::min_element(resume_s.begin(), resume_s.end()));
    s.Set("replay_ms", *std::min_element(replay_ms.begin(), replay_ms.end()));
    return s;
  }

 private:
  store::CtrStoreInfo StoreIdentity(std::uint64_t seed) const {
    store::CtrStoreInfo identity;
    identity.campaign_seed = seed;
    identity.app = w_.app;
    identity.sample_policy = w_.policy;
    return identity;
  }

  campaign::CampaignConfig BaseConfig(const apps::AppSpec& spec,
                                      std::uint64_t seed) const {
    campaign::CampaignConfig config;
    config.runs = w_.runs;
    config.seed = seed;
    if (w_.inject_all_ranks) {
      for (Rank r = 0; r < spec.num_ranks; ++r) config.inject_ranks.insert(r);
    }
    config.sample_policy = w_.policy;
    config.stop_ci = w_.stop_ci;
    return config;
  }

  static void AddRecordCounts(const campaign::CampaignResult& r,
                              CampaignSample* s) {
    std::uint64_t insns = 0, reads = 0, writes = 0, chain = 0, tlb_hits = 0,
                  tlb_misses = 0, dropped = 0;
    std::vector<double> peak;
    for (const campaign::RunRecord& rec : r.records) {
      insns += rec.instructions;
      reads += rec.tainted_reads;
      writes += rec.tainted_writes;
      chain += rec.tb_chain_hits;
      tlb_hits += rec.tlb_hits;
      tlb_misses += rec.tlb_misses;
      dropped += rec.trace_dropped;
      peak.push_back(static_cast<double>(rec.peak_tainted_bytes));
    }
    std::sort(peak.begin(), peak.end());
    s->Set("infra", static_cast<double>(r.infra));
    s->Set("insns", static_cast<double>(insns));
    s->Set("tainted_reads", static_cast<double>(reads));
    s->Set("tainted_writes", static_cast<double>(writes));
    s->Set("peak_tainted_p50",
           peak.empty() ? 0.0 : peak[(peak.size() - 1) / 2]);
    s->Set("chain_hits", static_cast<double>(chain));
    s->Set("tlb_hits", static_cast<double>(tlb_hits));
    s->Set("tlb_misses", static_cast<double>(tlb_misses));
    s->Set("trace_dropped", static_cast<double>(dropped));
    s->Set("estimates", r.has_estimates ? 1.0 : 0.0);
    s->Set("effective_n", r.effective_n);
  }

  /// Re-derive the finished campaign's report with no trial executed, the
  /// way a restarted process does: build the app and run golden (a resume
  /// needs the profile for any trial still missing), replay every record,
  /// render. With a journal (`journal_path` non-empty) this is `chaser_run
  /// --resume` on the finished journal and store; without one the records
  /// are replayed from the CTR store through the fleet merge reduction (one
  /// shard), the store as the resume source.
  std::string Resume(const std::string& label, std::uint64_t seed,
                     const std::string& store_dir,
                     const std::string& journal_path, bool trace,
                     SpanLog* spans, std::int64_t parent, CampaignSample* s,
                     double* replay_ms) {
    apps::AppSpec spec = BuildApp(w_.app);
    campaign::CampaignConfig config = BaseConfig(spec, seed);
    config.trace = trace;
    std::uint64_t executed = 0;
    config.trial_chaos = [&executed](std::uint64_t, unsigned) { ++executed; };
    std::unique_ptr<store::CtrStoreWriter> writer;
    if (!journal_path.empty()) {
      config.journal_path = journal_path;
      store::CtrWriterOptions store_options;
      store_options.resume = true;
      writer = std::make_unique<store::CtrStoreWriter>(
          store_dir, StoreIdentity(seed), store_options);
      config.record_sink = [w = writer.get()](const campaign::RunRecord& rec) {
        w->Add(rec);
      };
    }
    campaign::Campaign c(std::move(spec), config);
    c.RunGolden();
    campaign::CampaignResult again;
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan sp(spans, "resume.replay", parent);
      if (!journal_path.empty()) {
        again = c.Run();
      } else {
        campaign::MergePlan plan{.app = w_.app, .runs = w_.runs, .seed = seed,
                                 .sample_policy = w_.policy,
                                 .stop_ci = w_.stop_ci};
        store::CtrStoreScanner scan(store_dir);
        std::vector<campaign::ShardRecordStream> streams;
        streams.emplace_back(
            [&scan](campaign::RunRecord* r) { return scan.Next(r); });
        again = campaign::MergeShardStreams(plan, std::move(streams));
      }
    }
    *replay_ms = 1e3 * SecondsSince(t);
    if (writer != nullptr) {
      writer->Finish();
      if (writer->stored() != again.runs) {
        s->failed_checks.push_back("resume-store-count");
      }
    }
    if (executed != 0) s->failed_checks.push_back("resume-executed-trials");
    return again.Render(label);
  }

  const Workload& w_;
  std::string work_dir_;
  SpanLog* spans_;
  std::int64_t run_span_ = -1;
};

// ---- Output -----------------------------------------------------------------

void PrintDoubles(const std::vector<double>& v) {
  std::printf("[");
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.6f", i ? "," : "", v[i]);
  }
  std::printf("]");
}

void PrintSample(const CampaignSample& s) {
  std::printf("{\"variant\":\"%s\",\"campaign_seed\":%llu,\"digest\":\"%s\"",
              VariantName(s.variant),
              static_cast<unsigned long long>(s.campaign_seed),
              s.digest.c_str());
  for (const auto& [k, v] : s.values) {
    std::printf(",\"%s\":%.17g", k.c_str(), v);
  }
  std::printf(",\"failed_checks\":[");
  for (std::size_t i = 0; i < s.failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", s.failed_checks[i].c_str());
  }
  std::printf("],\"trial_ms\":");
  PrintDoubles(s.trial_ms);
  std::printf(",\"exec_ms\":");
  PrintDoubles(s.exec_ms);
  std::printf("}");
}

std::uint64_t ArgU64(int argc, char** argv, int& i, const char* flag) {
  std::uint64_t v = 0;
  if (i + 1 >= argc || !ParseU64(argv[++i], &v)) {
    throw ConfigError(std::string("bad or missing value for ") + flag);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string workload_name;
    std::string work_dir;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    std::uint64_t runs = 0;           // 0 = the workload's own size
    std::uint64_t max_campaigns = 0;  // 0 = as many as fit in --seconds
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload" && i + 1 < argc) {
        workload_name = argv[++i];
      } else if (a == "--work-dir" && i + 1 < argc) {
        work_dir = argv[++i];
      } else if (a == "--seed") {
        seed = ArgU64(argc, argv, i, "--seed");
      } else if (a == "--seconds") {
        seconds = ArgU64(argc, argv, i, "--seconds");
      } else if (a == "--trace") {
        trace = ArgU64(argc, argv, i, "--trace");
      } else if (a == "--runs") {
        runs = ArgU64(argc, argv, i, "--runs");
      } else if (a == "--max-campaigns") {
        max_campaigns = ArgU64(argc, argv, i, "--max-campaigns");
      } else {
        throw ConfigError("unknown or incomplete flag '" + a + "'");
      }
    }
    const auto& all = Workloads();
    const auto it =
        std::find_if(all.begin(), all.end(), [&](const Workload& w) {
          return w.name == workload_name;
        });
    if (it == all.end()) {
      throw ConfigError("unknown --workload '" + workload_name + "'");
    }
    if (work_dir.empty()) throw ConfigError("--work-dir is required");
    Workload w = *it;
    if (runs > 0) w.runs = runs;
    fs::create_directories(work_dir);

    const Clock::time_point epoch = Clock::now();
    SpanLog spans(epoch);
    CampaignRunner runner(w, work_dir, &spans);
    const std::vector<std::uint64_t> seeds =
        campaign::Campaign::DeriveTrialSeeds(seed, 4096);
    std::vector<Variant> order = {Variant::kPlain};
    if (trace != 0) {
      order = {Variant::kPlain, Variant::kTraced, Variant::kNoTaint};
      if (w.journal) order.push_back(Variant::kDurable);
    }

    std::vector<CampaignSample> samples;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      if (k > 0 && SecondsSince(epoch) >= static_cast<double>(seconds)) break;
      if (max_campaigns > 0 && k >= max_campaigns) break;
      for (const Variant v : order) {
        // The host-speed reference brackets each campaign, outside its spans.
        const double ref_before = HostSpeedSeconds(w.jobs);
        CampaignSample s = runner.Run(seeds[k], v);
        s.Set("ref_before_s", ref_before);
        s.Set("ref_after_s", HostSpeedSeconds(w.jobs));
        samples.push_back(std::move(s));
      }
      // Rotate so no variant always runs first on a campaign seed.
      std::rotate(order.begin(), order.begin() + 1, order.end());
    }
    const std::string spans_path = work_dir + "/spans.jsonl";
    if (trace != 0) spans.WriteJsonLines(spans_path);

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"runs\":%llu,"
                "\"spans\":\"%s\",\"campaigns\":[",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(w.runs),
                trace != 0 ? spans_path.c_str() : "");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i) std::printf(",");
      PrintSample(samples[i]);
    }
    std::printf("]}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
