// Phase profiler: RAII scoped timers over the campaign's hot phases.
//
// Every layer brackets its interesting work with a ScopedPhase. When the
// current thread has no profiler attached (telemetry off — the default),
// the scope costs one thread_local load and a predictable branch, which is
// what keeps the bench_ablation_obs guard under its 2% budget. When a
// profiler is attached (obs::Telemetry::AttachThread), each scope:
//
//   * feeds a per-phase latency histogram in the metrics registry, and
//   * when Chrome tracing is on, buffers a span that the TraceJsonWriter
//     later emits as a trace-event (`ph:"X"`) on this thread's tid.
//
// Identity-safety: timers read the monotonic clock and touch only obs
// state. They never read or write guest, RNG, hub, or record state, so
// campaign outputs are byte-identical with profiling on or off.
#pragma once

#include <cstdint>
#include <vector>

namespace chaser::obs {

class Registry;
class Histogram;
class TraceJsonWriter;

/// The instrumented phases. Order is stable (it names histogram metrics and
/// trace spans); append only.
enum class Phase : std::uint8_t {
  kGolden = 0,      // the one-time clean profiling run
  kTrial,           // one whole injection trial (driver-emitted span)
  kTranslate,       // guest block -> TCG ops (shared-cache miss path)
  kExecute,         // Cluster::Run of one trial's guest execution
  kInject,          // injector helper firing (bit flips applied)
  kTaintPropagate,  // send-side shadow scan + receive-side re-taint
  kHubPublish,      // TaintHub::Publish
  kHubPoll,         // TaintHub poll (incl. retries) at receive completion
  kJournalFsync,    // crash-safe journal append (write+flush+fsync)
  kReset,           // a trial's restart: Cluster::Start + ladder restore
};
inline constexpr std::size_t kNumPhases = 10;

const char* PhaseName(Phase p);

/// Nanoseconds on the process-wide monotonic clock (steady_clock, rebased
/// to the first call so spans start near zero).
std::uint64_t MonotonicNanos();

/// Wall-clock microseconds (Unix epoch) at this process's monotonic zero,
/// sampled in the same instant MonotonicNanos() was rebased. monotonic_ns /
/// 1000 + RealtimeAnchorUs() places any span on the shared wall clock,
/// which is how chaser_fleet's trace merge aligns per-process timelines.
std::uint64_t RealtimeAnchorUs();

/// One buffered span (tracing only).
struct PhaseSpan {
  Phase phase = Phase::kTrial;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t depth = 0;  // nesting depth at entry (0 = outermost)
};

/// Per-thread profiler. One per attached campaign thread; owned by
/// obs::Telemetry, published to the thread via SetThreadProfiler. Not
/// thread-safe by design — the owning thread is the only writer, and the
/// writer flush hands buffered spans over under the writer's lock.
class PhaseProfiler {
 public:
  /// `registry` feeds phase latency histograms (required); `writer` is null
  /// when Chrome tracing is off. `tid` is the trace thread id.
  PhaseProfiler(Registry* registry, TraceJsonWriter* writer, std::uint32_t tid);
  ~PhaseProfiler();

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Record one completed scope. `depth` is the nesting depth at entry.
  void Record(Phase p, std::uint64_t t0_ns, std::uint64_t t1_ns,
              std::uint32_t depth);

  /// Current nesting depth of open ScopedPhase frames on this thread.
  std::uint32_t depth() const { return depth_; }
  std::uint32_t tid() const { return tid_; }

  /// Hand buffered spans to the writer (no-op without a writer). Called on
  /// detach and destruction; also self-triggered past a buffer threshold.
  void Flush();

 private:
  friend class ScopedPhase;
  Histogram* phase_ns_[kNumPhases] = {};
  TraceJsonWriter* writer_ = nullptr;
  std::uint32_t tid_ = 0;
  std::uint32_t depth_ = 0;
  std::vector<PhaseSpan> spans_;
};

/// The profiler attached to the current thread, or null (telemetry off).
PhaseProfiler* ThreadProfiler();
/// Attach/detach the current thread's profiler (obs::Telemetry calls this).
void SetThreadProfiler(PhaseProfiler* p);

/// RAII scope: near-free when no profiler is attached to this thread.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p) : prof_(ThreadProfiler()), phase_(p) {
    if (prof_ != nullptr) {
      depth_ = prof_->depth_++;
      t0_ = MonotonicNanos();
    }
  }
  ~ScopedPhase() {
    if (prof_ != nullptr) {
      --prof_->depth_;
      prof_->Record(phase_, t0_, MonotonicNanos(), depth_);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* prof_;
  Phase phase_;
  std::uint32_t depth_ = 0;
  std::uint64_t t0_ = 0;
};

}  // namespace chaser::obs
