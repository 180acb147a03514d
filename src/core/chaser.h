// Chaser: the fault-injection and propagation-tracing framework, attached to
// one VM (one guest process).
//
// Mirrors the paper's plugin flow (§III-A(c), Fig. 4):
//
//   inject_fault command      -> InjectionCommand (fi_cmds_st)
//   fi_creation_cb            -> VMI process-create callback; on a name match,
//                                Chaser flushes the TB cache and installs the
//                                instrumentation predicate for the targeted
//                                instruction classes only
//   DECAF_inject_fault helper -> OnInjectorHelper: bump the executed counter,
//                                ask the trigger (fi_trigger_st), invoke the
//                                user's FaultInjector when it fires
//   fi_clean_cb               -> when the trigger expires, the injector is
//                                detached and the instrumentation flushed out
//   tainted_mem_rd/wt_cb      -> TraceLog records (eip, vaddr, paddr, taint,
//                                value), plus the tainted-bytes timeline
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/injector.h"
#include "core/trace.h"
#include "core/trigger.h"
#include "guest/isa.h"
#include "vm/vm.h"

namespace chaser::core {

/// The user's full injection request (the paper's fi_cmds_st): what
/// application, which instructions, when to fire, and how to corrupt.
struct InjectionCommand {
  std::string target_program;                    // matched against process name
  std::set<guest::InstrClass> target_classes;    // e.g. {kFadd} or {kMov}
  std::shared_ptr<const Trigger> trigger;        // cloned per run; null = trace-only
  std::shared_ptr<FaultInjector> injector;       // null = trace-only
  bool trace = true;                             // enable propagation tracing
  std::uint64_t seed = 1;                        // injector/trigger randomness
  /// Count the executions of each targeted pc (site_execs()). Sampled
  /// campaigns enable this on the golden run, to build their
  /// importance-sampling frame, and on every trial, whose site-local
  /// trigger fires from these counts. Off by default — it adds an array
  /// update per targeted execution. Required by a site-local trigger.
  bool profile_sites = false;

  /// True if this command only traces (no instrumentation is inserted).
  bool TraceOnly() const { return trigger == nullptr || injector == nullptr; }
};

class Chaser {
 public:
  enum class TraceGranularity : std::uint8_t {
    /// Chaser's design: record tainted memory accesses only (paper SII-C(b)).
    kMemoryAccess,
    /// The rejected alternative: additionally record *every* instruction
    /// retired while taint is live. Complete but prohibitively expensive;
    /// kept for the ablation that reproduces the paper's design argument.
    kInstruction,
  };

  struct Options {
    std::size_t trace_capacity = 1u << 17;
    /// Sample the tainted-byte count every N retired instructions
    /// (paper Fig. 7 samples every 100K). 0 disables the timeline.
    std::uint64_t taint_sample_interval = 100'000;
    TraceGranularity granularity = TraceGranularity::kMemoryAccess;
  };

  explicit Chaser(vm::Vm& vm);
  Chaser(vm::Vm& vm, Options options);

  // Non-copyable: registers callbacks pointing at itself.
  Chaser(const Chaser&) = delete;
  Chaser& operator=(const Chaser&) = delete;

  /// Register the command. Attachment happens when a process whose name
  /// matches `cmd.target_program` is created in the VM.
  void Arm(InjectionCommand cmd);

  /// Drop the command and detach from the current process.
  void Disarm();

  /// Set the rank label stamped on trace events (ChaserMpi uses this).
  void set_rank(Rank rank) { rank_ = rank; }

  // ---- Per-run results ------------------------------------------------------
  bool attached() const { return attached_; }
  /// Executions of targeted instructions observed so far (profiling runs use
  /// this with a NeverTrigger to size deterministic triggers).
  std::uint64_t targeted_executions() const { return exec_count_; }
  /// Per-pc execution counts of the targeted instructions, indexed by pc —
  /// sized to the program text only when the armed command set
  /// `profile_sites` and instruments this run (empty otherwise). The counts
  /// sum to targeted_executions().
  const std::vector<std::uint64_t>& site_execs() const { return site_execs_; }
  /// True once the trigger has fired in this run: from then on the run's
  /// state is its own, no longer a prefix shared with other runs.
  bool fired() const { return fired_; }
  const std::vector<InjectionRecord>& injections() const { return records_; }
  TraceLog& trace_log() { return trace_log_; }
  const TraceLog& trace_log() const { return trace_log_; }
  const std::vector<TaintSample>& taint_timeline() const { return taint_timeline_; }

  vm::Vm& vm() { return vm_; }
  /// The run's generator, seeded from the armed command on first use: a
  /// trace-only rank never draws, so it never pays for seeding one.
  Rng& rng() {
    if (!rng_) rng_.emplace(cmd_ ? cmd_->seed : 0);
    return *rng_;
  }

  /// Per-run state of a fault-free prefix: the targeted-execution count,
  /// the per-pc site counts (empty unless the command profiles sites) and
  /// the taint timeline. Everything else a run accumulates (injections,
  /// trace events) is empty until a fault fires.
  struct Checkpoint {
    std::uint64_t exec_count = 0;
    std::vector<std::uint64_t> site_execs;
    std::vector<TaintSample> taint_timeline;
  };
  /// Throws std::logic_error if the trigger fired or an injection or trace
  /// event already exists.
  void SaveCheckpoint(Checkpoint* out) const;
  /// Overwrite the attached run's state with `cp`.
  void RestoreCheckpoint(const Checkpoint& cp);

 private:
  void OnProcessCreate(const std::string& name);
  void Attach();
  void Detach();
  void OnInjectorHelper(std::uint64_t pc);

  vm::Vm& vm_;
  Options options_;
  Rank rank_ = -1;

  std::optional<InjectionCommand> cmd_;
  std::unique_ptr<Trigger> trigger_;   // per-run clone
  bool attached_ = false;
  bool injector_active_ = false;
  bool fired_ = false;

  std::uint64_t exec_count_ = 0;
  std::vector<std::uint64_t> site_execs_;  // pc -> executions
  std::vector<InjectionRecord> records_;
  TraceLog trace_log_;
  std::vector<TaintSample> taint_timeline_;
  std::optional<Rng> rng_;  // see rng(); last, away from the hot fields
};

}  // namespace chaser::core
