#include "core/chaser.h"

#include <stdexcept>

#include "common/error.h"
#include "common/log.h"
#include "common/strings.h"
#include "obs/profiler.h"

namespace chaser::core {

Chaser::Chaser(vm::Vm& vm) : Chaser(vm, Options{}) {}

Chaser::Chaser(vm::Vm& vm, Options options)
    : vm_(vm), options_(options), trace_log_(options.trace_capacity) {
  // fi_creation_cb: screen newly created processes for the target.
  vm_.set_on_process_create([this](vm::Vm&, Pid, const std::string& name) {
    OnProcessCreate(name);
  });
}

void Chaser::Arm(InjectionCommand cmd) {
  if (!cmd.TraceOnly() && cmd.trigger->SiteLocal() && !cmd.profile_sites) {
    throw ConfigError(StrFormat(
        "Chaser: trigger %s counts executions per site; the command must "
        "set profile_sites", cmd.trigger->Describe().c_str()));
  }
  cmd_ = std::move(cmd);
  rng_.reset();
  // If the target process is already running, attach right away.
  if (vm_.program() != nullptr && vm_.run_state() != vm::RunState::kTerminated &&
      vm_.process_name() == cmd_->target_program) {
    Attach();
  }
}

void Chaser::Disarm() {
  Detach();
  cmd_.reset();
}

void Chaser::OnProcessCreate(const std::string& name) {
  if (!cmd_ || name != cmd_->target_program) return;
  Attach();
}

void Chaser::Attach() {
  // Fresh per-run state (campaigns re-Start the same VM repeatedly).
  exec_count_ = 0;
  // Only an instrumented run counts sites; a trace-only rank keeps none.
  const bool count_sites = cmd_->profile_sites && !cmd_->TraceOnly();
  site_execs_.assign(count_sites ? vm_.program()->text.size() : 0, 0);
  fired_ = false;
  records_.clear();
  trace_log_.Clear();
  taint_timeline_.clear();
  attached_ = true;

  if (!cmd_->TraceOnly()) {
    trigger_ = cmd_->trigger->Clone();
    injector_active_ = true;
    const std::set<guest::InstrClass> classes = cmd_->target_classes;
    // The predicate is a pure function of the target-class set, so key it
    // for the shared translation cache: every trial targeting the same
    // classes shares one set of instrumented TBs. Bit 63 keeps user keys
    // disjoint from the reserved clean/unshareable keys (1/0).
    std::uint64_t key = 1469598103934665603ull;
    for (const guest::InstrClass c : classes) {  // std::set: sorted, stable
      key ^= static_cast<std::uint64_t>(c);
      key *= 1099511628211ull;
    }
    key |= 1ull << 63;
    vm_.SetInstrumentPredicate(
        [classes](const guest::Instruction& in, std::uint64_t) {
          return classes.count(guest::ClassOf(in.op)) != 0;
        },
        key);
    vm_.set_injector_hook(
        [this](vm::Vm&, std::uint64_t pc) { OnInjectorHelper(pc); });
  } else {
    trigger_.reset();
    injector_active_ = false;
    vm_.SetInstrumentPredicate(nullptr);
    vm_.set_injector_hook(nullptr);
  }
  vm_.FlushTbCache();

  if (cmd_->trace) {
    vm_.taint().set_enabled(true);
    vm_.taint().set_on_tainted_read([this](const taint::TaintMemAccess& a) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedRead, .rank = rank_,
                      .instret = vm_.instret(), .pc = a.pc, .vaddr = a.vaddr,
                      .paddr = a.paddr, .size = a.size, .value = a.value,
                      .taint = a.taint});
    });
    vm_.taint().set_on_tainted_write([this](const taint::TaintMemAccess& a) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedWrite, .rank = rank_,
                      .instret = vm_.instret(), .pc = a.pc, .vaddr = a.vaddr,
                      .paddr = a.paddr, .size = a.size, .value = a.value,
                      .taint = a.taint});
    });
    vm_.SetTaintedOutputHook([this](vm::Vm& v, const vm::Vm::TaintedOutputByte& b) {
      trace_log_.Add({.kind = TraceEventKind::kTaintedOutput, .rank = rank_,
                      .instret = v.instret(), .pc = v.cpu().pc, .vaddr = b.vaddr,
                      .paddr = b.paddr, .size = 1, .value = b.value,
                      .taint = b.taint, .fd = b.fd, .stream_off = b.stream_off});
    });
    if (options_.taint_sample_interval > 0) {
      vm_.SetInstretSample(
          options_.taint_sample_interval, [this](vm::Vm& v, std::uint64_t instret) {
            taint_timeline_.push_back(
                {rank_, instret, v.taint().CountTaintedBytes()});
          });
    }
    if (options_.granularity == TraceGranularity::kInstruction) {
      vm_.SetInsnTraceHook([this](vm::Vm& v, std::uint64_t pc) {
        trace_log_.Add({.kind = TraceEventKind::kInstruction, .rank = rank_,
                        .instret = v.instret(), .pc = pc});
      });
    } else {
      vm_.SetInsnTraceHook(nullptr);
    }
  } else {
    vm_.taint().set_enabled(false);
    vm_.SetInstretSample(0, nullptr);
    vm_.SetInsnTraceHook(nullptr);
    vm_.SetTaintedOutputHook(nullptr);
  }
}

void Chaser::Detach() {
  attached_ = false;
  injector_active_ = false;
  trigger_.reset();
  vm_.SetInstrumentPredicate(nullptr);
  vm_.set_injector_hook(nullptr);
  vm_.RequestTbFlush();
}

void Chaser::OnInjectorHelper(std::uint64_t pc) {
  if (!injector_active_ || !cmd_) return;
  ++exec_count_;
  const std::uint64_t site_count =
      cmd_->profile_sites ? ++site_execs_[pc] : 0;
  if (!trigger_->ShouldFireAt(exec_count_, pc, site_count, rng())) {
    if (trigger_->Expired()) {
      // fi_clean_cb: stop screening and flush the instrumentation out of the
      // translation cache; tracing (taint) stays on.
      injector_active_ = false;
      vm_.SetInstrumentPredicate(nullptr);
      vm_.set_injector_hook(nullptr);
      vm_.RequestTbFlush();
    }
    return;
  }

  fired_ = true;
  const obs::ScopedPhase obs_scope(obs::Phase::kInject);
  const guest::Instruction& instr = vm_.program()->text[pc];
  InjectionContext ctx{vm_, pc, instr, exec_count_, vm_.instret(), rng(), records_};
  const std::size_t before = records_.size();
  cmd_->injector->Inject(ctx);
  for (std::size_t i = before; i < records_.size(); ++i) {
    InjectionRecord& rec = records_[i];
    rec.pc = pc;
    rec.exec_count = exec_count_;
    rec.instr_class = guest::ClassOf(instr.op);
    trace_log_.Add({.kind = TraceEventKind::kInjection, .rank = rank_,
                    .instret = vm_.instret(), .pc = pc, .vaddr = rec.vaddr,
                    .paddr = 0, .size = 8, .value = rec.new_value,
                    .taint = rec.flip_mask});
    LogDebug(rec.Describe());
  }

  if (trigger_->Expired()) {
    injector_active_ = false;
    vm_.SetInstrumentPredicate(nullptr);
    vm_.set_injector_hook(nullptr);
    vm_.RequestTbFlush();
  }
}

void Chaser::SaveCheckpoint(Checkpoint* out) const {
  if (fired_ || !records_.empty() || !trace_log_.events().empty() ||
      trace_log_.dropped() != 0) {
    throw std::logic_error(
        "Chaser::SaveCheckpoint: the run already injected or traced; "
        "checkpoints hold fault-free prefixes only");
  }
  out->exec_count = exec_count_;
  out->site_execs = site_execs_;
  out->taint_timeline = taint_timeline_;
}

void Chaser::RestoreCheckpoint(const Checkpoint& cp) {
  if (cp.site_execs.size() != site_execs_.size()) {
    throw std::logic_error(
        "Chaser::RestoreCheckpoint: checkpoint taken by a run that counted "
        "sites differently");
  }
  exec_count_ = cp.exec_count;
  site_execs_ = cp.site_execs;
  taint_timeline_ = cp.taint_timeline;
}

}  // namespace chaser::core
