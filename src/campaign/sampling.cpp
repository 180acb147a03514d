#include "campaign/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace chaser::campaign {

const char* SamplePolicyName(SamplePolicy p) {
  switch (p) {
    case SamplePolicy::kUniform: return "uniform";
    case SamplePolicy::kWeighted: return "weighted";
    case SamplePolicy::kStratified: return "stratified";
  }
  return "?";
}

bool ParseSamplePolicy(const std::string& name, SamplePolicy* out) {
  if (name == "uniform") {
    *out = SamplePolicy::kUniform;
  } else if (name == "weighted") {
    *out = SamplePolicy::kWeighted;
  } else if (name == "stratified") {
    *out = SamplePolicy::kStratified;
  } else {
    return false;
  }
  return true;
}

bool ParseStopCi(const std::string& text, double* out) {
  double w = 0.0;
  if (!ParseDouble(text, &w) || !(w > 0.0 && w < 1.0)) return false;
  *out = w;
  return true;
}

// ---- SamplingPlan ------------------------------------------------------------

SamplingPlan SamplingPlan::Build(const GoldenSiteMap& sites) {
  // Key classes by (pc, cls). A map keeps construction order-independent of
  // rank iteration and the final list sorted — the determinism anchor.
  std::map<std::pair<std::uint64_t, guest::InstrClass>, SiteClass> classes;
  for (const auto& [rank, rank_sites] : sites) {
    for (const GoldenSite& s : rank_sites) {
      if (s.execs == 0) continue;
      SiteClass& c = classes[{s.pc, s.cls}];
      c.pc = s.pc;
      c.cls = s.cls;
      c.mass += s.execs;
      c.members.emplace_back(rank, s.execs);  // outer map: ranks ascending
    }
  }
  SamplingPlan plan;
  plan.classes_.reserve(classes.size());
  plan.cum_.reserve(classes.size());
  for (auto& [key, c] : classes) {
    plan.total_mass_ += c.mass;
    plan.classes_.push_back(std::move(c));
    plan.cum_.push_back(plan.total_mass_);
  }
  if (plan.total_mass_ == 0) {
    throw ConfigError(
        "SamplingPlan: golden profile has no targeted executions to sample");
  }
  return plan;
}

SiteDraw SamplingPlan::DrawInClass(std::size_t c, std::uint64_t offset) const {
  // `offset` is 1-based within the class's mass; walk the members (rank
  // ascending) to find which rank's invocation it lands on.
  const SiteClass& cls = classes_[c];
  SiteDraw d;
  d.pc = cls.pc;
  d.cls = cls.cls;
  for (const auto& [rank, execs] : cls.members) {
    if (offset <= execs) {
      d.rank = rank;
      d.nth = offset;
      return d;
    }
    offset -= execs;
  }
  // Unreachable for offset in [1, mass]: the members sum to the mass.
  throw ConfigError(StrFormat(
      "SamplingPlan: draw offset beyond class mass at pc %llu",
      static_cast<unsigned long long>(cls.pc)));
}

SiteDraw SamplingPlan::Draw(SamplePolicy policy, Rng& rng) const {
  switch (policy) {
    case SamplePolicy::kWeighted: {
      // One uniform draw over the total mass is simultaneously the class
      // pick, the member pick, and the invocation pick — i.e. uniform over
      // every golden invocation, so the weight is 1.
      const std::uint64_t u = rng.UniformU64(1, total_mass_);
      const std::size_t c = static_cast<std::size_t>(
          std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
      const std::uint64_t before = c == 0 ? 0 : cum_[c - 1];
      SiteDraw d = DrawInClass(c, u - before);
      d.weight = 1.0;
      return d;
    }
    case SamplePolicy::kStratified: {
      // Classes uniform (rare sites get equal attention), invocation uniform
      // within the class; the Horvitz-Thompson-style weight maps the draw
      // back to the uniform-over-invocations estimand.
      const std::size_t c = rng.Index(classes_.size());
      const std::uint64_t v = rng.UniformU64(1, classes_[c].mass);
      SiteDraw d = DrawInClass(c, v);
      d.weight = static_cast<double>(classes_[c].mass) *
                 static_cast<double>(classes_.size()) /
                 static_cast<double>(total_mass_);
      return d;
    }
    case SamplePolicy::kUniform:
      break;
  }
  throw ConfigError("SamplingPlan: kUniform uses the legacy draw, not a plan");
}

// ---- Wilson intervals --------------------------------------------------------

WilsonInterval WilsonScore(double p_hat, double n_eff, double z) {
  WilsonInterval w;
  if (n_eff <= 0.0) return w;  // no data: the vacuous [0, 1] interval
  p_hat = std::clamp(p_hat, 0.0, 1.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n_eff;
  const double center = (p_hat + z2 / (2.0 * n_eff)) / denom;
  const double half =
      z *
      std::sqrt(p_hat * (1.0 - p_hat) / n_eff + z2 / (4.0 * n_eff * n_eff)) /
      denom;
  w.rate = p_hat;
  w.lo = std::max(0.0, center - half);
  w.hi = std::min(1.0, center + half);
  return w;
}

// ---- OutcomeEstimator --------------------------------------------------------

void OutcomeEstimator::Add(int outcome, bool deadlock, double weight) {
  // kInfra (3) is not an injection outcome; kCrashed (4) is, but it is not
  // one of the benign/terminated/sdc series this estimator tracks.
  if (outcome < 0 || outcome > 2) return;
  if (weight <= 0.0) return;
  wsum_[outcome] += weight;
  if (outcome == kTerminated && deadlock) wsum_[kHang] += weight;
  w_total_ += weight;
  w2_total_ += weight * weight;
  ++n_;
}

double OutcomeEstimator::effective_n() const {
  return w2_total_ > 0.0 ? w_total_ * w_total_ / w2_total_ : 0.0;
}

WilsonInterval OutcomeEstimator::Interval(Series s, double z) const {
  if (w_total_ <= 0.0) return WilsonInterval{};
  return WilsonScore(wsum_[s] / w_total_, effective_n(), z);
}

bool OutcomeEstimator::Converged(double max_width, double z) const {
  if (n_ == 0) return false;
  for (int s = 0; s < kNumSeries; ++s) {
    if (Interval(static_cast<Series>(s), z).width() > max_width) return false;
  }
  return true;
}

// ---- SampleController --------------------------------------------------------

SampleController::SampleController(SamplePolicy policy, double stop_ci)
    : policy_(policy), stop_ci_(stop_ci) {}

bool SampleController::Commit(int outcome, bool deadlock, double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (converged_) return true;  // sticky: the stop point never moves
  estimator_.Add(outcome, deadlock, weight);
  ++committed_;
  if (stop_ci_ > 0.0 && committed_ >= kMinStopTrials &&
      estimator_.Converged(stop_ci_)) {
    converged_ = true;
  }
  return converged_;
}

std::uint64_t SampleController::committed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_;
}

bool SampleController::converged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return converged_;
}

OutcomeEstimator SampleController::estimator() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return estimator_;
}

obs::EstimateSnapshot SampleController::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::EstimateSnapshot snap;
  snap.trials = estimator_.trials();
  snap.effective_n = estimator_.effective_n();
  snap.stop_width = stop_ci_;
  snap.converged = converged_;
  const auto fill = [&](OutcomeEstimator::Series s,
                        obs::OutcomeIntervalSnapshot* out) {
    const WilsonInterval w = estimator_.Interval(s);
    out->rate = w.rate;
    out->lo = w.lo;
    out->hi = w.hi;
  };
  fill(OutcomeEstimator::kBenign, &snap.benign);
  fill(OutcomeEstimator::kTerminated, &snap.terminated);
  fill(OutcomeEstimator::kSdc, &snap.sdc);
  fill(OutcomeEstimator::kHang, &snap.hang);
  return snap;
}

}  // namespace chaser::campaign
