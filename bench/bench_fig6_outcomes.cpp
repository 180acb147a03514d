// Fig. 6 — Fault-injection outcome distributions for bfs, kmeans, lud,
// Matvec and CLAMR (benign / terminated / SDC), plus the §IV-B CLAMR
// detected/undetected split (paper: 83.71% detected, 11.89% undetected but
// correct, 4.38% undetected and incorrect).
#include <cstdio>

#include "apps/app.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "campaign/report.h"

namespace {

struct Row {
  const char* name;
  chaser::campaign::CampaignResult result;
};

}  // namespace

int main() {
  using namespace chaser;
  bench::PrintHeader("Fig. 6: Fault injection results (benign/terminated/SDC)",
                     "paper Fig. 6 + the CLAMR detection split of SIV-B");
  const std::uint64_t runs = bench::RunsFromEnv(400);
  const unsigned jobs = bench::JobsFromEnv();
  std::printf("runs per application: %llu (paper: 3000-5000), %u workers\n\n",
              static_cast<unsigned long long>(runs),
              jobs);

  // Parallel-engine speedup, recorded on a 1000-run kmeans campaign; the
  // outcome counts are compared so any serial/parallel divergence is visible
  // right in the bench output.
  {
    campaign::CampaignConfig config;
    config.runs = bench::RunsFromEnv(1000);
    config.seed = 4242;
    campaign::CampaignResult serial_result, parallel_result;
    const double serial_secs = bench::TimeSecs([&] {
      campaign::Campaign c(apps::BuildKmeans({}), config);
      serial_result = c.Run();
    });
    const double parallel_secs = bench::TimeSecs([&] {
      campaign::Campaign c(apps::BuildKmeans({}), config, jobs);
      parallel_result = c.Run();
    });
    const bool identical =
        serial_result.benign == parallel_result.benign &&
        serial_result.terminated == parallel_result.terminated &&
        serial_result.sdc == parallel_result.sdc;
    std::printf(
        "parallel campaign engine (kmeans, %llu runs):\n"
        "  serial    %.2fs\n"
        "  %2u jobs   %.2fs   speedup %.2fx   outcome-identical: %s\n\n",
        static_cast<unsigned long long>(config.runs), serial_secs, jobs,
        parallel_secs, serial_secs / (parallel_secs > 0 ? parallel_secs : 1.0),
        identical ? "yes" : "NO (BUG)");
  }

  std::vector<Row> rows;
  const auto run_campaign = [&](const char* name, apps::AppSpec spec,
                                std::set<Rank> inject_ranks) {
    campaign::CampaignConfig config;
    config.runs = runs;
    config.seed = 4242;
    config.inject_ranks = std::move(inject_ranks);
    campaign::Campaign c(std::move(spec), config, jobs);
    rows.push_back({name, c.Run()});
    std::printf("  ... %s done\n", name);
  };

  run_campaign("bfs", apps::BuildBfs({}), {0});
  run_campaign("kmeans", apps::BuildKmeans({}), {0});
  run_campaign("lud", apps::BuildLud({}), {0});
  run_campaign("matvec", apps::BuildMatvec({}), {0});
  run_campaign("clamr", apps::BuildClamr({}), {0, 1, 2, 3});

  std::printf("\n%-10s %10s %12s %10s   (fault classes per paper SIV-A/B)\n",
              "app", "benign", "terminated", "sdc");
  std::printf("%s\n", std::string(60, '-').c_str());
  for (const Row& row : rows) {
    std::printf("%-10s %9.2f%% %11.2f%% %9.2f%%\n", row.name,
                row.result.Pct(row.result.benign),
                row.result.Pct(row.result.terminated),
                row.result.Pct(row.result.sdc));
  }

  // CLAMR detection analysis (SIV-B): "terminated" for CLAMR is dominated by
  // its own conservation checker -> "detected"; benign = undetected but
  // correct; SDC = undetected and incorrect.
  const campaign::CampaignResult& clamr = rows.back().result;
  const double n = static_cast<double>(clamr.runs);
  std::printf(
      "\nCLAMR detection split (paper: detected 83.71%%, undetected-correct\n"
      "11.89%%, undetected-incorrect 4.38%%):\n");
  std::printf("  detected (checker + other terminations): %5.2f%%\n",
              100.0 * static_cast<double>(clamr.terminated) / n);
  std::printf("    of which the conservation checker:     %5.2f%%\n",
              100.0 * static_cast<double>(clamr.assert_detected) / n);
  std::printf("  undetected, correct result (benign):     %5.2f%%\n",
              100.0 * static_cast<double>(clamr.benign) / n);
  std::printf("  undetected, incorrect result (SDC):      %5.2f%%\n",
              100.0 * static_cast<double>(clamr.sdc) / n);

  // Bonus analysis the trace enables (paper SIII-C: the log "will provide us
  // with new ways to analyze ... soft errors' impact"): predict SDC from the
  // trace alone — did tainted bytes reach the output stream?
  std::printf("\ntrace-only SDC prediction (tainted bytes reached output):\n");
  for (const Row& row : rows) {
    const campaign::SdcPredictionStats p =
        campaign::AnalyzeSdcPrediction(row.result.records);
    std::printf("  %-8s precision %5.1f%%  recall %5.1f%%  "
                "(tp=%llu fp=%llu fn=%llu tn=%llu)\n",
                row.name, 100.0 * p.precision, 100.0 * p.recall,
                static_cast<unsigned long long>(p.true_positives),
                static_cast<unsigned long long>(p.false_positives),
                static_cast<unsigned long long>(p.false_negatives),
                static_cast<unsigned long long>(p.true_negatives));
  }
  return 0;
}
