// Fault matrix — every registered injector family crossed with matvec and
// lud, reporting the outcome distribution each fault model produces. The
// transient-bitflip families should land near the paper's Fig. 6 numbers;
// the persistent (stuck-at), spatial (burst), instruction-skip and
// process-crash families show how the outcome mix shifts as the fault model
// hardens — rank-crash in particular must convert ~100% of trials to the
// `crashed` outcome, never to infra.
//
// `--json` emits the table for tools/bench_to_json.sh
// (BENCH_fault_matrix.json). Fixed seeds make every number reproducible bit
// for bit.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "core/injectors/registry.h"

namespace {

struct Cell {
  std::string injector;
  std::string fault_class;
  const char* app;
  chaser::campaign::CampaignResult result;
  double secs;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace chaser;
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const std::uint64_t runs = bench::RunsFromEnv(300);
  const unsigned jobs = bench::JobsFromEnv();

  if (!json) {
    bench::PrintHeader(
        "Fault matrix: injector family x application outcome distribution",
        "registry fault classes vs the transient-bitflip baseline of Fig. 6");
    std::printf("runs per cell: %llu, %u workers\n\n",
                static_cast<unsigned long long>(runs), jobs);
  }

  // One spec per bundled family, defaults throughout so each cell measures
  // the family's own semantics, not a parameter choice.
  const std::vector<std::string> specs = core::InjectorRegistry::Global().Names();
  const struct {
    const char* name;
    apps::AppSpec (*build)();
  } kApps[] = {
      {"matvec", [] { return apps::BuildMatvec({}); }},
      {"lud", [] { return apps::BuildLud({}); }},
  };

  std::vector<Cell> cells;
  for (const std::string& spec : specs) {
    for (const auto& app : kApps) {
      campaign::CampaignConfig config;
      config.runs = runs;
      config.seed = 4242;
      config.injector = core::ParseInjectorSpec(spec);
      Cell cell;
      cell.injector = spec;
      cell.fault_class =
          core::InjectorRegistry::Global().Find(spec)->fault_class;
      cell.app = app.name;
      cell.secs = bench::TimeSecs([&] {
        campaign::Campaign c(app.build(), config, jobs);
        cell.result = c.Run();
      });
      cells.push_back(std::move(cell));
      if (!json) std::printf("  ... %s x %s done\n", spec.c_str(), app.name);
    }
  }

  // rank-crash must contain every kill as `crashed`; any infra there means
  // the cluster failed to contain a guest death and the bench fails.
  bool pass = true;
  for (const Cell& c : cells) {
    if (c.injector == "rank-crash" &&
        (c.result.crashed != c.result.runs || c.result.infra != 0)) {
      pass = false;
    }
  }

  if (json) {
    std::printf("{\n  \"bench\": \"fault_matrix\",\n");
    std::printf("  \"runs_per_cell\": %llu,\n  \"cells\": [\n",
                static_cast<unsigned long long>(runs));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const campaign::CampaignResult& r = c.result;
      std::printf(
          "    {\"injector\": \"%s\", \"fault_class\": \"%s\", "
          "\"app\": \"%s\", \"benign\": %llu, \"terminated\": %llu, "
          "\"sdc\": %llu, \"crashed\": %llu, \"infra\": %llu}%s\n",
          c.injector.c_str(), c.fault_class.c_str(), c.app,
          static_cast<unsigned long long>(r.benign),
          static_cast<unsigned long long>(r.terminated),
          static_cast<unsigned long long>(r.sdc),
          static_cast<unsigned long long>(r.crashed),
          static_cast<unsigned long long>(r.infra),
          i + 1 == cells.size() ? "" : ",");
    }
    std::printf("  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
    return pass ? 0 : 1;
  }

  std::printf("\n%-14s %-18s %-8s %8s %11s %7s %8s %6s %8s\n", "injector",
              "fault class", "app", "benign", "terminated", "sdc", "crashed",
              "infra", "secs");
  std::printf("%s\n", std::string(94, '-').c_str());
  for (const Cell& c : cells) {
    const campaign::CampaignResult& r = c.result;
    std::printf("%-14s %-18s %-8s %7.2f%% %10.2f%% %6.2f%% %7.2f%% %6llu %7.2fs\n",
                c.injector.c_str(), c.fault_class.c_str(), c.app,
                r.Pct(r.benign), r.Pct(r.terminated), r.Pct(r.sdc),
                r.Pct(r.crashed), static_cast<unsigned long long>(r.infra),
                c.secs);
  }
  std::printf("\nrank-crash containment (all trials crashed, zero infra): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
