// Probes for the executor and DES layers, which the serve workloads do
// not use on their own path: a procs-backend worker-pool round trip and
// the DES churn campaign of one sweep cell.
#include <cstdio>
#include <cstdlib>

#include "exec/executor.h"
#include "sim/campaign.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;

}  // namespace

void RunChurnCampaign(const disco::Graph& g, std::uint64_t seed) {
  disco::CampaignSpec campaign;
  campaign.graph = &g;
  campaign.base.mode = disco::PvModeForScheme("disco");
  campaign.base.params.seed = seed;
  campaign.scenario.kind = "churn";
  campaign.stretch_pairs = 200;
  (void)disco::RunReplica(campaign, 0);
}

RoundTrip ExecRoundTrip(const std::vector<std::string>& argv) {
  disco::exec::ExecOptions eo;
  eo.backend = disco::exec::Backend::kProcs;
  eo.workers = kWorkers;
  eo.worker_argv = argv;
  const auto executor = disco::exec::MakeExecutor(eo);
  std::vector<std::string> results;
  const Clock::time_point t0 = Clock::now();
  const disco::exec::RunResult status = executor->Run(
      kWorkers,
      [](std::size_t) {
        const Clock::time_point t = Clock::now();
        return FormatDouble(SecondsSince(t));
      },
      &results);
  RoundTrip trip;
  trip.workers = kWorkers;
  trip.wall_s = SecondsSince(t0);
  if (!status.ok) {
    std::fprintf(stderr, "perfbench: worker round trip failed: %s\n",
                 status.error.c_str());
    std::exit(1);
  }
  for (const std::string& r : results) trip.task_s += std::strtod(r.c_str(),
                                                                  nullptr);
  return trip;
}

}  // namespace perfbench
