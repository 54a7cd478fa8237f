// Quickstart: simulate the paper's baseline system (1 CPU, 2 disks, Table 2
// workload) under each of the three concurrency control algorithms and print
// the headline metrics.
//
//   ./quickstart [key=value ...]
//
// Any config key (`run_config --help` lists them) can be overridden on the
// command line, e.g.
//   ./quickstart mpl=25 write_prob=0.5 db_size=5000
// A key that is not a config key, or a value that does not parse, exits 2.
#include <iostream>
#include <string>
#include <vector>

#include "core/config_fields.h"
#include "core/experiment.h"
#include "core/report.h"
#include "util/config.h"

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  ccsim::EngineConfig base;
  base.workload.mpl = 25;  // A sensible default; override with mpl=N.
  ccsim::RunLengths lengths;
  ccsim::Status status =
      config.ParseArgs(std::vector<std::string>(argv + 1, argv + argc), &error)
          ? ccsim::ApplyConfigOverrides(config, &base, &lengths)
          : ccsim::Status::InvalidArgument(error);
  if (!status.ok()) {
    std::cerr << "usage: quickstart [key=value ...]\n" << status.message()
              << "\n";
    return 2;
  }
  lengths = ccsim::RunLengths::FromEnv(lengths);

  std::vector<ccsim::MetricsReport> reports;
  for (const std::string& algorithm : ccsim::PaperAlgorithms()) {
    ccsim::EngineConfig point = base;
    point.algorithm = algorithm;
    reports.push_back(ccsim::RunOnePoint(point, lengths));
    const ccsim::MetricsReport& r = reports.back();
    std::cout << "ran " << algorithm << ": " << r.commits << " commits in "
              << r.measured_seconds << " simulated seconds\n";
  }

  ccsim::PrintReportTable(std::cout, "quickstart: Table 2 workload", reports);
  return 0;
}
