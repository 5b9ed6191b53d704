// Figure 6: the best-performing variant (en+rob) of every heuristic side by
// side, plus the §VII summary deltas — the filtering improvement of each
// heuristic over its unfiltered self, and Random's distance from LL, which
// together support the paper's headline claim that the filters, not the
// heuristic, drive performance.
#include <cstdlib>
#include <iostream>

#include "experiment/figure_harness.hpp"
#include "experiment/paper_config.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  sim::RunOptions options = experiment::PaperRunOptions();
  if (argc > 1) {
    options.num_trials = static_cast<std::size_t>(std::atoi(argv[1]));
  }
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  std::cout << "environment: " << setup.cluster.num_nodes() << " nodes / "
            << setup.cluster.total_cores() << " cores, t_avg=" << setup.t_avg
            << ", zeta_max=" << setup.energy_budget << ", "
            << options.num_trials << " trials\n\n";

  // Both the unfiltered baselines and the best variants, so the improvement
  // percentages can be computed from one run.
  std::vector<experiment::SeriesSpec> specs;
  for (const std::string& heuristic : core::HeuristicNames()) {
    specs.push_back({heuristic, "none", "", ""});
  }
  for (const experiment::SeriesSpec& spec : experiment::BestVariants()) {
    specs.push_back(spec);
  }
  const experiment::FigureResult all =
      experiment::RunFigure(setup, "Figure 6 inputs", specs, options);

  // Render the figure proper (en+rob only).
  experiment::FigureResult figure;
  figure.title = "Figure 6 — best variant (en+rob) of each heuristic";
  figure.window_size = all.window_size;
  for (const experiment::SeriesResult& series : all.series) {
    if (series.spec.filter_variant == "en+rob") {
      figure.series.push_back(series);
    }
  }
  experiment::PrintFigure(std::cout, figure);

  // §VII summary: median improvement of en+rob over none per heuristic.
  const auto median_of = [&all](const std::string& heuristic,
                                const std::string& variant) {
    for (const experiment::SeriesResult& series : all.series) {
      if (series.spec.heuristic == heuristic &&
          series.spec.filter_variant == variant) {
        return series.box.median;
      }
    }
    return -1.0;
  };

  std::cout << "filtering improvement (median missed deadlines; paper §VII "
               "reports >= 13% for every heuristic):\n";
  stats::Table table(
      {"heuristic", "none", "en+rob", "improvement", "paper none",
       "paper en+rob"});
  struct Ref {
    const char* name;
    double none;
    double best;
  };
  for (const Ref& ref : {Ref{"SQ", 375.5, 234.5}, Ref{"MECT", 370.0, 239.5},
                         Ref{"LL", 381.0, 226.0},
                         Ref{"Random", 561.5, 266.0}}) {
    const double none = median_of(ref.name, "none");
    const double best = median_of(ref.name, "en+rob");
    table.AddRow({ref.name, stats::Table::Num(none, 1),
                  stats::Table::Num(best, 1),
                  stats::Table::Num(100.0 * (none - best) / none, 1) + "%",
                  stats::Table::Num(ref.none, 1),
                  stats::Table::Num(ref.best, 1)});
  }
  table.PrintText(std::cout);

  const double ll = median_of("LL", "en+rob");
  const double random = median_of("Random", "en+rob");
  std::cout << "\nfiltered Random vs filtered LL: "
            << stats::Table::Num(100.0 * (random - ll) / ll, 1)
            << "% (paper: Random within 4% of LL — filters drive "
               "performance)\n";
  return 0;
}
