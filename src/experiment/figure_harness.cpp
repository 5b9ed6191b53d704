#include "experiment/figure_harness.hpp"

#include <algorithm>
#include <ostream>

#include "experiment/paper_config.hpp"
#include "obs/counters.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/table_writer.hpp"

namespace ecdra::experiment {

FigureResult RunFigure(const sim::ExperimentSetup& setup,
                       const std::string& title,
                       const std::vector<SeriesSpec>& specs,
                       const sim::RunOptions& options) {
  FigureResult figure;
  figure.title = title;
  figure.window_size = setup.window_size;
  for (const SeriesSpec& spec : specs) {
    sim::RunOptions series_options = options;
    if (!spec.governor.empty()) series_options.governor = spec.governor;
    // RunSweep isolates per-trial failures instead of aborting the figure;
    // a series with failed trials is summarized over its surviving trials
    // and flagged in PrintFigure's harness-health block.
    const sim::SweepResult sweep = sim::RunSweep(
        setup, spec.heuristic, spec.filter_variant, series_options);

    SeriesResult series;
    series.spec = spec;
    if (series.spec.label.empty()) {
      series.spec.label = spec.heuristic + " (" + spec.filter_variant + ")";
      if (series_options.governor != "static") {
        series.spec.label += " [" + series_options.governor + "]";
      }
    }
    series.missed_deadlines.reserve(sweep.results.size());
    double energy_fraction_sum = 0.0;
    double discarded_sum = 0.0;
    for (const sim::TrialResult& trial : sweep.results) {
      series.missed_deadlines.push_back(
          static_cast<double>(trial.missed_deadlines));
      energy_fraction_sum += trial.total_energy / setup.energy_budget;
      discarded_sum += static_cast<double>(trial.discarded);
    }
    series.summary = sim::SummarizeSweep(sweep);
    if (!sweep.results.empty()) {
      const double n = static_cast<double>(sweep.results.size());
      series.box = stats::Summarize(series.missed_deadlines);
      series.mean_energy_fraction = energy_fraction_sum / n;
      series.mean_discarded = discarded_sum / n;
    }
    figure.series.push_back(std::move(series));
  }
  return figure;
}

std::vector<SeriesSpec> VariantsOfHeuristic(const std::string& heuristic) {
  return VariantsOfHeuristic(heuristic, PaperScenario().grid);
}

std::vector<SeriesSpec> VariantsOfHeuristic(const std::string& heuristic,
                                            const policy::PolicyGrid& grid) {
  std::vector<SeriesSpec> specs;
  for (const std::string& variant : grid.filter_variants) {
    specs.push_back(SeriesSpec{heuristic, variant, "", ""});
  }
  return specs;
}

std::vector<SeriesSpec> BestVariants() {
  return BestVariants(PaperScenario().grid);
}

std::vector<SeriesSpec> BestVariants(const policy::PolicyGrid& grid) {
  std::vector<SeriesSpec> specs;
  for (const std::string& heuristic : grid.heuristics) {
    specs.push_back(SeriesSpec{heuristic, "en+rob", "", ""});
  }
  return specs;
}

std::vector<SeriesSpec> GridSeries(const policy::PolicyGrid& grid) {
  std::vector<SeriesSpec> specs;
  for (const std::string& heuristic : grid.heuristics) {
    for (const std::string& variant : grid.filter_variants) {
      specs.push_back(SeriesSpec{heuristic, variant, "", ""});
    }
  }
  return specs;
}

void PrintFigure(std::ostream& os, const FigureResult& figure) {
  os << "== " << figure.title << " ==\n";
  os << "(missed deadlines per trial; lower is better)\n\n";

  stats::Table table({"series", "trials", "min", "Q1", "median", "Q3", "max",
                      "mean", "miss %", "energy used", "discarded"});
  const double window = static_cast<double>(figure.window_size);
  for (const SeriesResult& series : figure.series) {
    table.AddRow({
        series.spec.label,
        std::to_string(series.box.n),
        stats::Table::Num(series.box.min, 1),
        stats::Table::Num(series.box.q1, 1),
        stats::Table::Num(series.box.median, 1),
        stats::Table::Num(series.box.q3, 1),
        stats::Table::Num(series.box.max, 1),
        stats::Table::Num(series.box.mean, 1),
        stats::Table::Num(100.0 * series.box.median / window, 2) + "%",
        stats::Table::Num(100.0 * series.mean_energy_fraction, 1) + "%",
        stats::Table::Num(series.mean_discarded, 1),
    });
  }
  table.PrintText(os);

  os << '\n';
  std::vector<stats::BoxPlotSeries> plot;
  plot.reserve(figure.series.size());
  for (const SeriesResult& series : figure.series) {
    plot.push_back(stats::BoxPlotSeries{series.spec.label, series.box});
  }
  os << stats::RenderBoxPlot(plot) << '\n';

  // Profit table (econ extension): only rendered when at least one series
  // ran with a non-trivial EconModel, so pre-econ figures look as before.
  const bool have_econ = std::any_of(
      figure.series.begin(), figure.series.end(),
      [](const SeriesResult& series) { return series.summary.econ_trials > 0; });
  if (have_econ) {
    os << "\neconomics (per-trial means; net = revenue - energy cost):\n";
    stats::Table econ_table({"series", "revenue", "energy cost", "net profit",
                             "offered", "capture %"});
    for (const SeriesResult& series : figure.series) {
      const sim::SummaryStatistics& s = series.summary;
      const double offered = std::max(s.mean_value_offered, 1e-12);
      econ_table.AddRow({
          series.spec.label,
          stats::Table::Num(s.mean_revenue, 2),
          stats::Table::Num(s.mean_energy_cost, 2),
          stats::Table::Num(s.mean_net_profit, 2),
          stats::Table::Num(s.mean_value_offered, 2),
          stats::Table::Num(100.0 * s.mean_revenue / offered, 1) + "%",
      });
    }
    econ_table.PrintText(os);
  }

  // Harness health: only rendered when a sweep actually failed, retried, or
  // timed out a trial, or when invariant validation flagged a violation —
  // healthy figures look exactly as before.
  const bool have_failures = std::any_of(
      figure.series.begin(), figure.series.end(),
      [](const SeriesResult& series) {
        return series.summary.failed_trials > 0 ||
               series.summary.retried_trials > 0 ||
               series.summary.timed_out_trials > 0 ||
               series.summary.validation_violations > 0;
      });
  if (have_failures) {
    os << "\nWARNING: trial failures / validation violations "
          "(summaries cover surviving trials only):\n";
    stats::Table health({"series", "failed", "timed out", "retried",
                         "validation violations"});
    for (const SeriesResult& series : figure.series) {
      health.AddRow({
          series.spec.label,
          std::to_string(series.summary.failed_trials),
          std::to_string(series.summary.timed_out_trials),
          std::to_string(series.summary.retried_trials),
          std::to_string(series.summary.validation_violations),
      });
    }
    health.PrintText(os);
  }

  // Observability: only rendered when at least one series collected
  // counters, so figures regenerated without telemetry look as before.
  const bool have_counters = std::any_of(
      figure.series.begin(), figure.series.end(),
      [](const SeriesResult& series) { return !series.summary.counters.empty(); });
  if (!have_counters) return;

  os << "\nobservability (totals across trials; decision latency is "
        "steady-clock wall time per MapTask):\n";
  stats::Table counters_table(
      {"series", "pruned en", "pruned rob", "disc en", "disc rob",
       "ReadyPmf hit %", "convolve", "prob_sum_leq", "truncate",
       "P-switches", "us/decision"});
  for (const SeriesResult& series : figure.series) {
    const obs::Counters& counters = series.summary.counters;
    const double decisions =
        std::max<double>(1.0, static_cast<double>(counters.decisions()));
    counters_table.AddRow({
        series.spec.label,
        std::to_string(counters.pruned_energy),
        std::to_string(counters.pruned_robustness),
        std::to_string(counters.discarded_by_energy),
        std::to_string(counters.discarded_by_robustness),
        stats::Table::Num(100.0 * counters.ready_pmf_hit_rate(), 1) + "%",
        std::to_string(counters.pmf_convolutions),
        std::to_string(counters.pmf_prob_sum_leq),
        std::to_string(counters.pmf_truncations),
        std::to_string(counters.pstate_switches),
        stats::Table::Num(1e6 * counters.decision_seconds / decisions, 2),
    });
  }
  counters_table.PrintText(os);
}

}  // namespace ecdra::experiment
