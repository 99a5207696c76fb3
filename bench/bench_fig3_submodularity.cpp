// Figure 3: distribution of the percentage difference
//   theta = (O_lambda(mu) - sum_e Delta(e)) / sum_e Delta(e)
// between the joint connectivity increment of an edge set and the sum of
// its per-edge increments, for growing edge counts. The paper finds theta
// mostly small, trending positive with more edges => natural connectivity
// is monotone but not submodular, yet well-approximated linearly (ETA-Pre's
// foundation). Both sides are the planners' own numbers: the joint
// increment is OnlineConnectivityIncrement (exact local trace increments
// telescoped over the set), the sum is LinearConnectivityIncrement (the
// precomputed Delta(e) that ETA-Pre adds up), on one tr_0 anchor.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "core/planning_context.h"
#include "eval/table.h"
#include "linalg/rng.h"

namespace {

void RunCity(const ctbus::gen::Dataset& city) {
  ctbus::bench::PrintDataset(city);
  const auto ctx = ctbus::core::PlanningContext::Build(
      city.road, city.transit, ctbus::bench::BenchOptions());
  const ctbus::core::EdgeUniverse& universe = ctx.universe();
  std::vector<int> new_edges;
  for (int e = 0; e < universe.num_edges(); ++e) {
    if (universe.edge(e).is_new) new_edges.push_back(e);
  }
  if (new_edges.size() < 50) {
    std::printf("not enough candidate edges, skipping\n");
    return;
  }

  ctbus::eval::Table table(
      {"edges", "theta_p25", "theta_median", "theta_p75"});
  ctbus::linalg::Rng rng(17);
  for (int count = 2; count <= 50; count += 8) {
    std::vector<double> thetas;
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<int> chosen;
      while (static_cast<int>(chosen.size()) < count) {
        const int e = new_edges[rng.NextIndex(new_edges.size())];
        if (std::find(chosen.begin(), chosen.end(), e) == chosen.end()) {
          chosen.push_back(e);
        }
      }
      const double sum_individual = ctx.LinearConnectivityIncrement(chosen);
      if (sum_individual <= 0) continue;
      const double joint = ctx.OnlineConnectivityIncrement(chosen);
      thetas.push_back((joint - sum_individual) / sum_individual);
    }
    std::sort(thetas.begin(), thetas.end());
    if (thetas.empty()) continue;
    auto pct = [&](double p) {
      return thetas[static_cast<std::size_t>(p * (thetas.size() - 1))];
    };
    table.AddRow({ctbus::eval::Table::Int(count),
                  ctbus::eval::Table::Num(pct(0.25), 4),
                  ctbus::eval::Table::Num(pct(0.5), 4),
                  ctbus::eval::Table::Num(pct(0.75), 4)});
  }
  table.Print(std::cout);
  std::printf("\n");
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Figure 3: percentage difference theta between O_lambda(mu) and "
      "sum Delta(e)",
      "theta within roughly [-0.10, +0.10], trending positive as edge "
      "count grows (non-submodular but nearly linear)");
  const double scale = ctbus::bench::GetScale();
  RunCity(ctbus::gen::MakeChicagoLike(scale));
  RunCity(ctbus::gen::MakeNycLike(scale));
  std::printf("shape check: |median theta| small (<~0.15); trends upward "
              "with edge count; upper quartile positive at large counts "
              "=> not submodular.\n");
  return 0;
}
