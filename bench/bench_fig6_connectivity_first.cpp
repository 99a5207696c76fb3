// Figure 6: the connectivity-first baseline [22] greedily picks the top-10
// discrete edges for natural connectivity — and they are scattered across
// the city, far from forming a smooth bus route. Exits 1 if a city's edge
// set does form a simple path (the figure's shape is lost).
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "core/baselines.h"
#include "eval/table.h"

namespace {

/// Returns true iff the greedy edge set forms a plannable simple path.
bool RunCity(const ctbus::gen::Dataset& city) {
  ctbus::bench::PrintDataset(city);
  auto ctx = ctbus::core::PlanningContext::Build(city.road, city.transit,
                                                 ctbus::bench::BenchOptions());
  const auto result = ctbus::core::RunConnectivityFirst(&ctx, 10);

  ctbus::eval::Table table({"pick", "stop_u", "stop_v", "straight_m",
                            "delta_lambda"});
  for (std::size_t i = 0; i < result.edges.size(); ++i) {
    const auto& edge = ctx.universe().edge(result.edges[i]);
    table.AddRow({ctbus::eval::Table::Int(static_cast<int>(i) + 1),
                  ctbus::eval::Table::Int(edge.u),
                  ctbus::eval::Table::Int(edge.v),
                  ctbus::eval::Table::Num(edge.straight_distance, 0),
                  ctbus::eval::Table::Num(ctx.increments()[result.edges[i]],
                                          6)});
  }
  table.Print(std::cout);
  std::printf("edge set: %d connected components among 10 edges; max "
              "edges per stop %d; forms a plannable simple path: %s; "
              "nearest-neighbor stitch gap %.0f m; total connectivity "
              "increment %.5f\n\n",
              result.num_components, result.max_stop_degree,
              result.forms_simple_path ? "YES" : "NO",
              result.stitch_gap_meters, result.connectivity_increment);
  return result.forms_simple_path;
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "Figure 6: top-10 edges of the connectivity-first method [22]",
      "the chosen discrete edges are scattered and hard to connect into "
      "a smooth bus route (and the greedy takes hours at paper scale)");
  const double scale = ctbus::bench::GetScale();
  const bool chicago_path = RunCity(ctbus::gen::MakeChicagoLike(scale));
  const bool nyc_path = RunCity(ctbus::gen::MakeNycLike(scale));
  std::printf("shape check: the greedy edge set never forms a simple path "
              "(scattered fragments or hub stars) => not a plannable "
              "route, unlike ETA's output.\n");
  if (chicago_path || nyc_path) {
    std::printf("FATAL: a greedy edge set forms a simple path\n");
    return 1;
  }
  return 0;
}
