// LP capacity planner — use the Section 4.1 optimization formulation as a
// standalone what-if tool: describe a proxy topology on the command line
// and get the maximum stateful-coverage call rate plus the per-node state
// placement.
//
//   $ ./lp_planner chain 3
//   $ ./lp_planner chain 2 --tsf 10360 --tsl 12300
//   $ ./lp_planner fork 0.5
//   $ ./lp_planner mix 0.8
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "lp/state_model.hpp"

using namespace svk;

namespace {

void print_result(const lp::StateDistributionModel& model,
                  const lp::StateDistributionResult& result) {
  if (!result.optimal()) {
    std::printf("no optimal solution (infeasible or unbounded topology)\n");
    return;
  }
  std::printf("maximum stateful-coverage throughput: %.0f cps\n\n",
              result.max_throughput);
  std::printf("%-10s %14s %14s\n", "node", "load (cps)",
              "stateful (cps)");
  for (std::size_t n = 0; n < model.node_count(); ++n) {
    std::printf("%-10s %14.0f %14.0f\n", model.node_name(n).c_str(),
                result.node_load[n], result.node_stateful[n]);
  }
  std::printf("\nper-edge flows (fasf = stateful before the edge, sf ="
              " stateful at its tail,\nasf = still needing state):\n");
  for (const auto& edge : result.edges) {
    const std::string from = edge.from == static_cast<std::size_t>(-1)
                                 ? "(source)"
                                 : model.node_name(edge.from);
    const std::string to = edge.to == static_cast<std::size_t>(-1)
                               ? "(sink)"
                               : model.node_name(edge.to);
    if (edge.total() < 0.5) continue;
    std::printf("  %-10s -> %-10s  fasf %8.0f  sf %8.0f  asf %8.0f\n",
                from.c_str(), to.c_str(), edge.fasf, edge.sf, edge.asf);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double t_sf = 10360.0;
  double t_sl = 12300.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--tsf") == 0) t_sf = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--tsl") == 0) t_sl = std::atof(argv[i + 1]);
  }
  const std::string kind = argc > 1 ? argv[1] : "chain";
  const double arg = argc > 2 ? std::atof(argv[2]) : 2.0;

  lp::StateDistributionModel model;
  if (kind == "chain") {
    const int n = static_cast<int>(arg);
    std::vector<lp::NodeIndex> nodes;
    for (int i = 0; i < n; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      nodes.push_back(model.add_node(std::move(name), t_sf, t_sl));
    }
    for (int i = 0; i + 1 < n; ++i) model.add_edge(nodes[i], nodes[i + 1]);
    model.mark_entry(nodes.front());
    model.mark_exit(nodes.back());
    std::printf("planning a %d-proxy chain (T_SF=%.0f, T_SL=%.0f)\n\n", n,
                t_sf, t_sl);
  } else if (kind == "fork") {
    const double split = arg;
    const auto s0 = model.add_node("entry", t_sf, t_sl);
    const auto sa = model.add_node("upper", t_sf, t_sl);
    const auto sb = model.add_node("lower", t_sf, t_sl);
    model.add_edge(s0, sa);
    model.add_edge(s0, sb);
    model.mark_entry(s0);
    model.mark_exit(sa);
    model.mark_exit(sb);
    model.fix_split(s0, sa, split);
    model.fix_split(s0, sb, 1.0 - split);
    std::printf("planning a fork with %.0f/%.0f split\n\n", 100.0 * split,
                100.0 * (1.0 - split));
  } else if (kind == "mix") {
    const double external = arg;
    const auto s1 = model.add_node("campus", t_sf, t_sl);
    const auto s2 = model.add_node("trunk", t_sf, t_sl);
    model.add_edge(s1, s2);
    model.mark_entry(s1);
    model.mark_exit(s1);
    model.mark_exit(s2);
    model.fix_exit_split(s1, 1.0 - external);
    model.fix_split(s1, s2, external);
    std::printf("planning a campus/trunk pair, %.0f%% external traffic\n\n",
                100.0 * external);
  } else {
    std::printf("usage: lp_planner chain N | fork SPLIT | mix FRACTION"
                " [--tsf X] [--tsl Y]\n");
    return 1;
  }

  print_result(model, model.solve());
  return 0;
}
