// §6.2 parameter-sensitivity reproduction (the (θ, r) grid and γ sweep the
// paper reports on MUT): fidelity of ApproxGVEX under varying influence
// threshold θ, diversity radius r, and trade-off γ.
#include <cstdio>

#include "bench/bench_util.h"

using namespace gvex;
using namespace gvex::bench;

namespace {

void RunOne(const Workbench& wb, float theta, float radius, float gamma) {
  Configuration config = DefaultConfig(12);
  config.theta = theta;
  config.radius = radius;
  config.gamma = gamma;
  auto view = ApproxView(wb, 1, config);
  if (!view.ok() || view->subgraphs.empty()) {
    std::printf("theta=%.2f r=%.2f gamma=%.2f  -> no view\n", theta, radius,
                gamma);
    return;
  }
  FidelityReport fid =
      EvaluateFidelity(wb.model, wb.db, ToGraphExplanations(*view));
  std::printf(
      "theta=%.2f r=%.2f gamma=%.2f  fid+ %6.3f  fid- %6.3f  sparsity %5.3f  "
      "f %7.2f  (%zu graphs)\n",
      theta, radius, gamma, fid.fidelity_plus, fid.fidelity_minus,
      fid.sparsity, view->explainability, fid.num_graphs);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  BenchReport report("fig7_param_sensitivity");
  report.SetParam("scale", scale);
  Stopwatch total;
  Workbench wb = PrepareWorkbench("MUT", scale);
  std::printf("Parameter sensitivity on MUT (test acc %.2f)\n",
              wb.test_accuracy);

  std::printf("\n(theta, r) grid at gamma=0.5 — the paper's grid search "
              "selects (0.08, 0.25):\n");
  for (float theta : {0.02f, 0.08f, 0.14f, 0.25f}) {
    for (float radius : {0.1f, 0.25f, 0.5f}) {
      RunOne(wb, theta, radius, 0.5f);
    }
  }

  std::printf("\ngamma sweep at (theta, r) = (0.08, 0.25):\n");
  for (float gamma : {0.0f, 0.25f, 0.5f, 0.75f, 1.0f}) {
    RunOne(wb, 0.08f, 0.25f, gamma);
  }
  report.AddTiming("total", total.ElapsedSeconds());
  return 0;
}
