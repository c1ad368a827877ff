// The paper's full experiment as a thin wrapper over the `wedge-mach4`
// registry scenario: Mach M flow over a wedge, near-continuum or rarefied,
// with CSV/VTK field dumps for external plotting (figures 1-6 are views of
// these fields).
//
// Usage:
//   wedge_mach4 [key=value ...]
//
// Any scenario override is accepted (see `cmdsmc describe wedge-mach4`),
// e.g.:
//   wedge_mach4 mach=5 lambda=0.5 steady=1200 avg=2000
//   wedge_mach4 wall=diffuse_isothermal    # no-slip wedge surface
//   wedge_mach4 precision=fixed            # the paper's Q8.23 engine
//
// The paper-size run is ppc=73 steady=1200 avg=2000.
#include <cstdio>

#include "scenario/runner.h"

int main(int argc, char** argv) {
  using namespace cmdsmc;
  try {
    scenario::ScenarioSpec spec = scenario::get_scenario("wedge-mach4");
    spec.output_prefix = "wedge";
    spec.sinks = {"field_csv", "vtk", "surface_csv", "ascii", "report",
                  "json"};
    scenario::apply_overrides(spec, cli::parse_key_values(argc, argv, 1));

    std::printf("cmdsmc wedge wind tunnel: Mach %.2f, %g deg wedge, "
                "lambda_inf = %g (%s)\n",
                spec.config.mach, spec.config.wedge_angle_deg,
                spec.config.lambda_inf,
                spec.config.lambda_inf <= 0 ? "near continuum" : "rarefied");
    scenario::Runner runner(std::move(spec));
    runner.add_spec_sinks();
    const scenario::RunResult r = runner.run();
    std::printf("fields written to %s_{density,t_total,ux,uy}.csv and "
                "%s.vtk%s\n",
                runner.spec().output_prefix.c_str(),
                runner.spec().output_prefix.c_str(),
                r.surface ? "; surface coefficients to *_surface.csv" : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wedge_mach4: %s\n", e.what());
    return 1;
  }
  return 0;
}
