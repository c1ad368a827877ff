// cmdsmc — the single entry point to every registered scenario.
//
//   cmdsmc list                          all scenarios, one line each
//   cmdsmc describe <scenario>           full spec + valid override keys
//   cmdsmc describe --all                markdown table (docs/scenarios.md)
//   cmdsmc run <scenario> [key=value ..] run with overrides
//   cmdsmc sweep <scenario> [..]         expand sweep:key=... into a job
//                                        list and run it on the fleet
//   cmdsmc serve [..]                    long-running service: job specs
//                                        from stdin or a spool directory
//
// Overrides address any SimConfig field, the body factory parameters
// (body.*), the run schedule and the output sinks by name; a misspelled
// key is an error listing the valid keys, never a silent no-op.  Every
// failure exits non-zero with one machine-readable JSON error line on
// stdout (exit 2: bad arguments/config; exit 3: runtime failure).
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/scheduler.h"
#include "fleet/serve.h"
#include "fleet/sweep.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace {

using namespace cmdsmc;

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: cmdsmc <command> [...]\n"
               "\n"
               "  list                           list registered scenarios\n"
               "  describe <scenario> | --all    show a scenario (or a\n"
               "                                 markdown table of all)\n"
               "  run <scenario> [key=value ..]  run with overrides\n"
               "  sweep <scenario> [key=value ..] [sweep:key=v1,v2 ..]\n"
               "                                 expand a parameter sweep\n"
               "                                 and run it on the fleet\n"
               "  serve [fleet.* ..] [spool=DIR] [once=1] [key=value ..]\n"
               "                                 service mode: job specs\n"
               "                                 from stdin or a spool dir,\n"
               "                                 JSONL results on stdout\n"
               "\n"
               "examples:\n"
               "  cmdsmc run wedge-mach4 steps=200\n"
               "  cmdsmc run cylinder-mach10 mach=8 body.twall=0.5 "
               "body.facets=48\n"
               "  cmdsmc run wedge-mach4 telemetry=out.jsonl "
               "trace=out.trace.json progress=1\n"
               "  cmdsmc sweep wedge-mach4 steps=200 sweep:mach=4,8,12 \\\n"
               "      sweep:lambda=0.01..1/8 fleet.threads=8 "
               "fleet.dir=sweep_out\n"
               "  echo 'cylinder-mach10 mach=12 steps=100' | cmdsmc serve "
               "once=1\n");
  return to == stderr ? 2 : 0;
}

int cmd_list() {
  std::printf("%-22s %s\n", "scenario", "description");
  for (const auto& s : scenario::all_scenarios())
    std::printf("%-22s %s\n", s.name.c_str(), s.description.c_str());
  return 0;
}

std::string grid_string(const core::SimConfig& cfg) {
  std::string g = std::to_string(cfg.nx) + "x" + std::to_string(cfg.ny);
  if (cfg.nz > 0) {
    g += 'x';
    g += std::to_string(cfg.nz);
  }
  if (cfg.axisymmetric) g += " (z-r)";
  return g;
}

std::string body_string(const scenario::ScenarioSpec& s) {
  std::string out;
  for (const scenario::BodySpec& b : s.bodies) {
    if (b.kind == scenario::BodyKind::kNone) continue;
    if (!out.empty()) out += " + ";
    out += scenario::body_kind_name(b.kind);
  }
  return out.empty() ? "none" : out;
}

int cmd_describe_all() {
  std::printf("| scenario | grid | Mach | lambda_inf | body | schedule | "
              "description |\n");
  std::printf("|---|---|---|---|---|---|---|\n");
  for (const auto& s : scenario::all_scenarios()) {
    std::printf("| `%s` | %s | %g | %g | %s | %d+%d | %s |\n", s.name.c_str(),
                grid_string(s.config).c_str(), s.config.mach,
                s.config.lambda_inf, body_string(s).c_str(),
                s.schedule.steady_steps, s.schedule.avg_steps,
                s.description.c_str());
  }
  return 0;
}

int cmd_describe(const std::string& name) {
  const scenario::ScenarioSpec spec = scenario::get_scenario(name);
  std::printf("%s\n  %s\n\n", spec.name.c_str(), spec.description.c_str());
  std::printf("  grid        %s\n", grid_string(spec.config).c_str());
  std::printf("  mach        %g\n", spec.config.mach);
  std::printf("  sigma       %g\n", spec.config.sigma);
  std::printf("  lambda_inf  %g\n", spec.config.lambda_inf);
  std::printf("  ppc         %g\n", spec.config.particles_per_cell);
  std::printf("  body        %s\n", body_string(spec).c_str());
  std::printf("  schedule    %d steady + %d averaging steps\n",
              spec.schedule.steady_steps, spec.schedule.avg_steps);
  std::printf("  sinks      ");
  for (const auto& sink : spec.sinks) std::printf(" %s", sink.c_str());
  std::printf("\n\noverride keys (key=value):\n");
  for (const std::string& key : scenario::override_keys())
    std::printf("  %-30s %s\n", key.c_str(),
                scenario::override_help(key).c_str());
  std::printf(
      "\nbody.* keys address scene body N as body<N>.* (body0.* == body.*);\n"
      "mentioning a new index appends a body, e.g.\n"
      "  cmdsmc run %s body1.kind=cylinder body1.x0=80 body1.y0=32 "
      "body1.radius=4\n",
      spec.name.c_str());
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "run: missing scenario name\n");
    return usage(stderr);
  }
  scenario::ScenarioSpec spec = scenario::get_scenario(argv[2]);
  scenario::apply_overrides(spec, cli::parse_key_values(argc, argv, 3));

  scenario::Runner runner(std::move(spec));
  runner.add_spec_sinks();
  const scenario::RunResult result = runner.run();
  if (result.counters.synthesized > 0)
    std::fprintf(stderr,
                 "warning: %llu synthesized injections (reservoir ran dry)\n",
                 static_cast<unsigned long long>(
                     result.counters.synthesized));
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "sweep: missing scenario name\n");
    return usage(stderr);
  }
  fleet::SweepRequest request;
  request.scenario = argv[2];
  fleet::FleetOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string token = argv[i];
    if (fleet::is_sweep_token(token)) {
      request.axes.push_back(fleet::parse_sweep_axis(token));
      continue;
    }
    const cli::KeyValue kv = cli::parse_key_values({token})[0];
    if (fleet::apply_fleet_option(options, kv.key, kv.value)) continue;
    request.fixed.push_back(kv);
  }

  const std::vector<fleet::FleetJob> jobs = fleet::expand_sweep(request);
  fleet::FleetScheduler scheduler(options);
  fleet::FleetMeta meta;
  meta.scenario = request.scenario;
  for (const fleet::SweepAxis& axis : request.axes)
    meta.axis_keys.push_back(axis.key);
  meta.fleet_threads = scheduler.options().fleet_threads;
  meta.job_threads = scheduler.options().job_threads;
  scheduler.set_meta(meta);

  std::fprintf(stderr,
               "sweep: %zu jobs on %u fleet threads x %u job threads -> %s\n",
               jobs.size(), scheduler.options().fleet_threads,
               scheduler.options().job_threads, scheduler.options().dir.c_str());
  scheduler.submit(jobs);
  const fleet::FleetSummary summary = scheduler.finish();
  std::fprintf(stderr,
               "sweep: %zu done + %zu cached + %zu failed + %zu skipped in "
               "%.2fs (%.2f jobs/s); aggregate %s\n",
               summary.completed, summary.cached, summary.failed,
               summary.skipped, summary.elapsed_seconds,
               summary.jobs_per_second, summary.aggregate_path.c_str());
  if (summary.failed > 0) {
    std::cout << cli::error_json("jobs",
                                 std::to_string(summary.failed) +
                                     " job(s) failed; see " +
                                     summary.manifest_path)
              << "\n";
    return 3;
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  fleet::ServeOptions options;
  for (int i = 2; i < argc; ++i) {
    const cli::KeyValue kv = cli::parse_key_values({std::string(argv[i])})[0];
    if (fleet::apply_serve_option(options, kv.key, kv.value)) continue;
    if (fleet::apply_fleet_option(options.fleet, kv.key, kv.value)) continue;
    // Anything else is a default override applied to every request line.
    options.defaults.push_back(kv);
  }
  return fleet::run_serve(std::move(options), std::cin, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "describe") {
      if (argc < 3) {
        std::fprintf(stderr, "describe: missing scenario name (or --all)\n");
        return usage(stderr);
      }
      if (std::strcmp(argv[2], "--all") == 0) return cmd_describe_all();
      return cmd_describe(argv[2]);
    }
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(stdout);
  } catch (const std::exception& e) {
    // Contract: non-zero exit + one machine-readable JSON error line on
    // stdout (exit 2 for argument/config errors, 3 for runtime failures);
    // the human-readable message goes to stderr.  Fleet failure isolation
    // and external orchestrators key on this.
    std::printf("%s\n", cli::error_json(cli::error_type(e), e.what()).c_str());
    std::fprintf(stderr, "cmdsmc: %s\n", e.what());
    return cli::error_exit_code(e);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return usage(stderr);
}
