// perfbench: one benchmark run of one cmdsmc workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR --records DIR --result FILE
//
// --trace 0 measures the end-to-end metrics from untraced runs of the path
// `cmdsmc run` takes (scenario lookup, override parse, scenario::Runner with
// the spec's sinks), repeated for S seconds and reported as medians.
// --trace 1 probes the machine (triad roof, fork-join dispatch), then makes
// one traced run that drives the layers itself (build_config, the
// Simulation constructor, step(), an attached StepObserver, the sinks,
// checkpoint save/load) between two untraced runs; the traced-minus-
// untraced wall time is the tracing overhead.
//
// Every run's output is checked (README.md, "Physics checks"); a run that
// throws or fails a check counts as failed.  The result goes to FILE as one
// JSON object {correct, attempted, failed, metrics, notes}; the workload's
// sinks write into DIR, which this program owns and clears.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cli/args.h"
#include "cmdp/thread_pool.h"
#include "core/checkpoint.h"
#include "core/simulation.h"
#include "geom/wedge.h"
#include "io/shock_analysis.h"
#include "obs/step_stats.h"
#include "obs/telemetry.h"
#include "physics/theory.h"
#include "probes.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace {

using namespace cmdsmc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Sim = core::Simulation<double>;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

enum class Check { kWedgeShock, kAxiCoefficients };

struct Workload {
  std::string name;
  std::string scenario;
  unsigned lanes;
  std::vector<std::string> overrides;  // `cmdsmc run` key=value tokens
  Check check;
  // Workloads of one group run the identical problem on different lane
  // counts, so their counters must agree at equal seed.
  std::string invariance_group;
};

// Why these three: README.md, "Workloads".
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"wedge-paper-1t", "wedge-mach4", 1,
       {"ppc=80", "steady=100", "avg=100"}, Check::kWedgeShock,
       "wedge-paper"},
      {"wedge-paper-4t", "wedge-mach4", 4,
       {"ppc=80", "steady=100", "avg=100"}, Check::kWedgeShock,
       "wedge-paper"},
      {"axi-io-4t", "biconic_axi", 4,
       {"steady=150", "avg=150", "sinks=json,field_csv,surface_csv,vtk",
        "telemetry=1", "trace=1"},
       Check::kAxiCoefficients, ""},
  };
  return list;
}

// Scenario lookup + override parse: the first thing `cmdsmc run` does.
scenario::ScenarioSpec make_spec(const Workload& w, const std::string& seed) {
  scenario::ScenarioSpec spec = scenario::get_scenario(w.scenario);
  std::vector<std::string> tokens = w.overrides;
  tokens.push_back("seed=" + seed);
  scenario::apply_overrides(spec, cli::parse_key_values(tokens));
  return spec;
}

// --- Physics checks ----------------------------------------------------------
// Fixed from the spread over seeds 1-8 (wedge) and 1-16 (axi) before any
// change was measured (README.md, "Physics checks"); a later change must
// meet them as they stand.
constexpr double kShockAngleTolDeg = 3.0;  // |fit - theory 45.22 deg|
constexpr double kDensityRatioTol = 0.45;  // |fit - theory 3.70|
// biconic_axi Cd at its default seed on this workload's 150+150 schedule
// (1.074 on the scenario's own 400+400), and the relative band around it.
constexpr double kAxiCdSeed = 1.083;
constexpr double kAxiCdBand = 0.08;

// Empty when the run's output is right, else what is wrong.  `summary`
// receives the measured values.
std::string check_physics(const Workload& w, const scenario::RunResult& r,
                          std::string* summary) {
  char buf[256];
  if (w.check == Check::kWedgeShock) {
    const core::SimConfig& cfg = r.config;
    const geom::Wedge wedge(cfg.wedge_x0, cfg.wedge_base,
                            cfg.wedge_angle_rad());
    const io::ShockFit fit = io::measure_oblique_shock(r.field, wedge);
    const double beta =
        physics::theory::oblique_shock_angle(cfg.wedge_angle_rad(), cfg.mach);
    const double beta_deg = beta * 180.0 / std::numbers::pi;
    const double ratio =
        physics::theory::oblique_shock_density_ratio(beta, cfg.mach);
    if (!fit.valid) return "no attached oblique shock found";
    std::snprintf(buf, sizeof buf,
                  "shock angle %.2f deg (theory %.2f +- %.2f), density ratio "
                  "%.3f (theory %.2f +- %.2f)",
                  fit.angle_deg, beta_deg, kShockAngleTolDeg,
                  fit.density_ratio, ratio, kDensityRatioTol);
    *summary = buf;
    if (std::abs(fit.angle_deg - beta_deg) > kShockAngleTolDeg ||
        std::abs(fit.density_ratio - ratio) > kDensityRatioTol)
      return buf;
    return {};
  }
  if (!r.surface) return "no surface coefficients";
  std::snprintf(buf, sizeof buf,
                "Cd %.4f (band %.3f +- %.0f%%), Cl %.3g (must be exactly 0)",
                r.surface->cd, kAxiCdSeed, 100.0 * kAxiCdBand, r.surface->cl);
  *summary = buf;
  if (r.surface->cl != 0.0 ||
      std::abs(r.surface->cd / kAxiCdSeed - 1.0) > kAxiCdBand)
    return buf;
  return {};
}

std::string counters_text(const core::SimCounters& c) {
  std::ostringstream os;
  os << "candidates=" << c.candidates << " collisions=" << c.collisions
     << " reservoir_collisions=" << c.reservoir_collisions
     << " removed=" << c.removed << " injected=" << c.injected
     << " synthesized=" << c.synthesized << " cloned=" << c.cloned
     << " merged=" << c.merged;
  return os.str();
}

std::string state_fingerprint(const Sim& sim) {
  std::ostringstream os;
  os << counters_text(sim.counters()) << " step=" << sim.step_index()
     << " state=" << std::hex << audit::hash_store(sim.particles());
  return os.str();
}

// --- Report ----------------------------------------------------------------

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& text) { notes.push_back(text); }
  // Counts one attempted run; `error` empty = it succeeded.
  void outcome(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    note("FAILED " + what + ": " + error);
  }

  void write(const std::string& path) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].second.first)
                           ? metrics[i].second.first
                           : 0.0;
      os << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
         << "\": {\"value\": " << v << ", \"unit\": \""
         << metrics[i].second.second << "\"}";
    }
    os << "}, \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"";
      for (char c : notes[i]) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
      }
      os << "\"";
    }
    os << "]}\n";
    std::ofstream out(path);
    out << os.str();
    if (!out) throw std::runtime_error("cannot write " + path);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Untraced run: the `cmdsmc run` path ------------------------------------

void clear_files(const fs::path& dir) {
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) fs::remove(e.path());
}

// Records when the Runner starts writing results: everything before is
// lookup, set-up and the step loop (plus assembling the averaged fields).
class StampSink final : public scenario::OutputSink {
 public:
  explicit StampSink(Clock::time_point* at) : at_(at) {}
  void write(const scenario::RunResult&) override { *at_ = Clock::now(); }

 private:
  Clock::time_point* at_;
};

struct UntracedRun {
  double wall_s = 0.0;      // lookup to the last sink byte
  double to_sinks_s = 0.0;  // lookup to the first sink call
  scenario::RunResult result;
};

UntracedRun run_untraced(const Workload& w, const std::string& seed,
                         cmdp::ThreadPool& pool) {
  // Each run writes into an empty directory, as a first run does: rewriting
  // the previous run's files in place can make the file system flush them
  // (ext4 auto_da_alloc), a disk wait no user run pays.
  clear_files(fs::current_path());
  UntracedRun run;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point sinks_at = t0;
  scenario::Runner runner(make_spec(w, seed));
  runner.add_sink(std::make_unique<StampSink>(&sinks_at));
  runner.add_spec_sinks();
  run.result = runner.run(&pool);
  run.wall_s = seconds_since(t0);
  run.to_sinks_s = std::chrono::duration<double>(sinks_at - t0).count();
  return run;
}

// Set-up as `setup_s` defines it: lookup, override parse, build_config and
// the Simulation constructor (grid, scene, interior mask, particles and
// reservoir), up to the point where the first step can run.
double time_setup(const Workload& w, const std::string& seed,
                  cmdp::ThreadPool& pool, std::size_t* particles) {
  const Clock::time_point t0 = Clock::now();
  const core::SimConfig cfg = make_spec(w, seed).build_config();
  const Sim sim(cfg, &pool);
  const double s = seconds_since(t0);
  *particles = sim.total_count();
  return s;
}

// The identical problem for a few steps on a 1-lane and a 4-lane pool:
// counters and particle state must agree bit for bit.
std::string check_lane_invariance(const Workload& w, const std::string& seed,
                                  cmdp::ThreadPool& pool) {
  constexpr int kSteps = 20;
  cmdp::ThreadPool other(pool.size() == 1 ? 4 : 1);
  auto fingerprint = [&](cmdp::ThreadPool& p) {
    Sim sim(make_spec(w, seed).build_config(), &p);
    sim.run(kSteps);
    return state_fingerprint(sim);
  };
  const std::string mine = fingerprint(pool);
  const std::string theirs = fingerprint(other);
  if (mine == theirs) return {};
  return std::to_string(pool.size()) + " lanes: " + mine + " vs " +
         std::to_string(other.size()) + " lanes: " + theirs;
}

// Full-run counters are recorded per (group, seed, lanes); a sibling
// workload's record for the same seed must match.
std::string check_recorded_counters(const Workload& w, const std::string& seed,
                                    const std::string& records,
                                    const core::SimCounters& counters,
                                    std::string* compared_with) {
  fs::create_directories(records);
  const std::string mine = counters_text(counters);
  const std::string stem =
      records + "/" + w.invariance_group + ".seed" + seed + ".lanes";
  {
    std::ofstream out(stem + std::to_string(w.lanes));
    out << mine << "\n";
  }
  for (const Workload& other : workloads()) {
    if (other.invariance_group != w.invariance_group ||
        other.lanes == w.lanes)
      continue;
    std::ifstream in(stem + std::to_string(other.lanes));
    std::string theirs;
    if (!std::getline(in, theirs)) continue;
    *compared_with = other.name;
    if (theirs != mine)
      return "counters differ from " + other.name + ": " + mine + " vs " +
             theirs;
  }
  return {};
}

void run_end_to_end(const Workload& w, const std::string& seed,
                    double seconds, const std::string& records,
                    Report& report) {
  cmdp::ThreadPool pool(w.lanes);
  const Clock::time_point start = Clock::now();

  // Set-up, several times (the first pays the page faults of fresh memory,
  // as a user's single run does; the median reports the typical cost).
  std::vector<double> setup;
  std::size_t initial_particles = 0;
  while (setup.size() < 5 ||
         (seconds_since(start) < 0.05 * seconds && setup.size() < 41))
    setup.push_back(time_setup(w, seed, pool, &initial_particles));
  const double setup_s = median(setup);

  std::vector<double> wall;
  std::vector<double> usec;
  std::vector<double> summary_usec;
  std::string first_counters;
  core::SimCounters counters;
  do {
    UntracedRun run;
    std::string error;
    std::string physics;
    try {
      run = run_untraced(w, seed, pool);
      error = check_physics(w, run.result, &physics);
      const std::string c = counters_text(run.result.counters);
      if (first_counters.empty()) {
        first_counters = c;
        counters = run.result.counters;
        report.note("physics: " + physics);
      } else if (error.empty() && c != first_counters) {
        error = "counters changed between repeats of one seed";
      }
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
    report.outcome("run " + std::to_string(report.attempted + 1), error);
    if (!error.empty()) continue;
    const scenario::RunResult& r = run.result;
    // Particles processed per step: flow + reservoir (every one is moved,
    // sorted and collided).  The population drifts only by synthesized
    // injections and axisymmetric clone/merge, so the mean of the initial
    // and final counts stands for the per-step mean.
    const double particles =
        0.5 * (static_cast<double>(initial_particles) +
               static_cast<double>(r.total_count));
    std::fprintf(stderr, "perfbench: run %zu wall %.4f s\n", wall.size() + 1,
                 run.wall_s);
    wall.push_back(run.wall_s);
    usec.push_back((run.to_sinks_s - setup_s) * 1e6 /
                   (static_cast<double>(r.total_steps) * particles));
    summary_usec.push_back(r.usec_per_particle_step);
    // Stop when the next run would end more than half a run past the
    // budget, so a run of any length averages over about `seconds`.
  } while (seconds_since(start) + 0.5 * median(wall) < seconds &&
           report.attempted < 200);

  if (!w.invariance_group.empty() && !first_counters.empty()) {
    std::string error;
    try {
      error = check_lane_invariance(w, seed, pool);
      std::string compared_with;
      if (error.empty())
        error = check_recorded_counters(w, seed, records, counters,
                                        &compared_with);
      report.note(compared_with.empty()
                      ? "counters: 1-lane == 4-lane over 20 steps"
                      : "counters: 1-lane == 4-lane over 20 steps; full run "
                        "equals " + compared_with + " at this seed");
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
    report.outcome("lane-invariance check", error);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  report.add("wall_s", median(wall), "s");
  report.add("setup_s", setup_s, "s");
  report.add("usec_per_particle_step", median(usec), "us");
  report.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  if (wall.empty()) return;
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%zu runs, wall min/median/max %.4f/%.4f/%.4f s; %zu set-ups, "
                "median %.5f s; %zu initial particles",
                wall.size(), *std::min_element(wall.begin(), wall.end()),
                median(wall), *std::max_element(wall.begin(), wall.end()),
                setup.size(), setup_s, initial_particles);
  report.note(buf);
  std::snprintf(buf, sizeof buf,
                "program's own summary (phase-timer sum / final total_count): "
                "%.5f us/particle-step",
                median(summary_usec));
  report.note(buf);
}

// --- Traced run ------------------------------------------------------------

// Per-step layer accounting from the Simulation's StepStats; forwards every
// step the workload's own observer wants to it, timing the forward as the
// telemetry write path's cost.
class LayerTracer final : public obs::StepObserver {
 public:
  static constexpr int kPhases = obs::StepStats::kPhases;

  explicit LayerTracer(obs::StepObserver* forward) : forward_(forward) {}

  void on_step(const obs::StepStats& s) override {
    ++steps;
    particle_steps += s.total;
    for (int p = 0; p < kPhases; ++p) {
      double busiest = 0.0;
      for (unsigned t = 0; t < s.lanes; ++t)
        busiest = std::max(busiest, s.lane_second(p, t));
      unlaned_s[p] += s.phase_seconds[p] - busiest;
      imbalance_sum[p] += s.imbalance[p];
    }
    cost_imbalance_sum += s.cost_imbalance;
    arena_bytes_max = std::max(arena_bytes_max, s.arena_bytes);
    if (forward_ != nullptr && forward_->wants_step(s.step)) {
      const Clock::time_point t0 = Clock::now();
      forward_->on_step(s);
      forward_s += seconds_since(t0);
    }
  }

  std::uint64_t steps = 0;
  std::uint64_t particle_steps = 0;
  std::array<double, kPhases> unlaned_s{};
  std::array<double, kPhases> imbalance_sum{};
  double cost_imbalance_sum = 0.0;
  std::size_t arena_bytes_max = 0;
  double forward_s = 0.0;

 private:
  obs::StepObserver* forward_;
};

// Nearest-rank percentile of `v` at `tenths` / 10 percent.
double percentile(std::vector<double> v, int tenths) {
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      (static_cast<std::size_t>(tenths) * v.size() + 999) / 1000;
  return v[rank == 0 ? 0 : rank - 1];
}

// The highest of the usual percentiles with at least ten samples beyond it.
int tail_tenths(std::size_t n) {
  for (int tenths : {999, 990, 950, 900, 750})
    if (n - (static_cast<std::size_t>(tenths) * n + 999) / 1000 >= 10)
      return tenths;
  return 500;
}

// Computed bytes per particle the phase's loops read and write in the
// ParticleStore (plus the sort-key array), write-allocate traffic not
// counted.  Move: the interior fast path — positions and in-plane
// velocities read, positions, cell and key written (axisymmetric runs also
// read uz and write the rotated uy, uz).  Sort: the fused scatter reads
// every record and its key and writes every record once.
double move_bytes(const core::ParticleStore<double>& s, bool axi) {
  const double real = sizeof(double);
  double reals = s.has_z ? 6.0 + 3.0 : 4.0 + 2.0;
  if (axi) reals = 5.0 + 4.0;
  return reals * real + 3.0 * sizeof(std::uint32_t);
}
double sort_bytes(const core::ParticleStore<double>& s) {
  const double real = sizeof(double);
  double record =
      real * (7.0 + (s.has_z ? 1.0 : 0.0) + (s.has_vib ? 2.0 : 0.0));
  if (s.has_weight) record += sizeof(double);
  record += sizeof(rng::PackedPerm) + 2.0 * sizeof(std::uint32_t) +
            sizeof(std::uint8_t);
  return 2.0 * record + sizeof(std::uint32_t);
}

// The spec's sinks as the Runner builds them, with the console ones
// redirected into `console` so their bytes can be counted.
std::unique_ptr<scenario::OutputSink> traced_sink(
    const std::string& name, const scenario::ScenarioSpec& spec,
    const std::string& prefix, std::ostream* console) {
  if (name == "ascii")
    return std::make_unique<scenario::AsciiContourSink>(console,
                                                        spec.contour_vmax);
  if (name == "report")
    return std::make_unique<scenario::ConsoleReportSink>(console);
  return scenario::make_sink(name, prefix);
}

std::map<std::string, std::uintmax_t> files_in(const fs::path& dir) {
  std::map<std::string, std::uintmax_t> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) out[e.path().filename().string()] = e.file_size();
  return out;
}

void run_traced(const Workload& w, const std::string& seed, Report& report) {
  cmdp::ThreadPool pool(w.lanes);

  // Machine probes first, while no simulation holds memory.
  const double dispatch = perfbench::dispatch_us(pool);
  const perfbench::CacheInfo llc = perfbench::last_level_cache();
  const perfbench::TriadResult triad =
      perfbench::triad_roof(pool, 4 * llc.bytes);
  report.outcome("triad probe",
                 triad.valid ? "" : "triad result read back wrong");

  // Untraced reference runs bracket the traced one, so drift in the
  // machine's speed over the run cancels out of the tracing overhead.
  const auto untraced_reference = [&]() {
    double wall = 0.0;
    std::string error;
    std::string physics;
    try {
      const UntracedRun run = run_untraced(w, seed, pool);
      wall = run.wall_s;
      error = check_physics(w, run.result, &physics);
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
    report.outcome("untraced run", error);
    clear_files(fs::current_path());
    return wall;
  };
  const double untraced_before = untraced_reference();

  // Traced run: the Runner's sequence, driven from here.
  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioSpec spec = make_spec(w, seed);
  const core::SimConfig cfg = spec.build_config();
  if (spec.schedule.auto_steady || spec.schedule.rectangular_start ||
      spec.schedule.precision != scenario::Precision::kDouble)
    throw std::logic_error("traced run covers fixed-schedule double runs");
  const Clock::time_point c0 = Clock::now();
  Sim sim(cfg, &pool);
  const double construct_s = seconds_since(c0);

  const std::string prefix =
      spec.output_prefix.empty() ? spec.name : spec.output_prefix;
  std::unique_ptr<obs::TelemetrySession> telemetry;
  if (!spec.telemetry_path.empty() || !spec.trace_path.empty() ||
      spec.progress) {
    const auto derive = [&](const std::string& v, const char* suffix) {
      return v == "1" || v == "on" ? prefix + suffix : v;
    };
    obs::TelemetryOptions topt;
    topt.jsonl_path = derive(spec.telemetry_path, "_telemetry.jsonl");
    topt.trace_path = derive(spec.trace_path, "_trace.json");
    topt.every = spec.telemetry_every;
    topt.progress = spec.progress;
    topt.expected_steps = spec.schedule.steady_steps + spec.schedule.avg_steps;
    telemetry = std::make_unique<obs::TelemetrySession>(std::move(topt));
    if (!telemetry->ok())
      throw std::runtime_error("telemetry: cannot open output file");
  }
  LayerTracer tracer(telemetry.get());
  sim.set_step_observer(&tracer);

  std::vector<double> step_ms;
  const auto stepped = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Clock::time_point s0 = Clock::now();
      sim.step();
      step_ms.push_back(seconds_since(s0) * 1e3);
    }
  };
  const Clock::time_point loop0 = Clock::now();
  stepped(spec.schedule.steady_steps);
  sim.set_sampling(true);
  if (cfg.has_body_scene()) sim.set_surface_sampling(true);
  stepped(spec.schedule.avg_steps);
  const double loop_s = seconds_since(loop0);

  scenario::RunResult result;
  result.scenario = spec.name;
  result.precision = spec.schedule.precision;
  result.config = cfg;
  result.steady_steps = spec.schedule.steady_steps;
  result.avg_steps = spec.schedule.avg_steps;
  result.field = sim.field();
  if (cfg.has_body_scene()) {
    result.surface = sim.surface();
    result.surfaces = sim.surface_per_body();
  }
  result.counters = sim.counters();
  result.flow_count = sim.flow_count();
  result.reservoir_count = sim.reservoir_count();
  result.total_count = sim.total_count();
  result.phase_seconds = {sim.phase_seconds(Sim::kPhaseMove),
                          sim.phase_seconds(Sim::kPhaseSort),
                          sim.phase_seconds(Sim::kPhaseSelect),
                          sim.phase_seconds(Sim::kPhaseCollide),
                          sim.phase_seconds(Sim::kPhaseSample)};
  result.total_seconds = sim.total_seconds();
  const Sim::ShardStats shards = sim.shard_stats();
  result.shards = shards.shards;
  result.repartitions = shards.repartitions;
  result.imbalance = shards.cost_imbalance;
  result.post_repartition_imbalance = shards.post_imbalance;
  result.total_steps = result.steady_steps + result.avg_steps;
  result.usec_per_particle_step =
      result.total_seconds * 1e6 /
      (static_cast<double>(result.total_steps) *
       static_cast<double>(result.total_count));

  sim.set_step_observer(nullptr);
  if (telemetry) {
    const Clock::time_point f0 = Clock::now();
    telemetry->finish();
    tracer.forward_s += seconds_since(f0);
  }

  // Sinks, each timed; bytes are the files each one created plus what the
  // console sinks printed.
  std::ostringstream console;
  double sinks_s = 0.0;
  double sinks_bytes = 0.0;
  std::map<std::string, std::uintmax_t> seen = files_in(fs::current_path());
  for (const std::string& name : spec.sinks) {
    const std::unique_ptr<scenario::OutputSink> sink =
        traced_sink(name, spec, prefix, &console);
    const Clock::time_point s0 = Clock::now();
    sink->write(result);
    sinks_s += seconds_since(s0);
    for (const auto& [file, size] : files_in(fs::current_path()))
      if (seen.emplace(file, size).second)
        sinks_bytes += static_cast<double>(size);
  }
  sinks_bytes += static_cast<double>(console.str().size());
  const double traced_wall = seconds_since(t0);
  {
    std::string physics;
    const std::string error = check_physics(w, result, &physics);
    if (error.empty()) report.note("physics: " + physics);
    report.outcome("traced run", error);
  }

  // Checkpoint probe: save, load into a fresh Simulation, and both must
  // advance identically.
  constexpr int kResumeSteps = 10;
  double save_s = 0.0;
  double load_s = 0.0;
  double checkpoint_mb = 0.0;
  {
    std::string error;
    try {
      const std::string path = "checkpoint_probe.bin";
      const Clock::time_point s0 = Clock::now();
      core::save_checkpoint(path, sim);
      save_s = seconds_since(s0);
      checkpoint_mb = static_cast<double>(fs::file_size(path)) / kMiB;
      Sim resumed(cfg, &pool);
      const Clock::time_point l0 = Clock::now();
      core::load_checkpoint(path, resumed);
      load_s = seconds_since(l0);
      fs::remove(path);
      resumed.set_sampling(true);
      if (cfg.has_body_scene()) resumed.set_surface_sampling(true);
      sim.run(kResumeSteps);
      resumed.run(kResumeSteps);
      const std::string a = state_fingerprint(sim);
      const std::string b = state_fingerprint(resumed);
      if (a != b) error = "resumed " + b + " vs uninterrupted " + a;
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
    report.outcome("checkpoint resume", error);
  }


  const double untraced_after = untraced_reference();
  const double untraced_wall = 0.5 * (untraced_before + untraced_after);

  // Layer metrics.  Phases in Table A order; select is fused into collide.
  const auto steps = static_cast<double>(tracer.steps);
  const auto particle_steps = static_cast<double>(tracer.particle_steps);
  const core::SimCounters& c = result.counters;
  const double candidates = static_cast<double>(c.candidates);
  struct PhaseRow {
    const char* name;
    int phase;
  };
  for (const PhaseRow row : {PhaseRow{"move", obs::StepStats::kMove},
                             PhaseRow{"sort", obs::StepStats::kSort},
                             PhaseRow{"collide", obs::StepStats::kCollide}}) {
    const std::string key = std::string("core.") + row.name;
    const double s = result.phase_seconds[static_cast<std::size_t>(row.phase)];
    report.add(key + ".s", s, "s");
    if (row.phase == obs::StepStats::kCollide)
      report.add(key + ".ns_per_candidate", s * 1e9 / candidates, "ns");
    else
      report.add(key + ".ns_per_particle", s * 1e9 / particle_steps, "ns");
    report.add(key + ".imbalance", tracer.imbalance_sum[row.phase] / steps,
               "ratio");
    report.add(key + ".unlaned_s", tracer.unlaned_s[row.phase], "s");
  }
  report.add("core.sample.s", result.phase_seconds[obs::StepStats::kSample],
             "s");
  const int tail = tail_tenths(step_ms.size());
  report.add("core.step.ms_p50", percentile(step_ms, 500), "ms");
  report.add("core.step.ms_tail", percentile(step_ms, tail), "ms");
  report.add("core.step.tail_pct", tail / 10.0, "%");
  report.add("core.construct_s", construct_s, "s");
  report.add("core.balance.cloned_per_step",
             static_cast<double>(c.cloned) / steps, "count");
  report.add("core.balance.merged_per_step",
             static_cast<double>(c.merged) / steps, "count");
  report.add("core.inject.synthesized_ratio",
             c.injected > 0 ? static_cast<double>(c.synthesized) /
                                  static_cast<double>(c.injected)
                            : 0.0,
             "ratio");
  report.add("core.checkpoint.save_s", save_s, "s");
  report.add("core.checkpoint.load_s", load_s, "s");
  report.add("core.checkpoint.mb", checkpoint_mb, "MiB");
  report.add("core.arena_mb",
             static_cast<double>(tracer.arena_bytes_max) / kMiB, "MiB");
  report.add("core.loop_usec_per_particle_step",
             loop_s * 1e6 / particle_steps, "us");
  report.add("core.phase_sum_usec_per_particle_step",
             result.usec_per_particle_step, "us");
  report.add("physics.candidates_per_step", candidates / steps, "count");
  report.add("physics.accept_ratio",
             static_cast<double>(c.collisions + c.reservoir_collisions) /
                 candidates,
             "ratio");
  report.add("cmdp.shard.repartitions",
             static_cast<double>(shards.repartitions), "count");
  report.add("cmdp.shard.cost_imbalance", tracer.cost_imbalance_sum / steps,
             "ratio");
  report.add("cmdp.pool.dispatch_us", dispatch, "us");
  report.add("cmdp.triad_gbps", triad.gbps, "GB/s");
  report.add("cmdp.triad.array_mib",
             static_cast<double>(triad.array_bytes) / kMiB, "MiB");
  report.add("cmdp.llc_mib", static_cast<double>(llc.bytes) / kMiB, "MiB");
  const double move_gbps =
      move_bytes(sim.particles(), cfg.axisymmetric) * particle_steps /
      result.phase_seconds[obs::StepStats::kMove] / 1e9;
  const double sort_gbps = sort_bytes(sim.particles()) * particle_steps /
                           result.phase_seconds[obs::StepStats::kSort] / 1e9;
  report.add("core.move.roof_fraction", move_gbps / triad.gbps, "ratio");
  report.add("core.sort.roof_fraction", sort_gbps / triad.gbps, "ratio");
  report.add("io.sinks.s", sinks_s, "s");
  report.add("io.sinks.mb", sinks_bytes / kMiB, "MiB");
  report.add("obs.telemetry.overhead_pct", 100.0 * tracer.forward_s / loop_s,
             "%");
  report.add("bench.trace_overhead_pct",
             100.0 * (traced_wall - untraced_wall) / untraced_wall, "%");

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "roof: STREAM triad %.2f GB/s on the %u-lane pool, 3 arrays "
                "of %.0f MiB each (>= 4x the %.0f MiB L%d cache from %s)",
                triad.gbps, pool.size(),
                static_cast<double>(triad.array_bytes) / kMiB,
                static_cast<double>(llc.bytes) / kMiB, llc.level,
                llc.source.c_str());
  report.note(buf);
  std::snprintf(buf, sizeof buf,
                "roof fractions are computed: move %.0f B/particle (interior "
                "path), sort %.0f B/particle (scatter) over the phase seconds",
                move_bytes(sim.particles(), cfg.axisymmetric),
                sort_bytes(sim.particles()));
  report.note(buf);
  std::snprintf(buf, sizeof buf,
                "step time tail is p%.1f of %zu steps; traced wall %.3f s, "
                "untraced %.3f s before and %.3f s after",
                tail / 10.0, step_ms.size(), traced_wall, untraced_before,
                untraced_after);
  report.note(buf);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key :
       {"workload", "seed", "seconds", "trace", "workdir", "records", "result"})
    if (args.count(key) == 0) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N "
                   "--seconds S --trace 0|1 --workdir DIR --records DIR "
                   "--result FILE\n");
      return 2;
    }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads())
    if (w.name == args["workload"]) workload = &w;
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args["workload"].c_str());
    return 2;
  }
  try {
    const std::string seed =
        std::to_string(cli::parse_uint64("seed", args["seed"]));
    const double seconds = cli::parse_double("seconds", args["seconds"]);
    const bool trace = cli::parse_bool("trace", args["trace"]);
    const std::string records = fs::absolute(args["records"]).string();
    const std::string result = fs::absolute(args["result"]).string();
    fs::create_directories(args["workdir"]);
    fs::current_path(args["workdir"]);
    clear_files(fs::current_path());

    Report report;
    if (trace)
      run_traced(*workload, seed, report);
    else
      run_end_to_end(*workload, seed, seconds, records, report);
    report.write(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  return 0;
}
