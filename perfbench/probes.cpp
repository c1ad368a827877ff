#include "probes.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// "107520K" / "2048K" / "32M" as sysfs prints cache sizes.
std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9')
    value = value * 10 + static_cast<std::size_t>(text[i++] - '0');
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value <<= 20;
  return value;
}

}  // namespace

CacheInfo last_level_cache() {
  CacheInfo best;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    std::ifstream type_file(dir + "/type");
    int level = 0;
    std::string size;
    std::string type;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    type_file >> type;
    if (type == "Instruction") continue;
    const std::size_t bytes = parse_cache_size(size);
    if (level > best.level || (level == best.level && bytes > best.bytes)) {
      best.level = level;
      best.bytes = bytes;
      best.source = dir + "/size";
    }
  }
  if (best.bytes == 0) {
    best.bytes = std::size_t{64} << 20;
    best.level = 0;
    best.source = "assumed 64 MiB (no sysfs cache description)";
  }
  return best;
}

TriadResult triad_roof(cmdsmc::cmdp::ThreadPool& pool,
                       std::size_t min_array_bytes) {
  const std::size_t n = (min_array_bytes + sizeof(double) - 1) / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const unsigned lanes = pool.size();
  const auto lo = [&](unsigned t) { return n * t / lanes; };
  const double s = 3.0;

  pool.parallel([&](unsigned t) {
    for (std::size_t i = lo(t); i < lo(t + 1); ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    pool.parallel([&](unsigned t) {
      double* const pa = a.get();
      const double* const pb = b.get();
      const double* const pc = c.get();
      for (std::size_t i = lo(t); i < lo(t + 1); ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, seconds_since(t0));
  }

  TriadResult r;
  r.array_bytes = n * sizeof(double);
  r.gbps = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  r.valid = true;
  for (std::size_t i = 0; i < n; i += 4099)
    if (a[i] != 7.0) r.valid = false;
  return r;
}

double dispatch_us(cmdsmc::cmdp::ThreadPool& pool) {
  const std::function<void(unsigned)> noop = [](unsigned) {};
  for (int i = 0; i < 200; ++i) pool.parallel(noop);
  constexpr int kBatches = 31;
  constexpr int kCalls = 200;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) pool.parallel(noop);
    per_call.push_back(seconds_since(t0) * 1e6 / kCalls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace perfbench
