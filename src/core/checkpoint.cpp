#include "core/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace cmdsmc::core {

namespace {

// Format v2 (axisymmetric weights + balance counters); v1 files are refused
// with a bad-magic error rather than misread.
constexpr std::uint64_t kMagic = 0x434d44534d433033ull;   // "CMDSMC03"
constexpr std::uint64_t kMagicSim = 0x434d44534d433034ull;  // "CMDSMC04"

template <class Real>
constexpr std::uint32_t scalar_tag() {
  if constexpr (std::is_same_v<Real, double>)
    return 1;
  else
    return 2;  // Fixed32
}

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("checkpoint: truncated header");
}

template <class T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(T)));
}

// Bytes from the read position to the end of the stream.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (!is || here < 0 || end < here)
    throw std::runtime_error("checkpoint: unseekable stream");
  return static_cast<std::uint64_t>(end - here);
}

template <class T>
void read_vec(std::istream& is, std::vector<T>& v) {
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is) throw std::runtime_error("checkpoint: truncated header");
  // A corrupt length prefix must not drive the allocation.
  if (n > bytes_left(is) / sizeof(T))
    throw std::runtime_error("checkpoint: array length " + std::to_string(n) +
                             " runs past the end of the file");
  v.resize(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!is) throw std::runtime_error("checkpoint: truncated array");
}

template <class Real>
void write_store(std::ostream& os, const ParticleStore<Real>& s) {
  const std::uint8_t has_z = s.has_z ? 1 : 0;
  const std::uint8_t has_vib = s.has_vib ? 1 : 0;
  const std::uint8_t has_weight = s.has_weight ? 1 : 0;
  write_pod(os, has_z);
  write_pod(os, has_vib);
  write_pod(os, has_weight);
  write_vec(os, s.x);
  write_vec(os, s.y);
  if (s.has_z) write_vec(os, s.z);
  write_vec(os, s.ux);
  write_vec(os, s.uy);
  write_vec(os, s.uz);
  write_vec(os, s.r0);
  write_vec(os, s.r1);
  if (s.has_vib) {
    write_vec(os, s.v0);
    write_vec(os, s.v1);
  }
  if (s.has_weight) write_vec(os, s.weight);
  write_vec(os, s.perm);
  write_vec(os, s.cell);
  write_vec(os, s.flags);
  write_vec(os, s.id);
}

template <class Real>
void read_store(std::istream& is, ParticleStore<Real>& s) {
  std::uint8_t has_z = 0;
  std::uint8_t has_vib = 0;
  std::uint8_t has_weight = 0;
  read_pod(is, has_z);
  read_pod(is, has_vib);
  read_pod(is, has_weight);
  s.has_z = has_z != 0;
  s.has_vib = has_vib != 0;
  s.has_weight = has_weight != 0;
  read_vec(is, s.x);
  read_vec(is, s.y);
  if (s.has_z) read_vec(is, s.z);
  read_vec(is, s.ux);
  read_vec(is, s.uy);
  read_vec(is, s.uz);
  read_vec(is, s.r0);
  read_vec(is, s.r1);
  if (s.has_vib) {
    read_vec(is, s.v0);
    read_vec(is, s.v1);
  }
  if (s.has_weight) read_vec(is, s.weight);
  read_vec(is, s.perm);
  read_vec(is, s.cell);
  read_vec(is, s.flags);
  read_vec(is, s.id);
  const std::size_t n = s.x.size();
  const bool same_length =
      s.y.size() == n && (!s.has_z || s.z.size() == n) && s.ux.size() == n &&
      s.uy.size() == n && s.uz.size() == n && s.r0.size() == n &&
      s.r1.size() == n &&
      (!s.has_vib || (s.v0.size() == n && s.v1.size() == n)) &&
      (!s.has_weight || s.weight.size() == n) && s.perm.size() == n &&
      s.cell.size() == n && s.flags.size() == n && s.id.size() == n;
  if (!same_length)
    throw std::runtime_error("checkpoint: particle arrays differ in length");
}

}  // namespace

template <class Real>
void save_checkpoint(const std::string& path, const ParticleStore<Real>& s) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("checkpoint: cannot open " + path);
  write_pod(os, kMagic);
  write_pod(os, scalar_tag<Real>());
  write_store(os, s);
  if (!os) throw std::runtime_error("checkpoint: write failed " + path);
}

template <class Real>
void load_checkpoint(const std::string& path, ParticleStore<Real>& s) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::uint64_t magic = 0;
  std::uint32_t tag = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&tag), sizeof(tag));
  if (!is || magic != kMagic)
    throw std::runtime_error("checkpoint: bad magic in " + path);
  if (tag != scalar_tag<Real>())
    throw std::runtime_error("checkpoint: scalar type mismatch in " + path);
  read_store(is, s);
}

template <class Real>
void save_checkpoint(const std::string& path, const Simulation<Real>& sim) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("checkpoint: cannot open " + path);
  write_pod(os, kMagicSim);
  write_pod(os, scalar_tag<Real>());
  write_pod(os, sim.geometry_hash());
  const auto st = sim.resume_state();
  write_pod(os, st.step);
  write_pod(os, st.plunger_x);
  write_pod(os, st.res_count);
  write_pod(os, st.res_tail);
  write_pod(os, st.counters.candidates);
  write_pod(os, st.counters.collisions);
  write_pod(os, st.counters.reservoir_collisions);
  write_pod(os, st.counters.removed);
  write_pod(os, st.counters.injected);
  write_pod(os, st.counters.synthesized);
  write_pod(os, st.counters.cloned);
  write_pod(os, st.counters.merged);
  write_pod(os, static_cast<std::int32_t>(st.field_samples));
  write_vec(os, st.field_sums);
  write_pod(os, static_cast<std::int32_t>(st.surface_samples));
  write_vec(os, st.surface_sums);
  write_store(os, sim.particles());
  if (!os) throw std::runtime_error("checkpoint: write failed " + path);
}

template <class Real>
void load_checkpoint(const std::string& path, Simulation<Real>& sim) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::uint64_t magic = 0;
  std::uint32_t tag = 0;
  std::uint64_t geom_hash = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&tag), sizeof(tag));
  if (!is || magic != kMagicSim)
    throw std::runtime_error("checkpoint: bad magic in " + path +
                             (magic == kMagic
                                  ? " (particle-store checkpoint; load it "
                                    "with the ParticleStore overload)"
                                  : ""));
  if (tag != scalar_tag<Real>())
    throw std::runtime_error("checkpoint: scalar type mismatch in " + path);
  read_pod(is, geom_hash);
  if (geom_hash != sim.geometry_hash())
    throw std::runtime_error(
        "checkpoint: geometry/config mismatch in " + path +
        " (the checkpoint was written by a run with different grid, bodies "
        "or boundary mode)");
  typename Simulation<Real>::ResumeState st;
  std::int32_t samples = 0;
  read_pod(is, st.step);
  read_pod(is, st.plunger_x);
  read_pod(is, st.res_count);
  read_pod(is, st.res_tail);
  read_pod(is, st.counters.candidates);
  read_pod(is, st.counters.collisions);
  read_pod(is, st.counters.reservoir_collisions);
  read_pod(is, st.counters.removed);
  read_pod(is, st.counters.injected);
  read_pod(is, st.counters.synthesized);
  read_pod(is, st.counters.cloned);
  read_pod(is, st.counters.merged);
  read_pod(is, samples);
  st.field_samples = samples;
  read_vec(is, st.field_sums);
  read_pod(is, samples);
  st.surface_samples = samples;
  read_vec(is, st.surface_sums);
  ParticleStore<Real> store;
  read_store(is, store);
  try {
    sim.restore(std::move(store), st);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("checkpoint: ") + e.what() + " in " +
                             path);
  }
}

template void save_checkpoint<double>(const std::string&,
                                      const ParticleStore<double>&);
template void load_checkpoint<double>(const std::string&,
                                      ParticleStore<double>&);
template void save_checkpoint<fixedpoint::Fixed32>(
    const std::string&, const ParticleStore<fixedpoint::Fixed32>&);
template void load_checkpoint<fixedpoint::Fixed32>(
    const std::string&, ParticleStore<fixedpoint::Fixed32>&);
template void save_checkpoint<double>(const std::string&,
                                      const Simulation<double>&);
template void load_checkpoint<double>(const std::string&, Simulation<double>&);
template void save_checkpoint<fixedpoint::Fixed32>(
    const std::string&, const Simulation<fixedpoint::Fixed32>&);
template void load_checkpoint<fixedpoint::Fixed32>(
    const std::string&, Simulation<fixedpoint::Fixed32>&);

}  // namespace cmdsmc::core
