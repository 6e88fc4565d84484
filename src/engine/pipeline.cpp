// The per-rank pipeline entries (framework/pipeline.h), one per data source:
// each assigns this rank its input block, names the recovery source, and
// runs the staged pipeline (engine/stages.h). Engine::run_batch and the
// socket workers call these too, so the rank-input code exists once.
#include "engine/stages.h"
#include "framework/pipeline.h"
#include "nbody/snapshot_io.h"

namespace dtfe {

PipelineResult run_pipeline(simmpi::Comm& comm, const ParticleSet& particles,
                            std::vector<Vec3> field_centers,
                            const PipelineOptions& opt) {
  // Arbitrary block assignment standing in for the MPI-IO read: rank r
  // takes the r-th contiguous slice of the file order.
  const int P = comm.size();
  const int me = comm.rank();
  const std::size_t n = particles.size();
  const std::size_t lo =
      n * static_cast<std::size_t>(me) / static_cast<std::size_t>(P);
  const std::size_t hi =
      n * static_cast<std::size_t>(me + 1) / static_cast<std::size_t>(P);
  std::vector<Vec3> block(
      particles.positions.begin() + static_cast<std::ptrdiff_t>(lo),
      particles.positions.begin() + static_cast<std::ptrdiff_t>(hi));
  // Recovery source: the full in-memory set every rank already holds.
  const CubeFetcher fetch = [&particles](const Vec3& center, double side) {
    return extract_cube(particles, center, side);
  };
  return engine::run_stages(comm, opt, particles.box_length,
                            particles.particle_mass, std::move(block),
                            std::move(field_centers), fetch);
}

PipelineResult run_pipeline_from_snapshot(simmpi::Comm& comm,
                                          const std::string& snapshot_path,
                                          std::vector<Vec3> field_centers,
                                          const PipelineOptions& opt) {
  // Parallel read with round-robin block assignment (paper: "a parallel
  // read of the data using an arbitrary block assignment").
  const SnapshotHeader header = read_snapshot_header(snapshot_path);
  std::vector<Vec3> block;
  for (std::size_t b = static_cast<std::size_t>(comm.rank());
       b < header.blocks.size(); b += static_cast<std::size_t>(comm.size())) {
    const auto part = read_snapshot_block(snapshot_path, header, b);
    block.insert(block.end(), part.begin(), part.end());
  }
  // Recovery source: a targeted re-read of only the snapshot blocks whose
  // sub-volumes intersect the requested cube.
  const CubeFetcher fetch = [&snapshot_path, &header](const Vec3& center,
                                                      double side) {
    return read_snapshot_cube(snapshot_path, header, center, side);
  };
  return engine::run_stages(comm, opt, header.box_length,
                            header.particle_mass, std::move(block),
                            std::move(field_centers), fetch);
}

}  // namespace dtfe
