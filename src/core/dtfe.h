// Umbrella header: the public API of the parallel DTFE surface density
// library. Include this to get everything.
//
//   Single volume:   dtfe::Reconstructor (a view over one dtfe::FieldCube)
//   Many fields:     dtfe::engine::Engine::run_batch (or the thinner
//                    dtfe::run_pipeline) over dtfe::simmpi ranks
//   Data:            dtfe::generate_* / snapshot I/O / FOF halos
//
// See README.md for a quickstart and DESIGN.md for the architecture map.
#pragma once

#include "core/reconstructor.h"
#include "delaunay/hull_projection.h"
#include "delaunay/voronoi.h"
#include "delaunay/triangulation.h"
#include "dtfe/density.h"
#include "dtfe/field.h"
#include "dtfe/field_cube.h"
#include "dtfe/lensing.h"
#include "dtfe/marching_kernel.h"
#include "dtfe/tess_kernel.h"
#include "dtfe/vector_field.h"
#include "dtfe/walking_kernel.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "engine/field_kernel.h"
#include "framework/decomposition.h"
#include "framework/des.h"
#include "framework/pipeline.h"
#include "framework/schedule.h"
#include "framework/workload_model.h"
#include "geometry/rotation.h"
#include "nbody/field_statistics.h"
#include "nbody/fof.h"
#include "nbody/grid_assign.h"
#include "nbody/generators.h"
#include "nbody/particles.h"
#include "nbody/snapshot_io.h"
#include "simmpi/comm.h"
