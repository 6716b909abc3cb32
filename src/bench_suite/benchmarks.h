#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hls/directives.h"
#include "hls/kernel_ir.h"
#include "sim/die.h"
#include "sim/tool.h"

namespace cmmfo::bench_suite {

/// A benchmark = kernel IR + raw directive-space spec + simulator behavior
/// parameters (divergence tuned per Fig. 5: GEMM's fidelities nearly
/// overlap, SPMV_ELLPACK's diverge strongly).
struct Benchmark {
  hls::Kernel kernel;
  hls::SpaceSpec spec;
  sim::SimParams sim_params;
  std::string description;
  /// Device floorplan; the default single-die map is a strict no-op (the
  /// paper suite), generated multi-die scenarios fill it in.
  sim::DieMap die_map = {};
};

/// MachSuite gemm/ncubed: dense 64x64x64 matrix multiply.
Benchmark makeGemm();
/// MachSuite sort/radix: multi-pass radix sort with histogram recurrences.
Benchmark makeSortRadix();
/// MachSuite spmv/ellpack: sparse matrix-vector, regular L-wide rows.
Benchmark makeSpmvEllpack();
/// MachSuite spmv/crs: sparse matrix-vector, compressed-row, irregular.
Benchmark makeSpmvCrs();
/// MachSuite stencil/stencil3d: 7-point 3-D stencil.
Benchmark makeStencil3d();
/// iSmart2: object-detection DNN (conv + pool + conv stack) on FPGA.
Benchmark makeIsmart2();

/// All six benchmarks of Sec. V-A, in the paper's order.
std::vector<std::string> benchmarkNames();
Benchmark makeBenchmark(const std::string& name);

/// The simulated tool flow for a benchmark: its kernel and sim params on the
/// Virtex-7 VC707, its die map installed. The simulator keeps a pointer into
/// `bm.kernel`, so `bm` must outlive it and must not move.
std::unique_ptr<sim::FpgaToolSim> makeToolSim(const Benchmark& bm,
                                              std::uint64_t seed);

}  // namespace cmmfo::bench_suite
