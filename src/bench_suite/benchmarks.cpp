#include "bench_suite/benchmarks.h"

#include <stdexcept>

namespace cmmfo::bench_suite {

using hls::ArrayId;
using hls::ArraySiteOptions;
using hls::IndexRole;
using hls::Kernel;
using hls::LoopId;
using hls::LoopSiteOptions;
using hls::OpKind;
using hls::PartitionType;
using hls::SpaceSpec;

namespace {

LoopSiteOptions loopSite(std::vector<int> unrolls, bool pipeline = false,
                         std::vector<int> iis = {1}) {
  LoopSiteOptions o;
  o.unroll_factors = std::move(unrolls);
  o.allow_pipeline = pipeline;
  o.pipeline_iis = std::move(iis);
  return o;
}

ArraySiteOptions arraySite(std::vector<PartitionType> types,
                           std::vector<int> factors) {
  ArraySiteOptions o;
  o.types = std::move(types);
  o.factors = std::move(factors);
  return o;
}

const std::vector<PartitionType> kCB = {PartitionType::kNone,
                                        PartitionType::kCyclic,
                                        PartitionType::kBlock};

}  // namespace

Benchmark makeGemm() {
  // MachSuite gemm/ncubed: C[i][j] = sum_k A[i][k] * B[k][j], 64^3.
  Kernel k("gemm");
  const ArrayId a = k.addArray("A", 64 * 64);
  const ArrayId b = k.addArray("B", 64 * 64);
  const ArrayId c = k.addArray("C", 64 * 64);
  const LoopId li = k.addLoop("i", 64);
  const LoopId lj = k.addLoop("j", 64, li);
  const LoopId lk = k.addLoop("k", 64, lj);

  // j body: zero-init + writeback of C[i][j].
  k.loop(lj).body_ops[OpKind::kAdd] = 1;
  k.loop(lj).body_ops[OpKind::kStore] = 1;
  k.loop(lj).refs.push_back(
      {c, {{li, IndexRole::kMajor}, {lj, IndexRole::kMinor}}, true, 1});
  // k body: load A, load B, multiply-accumulate.
  k.loop(lk).body_ops[OpKind::kLoad] = 2;
  k.loop(lk).body_ops[OpKind::kMul] = 1;
  k.loop(lk).body_ops[OpKind::kAdd] = 1;
  k.loop(lk).refs.push_back(
      {a, {{li, IndexRole::kMajor}, {lk, IndexRole::kMinor}}, false, 1});
  k.loop(lk).refs.push_back(
      {b, {{lk, IndexRole::kMajor}, {lj, IndexRole::kMinor}}, false, 1});
  // The accumulation into a scalar is a short recurrence the tool
  // resolves with tree reduction; not modeled as a loop-carried dep.

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  spec.loops[li] = loopSite({1, 2, 4, 8});
  spec.loops[lj] = loopSite({1, 2, 4, 8, 16, 32}, true, {1, 2});
  spec.loops[lk] = loopSite({1, 2, 4, 8, 16, 32}, true, {1, 2, 4});
  spec.arrays[a] = arraySite(kCB, {1, 2, 4, 8, 16, 32});
  spec.arrays[b] = arraySite(kCB, {1, 2, 4, 8, 16, 32});
  spec.arrays[c] = arraySite(kCB, {1, 2, 4, 8, 16, 32});

  Benchmark bm{std::move(k), std::move(spec), {}, "dense 64x64x64 GEMM"};
  bm.sim_params.divergence = 0.15;  // Fig. 5a: fidelities nearly overlap
  bm.sim_params.noise_scale = 0.02;
  return bm;
}

Benchmark makeSortRadix() {
  // MachSuite sort/radix: per 2-bit digit pass — histogram, prefix scan,
  // permute. Histogram/scan carry recurrences; permutation is irregular.
  Kernel k("sort_radix");
  const ArrayId arr = k.addArray("a", 8192);
  const ArrayId buf = k.addArray("b", 8192);
  const ArrayId bucket = k.addArray("bucket", 512);
  const ArrayId sum = k.addArray("sum", 512);

  const LoopId pass = k.addLoop("pass", 8);
  k.loop(pass).loop_carried_dep = true;  // pass t+1 consumes pass t's output
  const LoopId hist = k.addLoop("hist", 8192, pass);
  const LoopId scan = k.addLoop("scan", 512, pass);
  const LoopId upd = k.addLoop("update", 512, pass);
  const LoopId perm = k.addLoop("permute", 8192, pass);

  k.loop(hist).body_ops[OpKind::kLoad] = 1;
  k.loop(hist).body_ops[OpKind::kLogic] = 2;
  k.loop(hist).body_ops[OpKind::kAdd] = 1;
  k.loop(hist).body_ops[OpKind::kStore] = 1;
  k.loop(hist).loop_carried_dep = true;  // bucket[d]++ serializes
  k.loop(hist).refs.push_back({arr, {{hist, IndexRole::kMinor}}, false, 1});
  k.loop(hist).refs.push_back({bucket, {{hist, IndexRole::kMinor}}, true, 1});

  k.loop(scan).body_ops[OpKind::kLoad] = 1;
  k.loop(scan).body_ops[OpKind::kAdd] = 1;
  k.loop(scan).body_ops[OpKind::kStore] = 1;
  k.loop(scan).loop_carried_dep = true;  // prefix sum
  k.loop(scan).refs.push_back({bucket, {{scan, IndexRole::kMinor}}, false, 1});
  k.loop(scan).refs.push_back({sum, {{scan, IndexRole::kMinor}}, true, 1});

  k.loop(upd).body_ops[OpKind::kLoad] = 1;
  k.loop(upd).body_ops[OpKind::kStore] = 1;
  k.loop(upd).refs.push_back({sum, {{upd, IndexRole::kMinor}}, false, 1});
  k.loop(upd).refs.push_back({bucket, {{upd, IndexRole::kMinor}}, true, 1});

  k.loop(perm).body_ops[OpKind::kLoad] = 2;
  k.loop(perm).body_ops[OpKind::kLogic] = 2;
  k.loop(perm).body_ops[OpKind::kStore] = 1;
  k.loop(perm).refs.push_back({arr, {{perm, IndexRole::kMinor}}, false, 1});
  k.loop(perm).refs.push_back({buf, {{perm, IndexRole::kMinor}}, true, 1});

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  spec.loops[pass] = loopSite({1, 2});
  spec.loops[hist] = loopSite({1, 4, 16, 64}, true, {1, 2});
  spec.loops[scan] = loopSite({1, 4, 16, 64}, true, {1});
  spec.loops[upd] = loopSite({1, 4, 16, 64}, true, {1});
  spec.loops[perm] = loopSite({1, 4, 16, 64}, true, {1, 2});
  spec.arrays[arr] = arraySite(kCB, {1, 4, 16, 64});
  spec.arrays[buf] = arraySite(kCB, {1, 4, 16, 64});
  spec.arrays[bucket] = arraySite(kCB, {1, 4, 16, 64});
  spec.arrays[sum] = arraySite(kCB, {1, 4, 16, 64});

  Benchmark bm{std::move(k), std::move(spec), {},
               "8192-key radix sort with histogram recurrences"};
  // "The irregular memory accesses of SORT_RADIX bring great challenges to
  // ANN, Boosting tree, and DAC19" (Sec. V-C): data-dependent banking makes
  // the reports rough and the stages divergent.
  bm.sim_params.divergence = 0.65;
  bm.sim_params.noise_scale = 0.055;
  return bm;
}

Benchmark makeSpmvEllpack() {
  // MachSuite spmv/ellpack: 494x494 matrix, L = 10 nonzeros per row.
  Kernel k("spmv_ellpack");
  const ArrayId nzval = k.addArray("nzval", 4940);
  const ArrayId cols = k.addArray("cols", 4940);
  const ArrayId vec = k.addArray("vec", 494);
  const ArrayId out = k.addArray("out", 494);

  const LoopId li = k.addLoop("i", 494);
  const LoopId lj = k.addLoop("j", 10, li);

  k.loop(li).body_ops[OpKind::kStore] = 1;
  k.loop(li).refs.push_back({out, {{li, IndexRole::kMinor}}, true, 1});
  k.loop(lj).body_ops[OpKind::kLoad] = 3;  // nzval, cols, vec[cols[..]]
  k.loop(lj).body_ops[OpKind::kMul] = 1;
  k.loop(lj).body_ops[OpKind::kAdd] = 1;
  k.loop(lj).loop_carried_dep = true;  // sum accumulation
  k.loop(lj).refs.push_back(
      {nzval, {{li, IndexRole::kMajor}, {lj, IndexRole::kMinor}}, false, 1});
  k.loop(lj).refs.push_back(
      {cols, {{li, IndexRole::kMajor}, {lj, IndexRole::kMinor}}, false, 1});
  // vec is gathered through cols[j]: the index depends on both loops but
  // with no exploitable stride — model as minor-role accesses on both.
  k.loop(lj).refs.push_back(
      {vec, {{lj, IndexRole::kMinor}}, false, 1});

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  // 494 = 2 * 13 * 19.
  spec.loops[li] = loopSite({1, 2, 13, 19, 26, 38}, true, {1, 2});
  spec.loops[lj] = loopSite({1, 2, 5, 10}, true, {1, 2, 4, 8});
  spec.arrays[nzval] = arraySite(kCB, {1, 2, 5, 10});
  spec.arrays[cols] = arraySite(kCB, {1, 2, 5, 10});
  spec.arrays[vec] = arraySite(kCB, {1, 2, 5, 10});
  spec.arrays[out] = arraySite(kCB, {1, 2, 13, 19, 26, 38});

  Benchmark bm{std::move(k), std::move(spec), {},
               "ELLPACK sparse matrix-vector multiply (494x494, L=10)"};
  bm.sim_params.divergence = 0.85;  // Fig. 5b: strong cross-stage divergence
  bm.sim_params.noise_scale = 0.06;
  bm.sim_params.congestion = 2.8;
  return bm;
}

Benchmark makeSpmvCrs() {
  // MachSuite spmv/crs: compressed-row storage, irregular row lengths.
  Kernel k("spmv_crs");
  const ArrayId val = k.addArray("val", 1666);
  const ArrayId cols = k.addArray("cols", 1666);
  const ArrayId rowd = k.addArray("rowDelimiters", 495);
  const ArrayId vec = k.addArray("vec", 494);
  const ArrayId out = k.addArray("out", 494);

  const LoopId li = k.addLoop("i", 494);
  const LoopId lj = k.addLoop("j", 4, li);  // average row length

  k.loop(li).body_ops[OpKind::kLoad] = 2;  // row delimiters
  k.loop(li).body_ops[OpKind::kStore] = 1;
  k.loop(li).refs.push_back({rowd, {{li, IndexRole::kMinor}}, false, 2});
  k.loop(li).refs.push_back({out, {{li, IndexRole::kMinor}}, true, 1});
  k.loop(lj).body_ops[OpKind::kLoad] = 3;
  k.loop(lj).body_ops[OpKind::kMul] = 1;
  k.loop(lj).body_ops[OpKind::kAdd] = 1;
  k.loop(lj).loop_carried_dep = true;
  k.loop(lj).refs.push_back({val, {{lj, IndexRole::kMinor}}, false, 1});
  k.loop(lj).refs.push_back({cols, {{lj, IndexRole::kMinor}}, false, 1});
  k.loop(lj).refs.push_back({vec, {{lj, IndexRole::kMinor}}, false, 1});

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  spec.loops[li] = loopSite({1, 2, 13, 19, 26, 38}, true, {1, 2, 4});
  spec.loops[lj] = loopSite({1, 2, 4}, true, {1, 2, 4});
  spec.arrays[val] = arraySite(kCB, {1, 2, 4, 8});
  spec.arrays[cols] = arraySite(kCB, {1, 2, 4, 8});
  spec.arrays[rowd] = arraySite(kCB, {1, 2, 13, 19, 26, 38});
  spec.arrays[vec] = arraySite(kCB, {1, 2, 4});
  spec.arrays[out] = arraySite(kCB, {1, 2, 13, 19, 26, 38});

  Benchmark bm{std::move(k), std::move(spec), {},
               "CRS sparse matrix-vector multiply (irregular rows)"};
  // CRS shares ELLPACK's irregular gather behavior: strong cross-stage
  // divergence and rough per-configuration variation.
  bm.sim_params.divergence = 0.75;
  bm.sim_params.noise_scale = 0.07;
  return bm;
}

Benchmark makeStencil3d() {
  // MachSuite stencil/stencil3d: 7-point stencil over a 32x32x16 grid.
  Kernel k("stencil3d");
  const ArrayId orig = k.addArray("orig", 32 * 32 * 16);
  const ArrayId sol = k.addArray("sol", 32 * 32 * 16);
  const ArrayId coef = k.addArray("C", 2);

  const LoopId li = k.addLoop("i", 16);
  const LoopId lj = k.addLoop("j", 32, li);
  const LoopId lk = k.addLoop("k", 32, lj);

  k.loop(lk).body_ops[OpKind::kLoad] = 7;
  k.loop(lk).body_ops[OpKind::kMul] = 2;
  k.loop(lk).body_ops[OpKind::kAdd] = 6;
  k.loop(lk).body_ops[OpKind::kStore] = 1;
  k.loop(lk).refs.push_back({orig,
                             {{li, IndexRole::kMajor},
                              {lj, IndexRole::kMajor},
                              {lk, IndexRole::kMinor}},
                             false,
                             7});
  k.loop(lk).refs.push_back({sol,
                             {{li, IndexRole::kMajor},
                              {lj, IndexRole::kMajor},
                              {lk, IndexRole::kMinor}},
                             true,
                             1});
  k.loop(lk).refs.push_back({coef, {}, false, 2});

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  spec.loops[li] = loopSite({1, 2, 4, 8, 16});
  spec.loops[lj] = loopSite({1, 2, 4, 8, 16, 32}, true, {1, 2});
  spec.loops[lk] = loopSite({1, 2, 4, 8, 16, 32}, true, {1, 2, 4});
  spec.arrays[orig] = arraySite(kCB, {1, 2, 4, 8, 16, 32});
  spec.arrays[sol] = arraySite(kCB, {1, 2, 4, 8, 16, 32});
  spec.arrays[coef] = arraySite({PartitionType::kNone, PartitionType::kComplete},
                                {1});

  Benchmark bm{std::move(k), std::move(spec), {},
               "7-point 3-D stencil over a 32x32x16 grid"};
  bm.sim_params.divergence = 0.3;
  bm.sim_params.noise_scale = 0.03;
  return bm;
}

Benchmark makeIsmart2() {
  // iSmart2: object-detection DNN; modeled as its dominant conv layer pair
  // plus max-pooling, the loops the paper's directive space targets.
  Kernel k("ismart2");
  const ArrayId ifm = k.addArray("ifm", 28 * 28 * 16);
  const ArrayId wgt = k.addArray("weights", 3 * 3 * 16 * 32);
  const ArrayId ofm = k.addArray("ofm", 28 * 28 * 32);
  const ArrayId pool = k.addArray("pool_out", 14 * 14 * 32);

  // conv: for oc, for row, for col, for ic, for kh*kw (fused).
  const LoopId oc = k.addLoop("conv_oc", 32);
  const LoopId row = k.addLoop("conv_row", 28, oc);
  const LoopId col = k.addLoop("conv_col", 28, row);
  const LoopId ic = k.addLoop("conv_ic", 16, col);
  const LoopId kk = k.addLoop("conv_k", 9, ic);

  k.loop(col).body_ops[OpKind::kStore] = 1;
  k.loop(col).body_ops[OpKind::kCmp] = 1;  // ReLU
  k.loop(col).refs.push_back({ofm,
                              {{oc, IndexRole::kMajor},
                               {row, IndexRole::kMajor},
                               {col, IndexRole::kMinor}},
                              true,
                              1});
  k.loop(kk).body_ops[OpKind::kLoad] = 2;
  k.loop(kk).body_ops[OpKind::kMul] = 1;
  k.loop(kk).body_ops[OpKind::kAdd] = 1;
  k.loop(kk).refs.push_back({ifm,
                             {{ic, IndexRole::kMajor},
                              {row, IndexRole::kMajor},
                              {kk, IndexRole::kMinor}},
                             false,
                             1});
  k.loop(kk).refs.push_back({wgt,
                             {{oc, IndexRole::kMajor},
                              {ic, IndexRole::kMajor},
                              {kk, IndexRole::kMinor}},
                             false,
                             1});

  // 2x2 max pooling.
  const LoopId pc = k.addLoop("pool_c", 32);
  const LoopId pr = k.addLoop("pool_xy", 14 * 14, pc);
  k.loop(pr).body_ops[OpKind::kLoad] = 4;
  k.loop(pr).body_ops[OpKind::kCmp] = 3;
  k.loop(pr).body_ops[OpKind::kStore] = 1;
  k.loop(pr).refs.push_back(
      {ofm, {{pc, IndexRole::kMajor}, {pr, IndexRole::kMinor}}, false, 4});
  k.loop(pr).refs.push_back(
      {pool, {{pc, IndexRole::kMajor}, {pr, IndexRole::kMinor}}, true, 1});

  SpaceSpec spec;
  spec.loops.resize(k.numLoops());
  spec.arrays.resize(k.numArrays());
  spec.loops[oc] = loopSite({1, 2, 4, 8});
  spec.loops[row] = loopSite({1, 2});
  spec.loops[col] = loopSite({1, 2, 4});
  spec.loops[ic] = loopSite({1, 2, 4, 8, 16});
  spec.loops[kk] = loopSite({1, 3, 9}, true, {1, 2});
  spec.loops[pc] = loopSite({1, 2, 4});
  spec.loops[pr] = loopSite({1, 2, 4}, true, {1, 2});
  spec.arrays[ifm] = arraySite(kCB, {1, 3, 9});
  spec.arrays[wgt] = arraySite(kCB, {1, 3, 9});
  spec.arrays[ofm] = arraySite(kCB, {1, 2, 4});
  spec.arrays[pool] = arraySite(kCB, {1, 2, 4});

  Benchmark bm{std::move(k), std::move(spec), {},
               "iSmart2 DNN conv + pool layer stack"};
  bm.sim_params.divergence = 0.4;
  bm.sim_params.noise_scale = 0.03;
  return bm;
}

std::vector<std::string> benchmarkNames() {
  return {"gemm",     "ismart2",   "sort_radix",
          "spmv_ellpack", "spmv_crs", "stencil3d"};
}

Benchmark makeBenchmark(const std::string& name) {
  if (name == "gemm") return makeGemm();
  if (name == "ismart2") return makeIsmart2();
  if (name == "sort_radix") return makeSortRadix();
  if (name == "spmv_ellpack") return makeSpmvEllpack();
  if (name == "spmv_crs") return makeSpmvCrs();
  if (name == "stencil3d") return makeStencil3d();
  throw std::invalid_argument("unknown benchmark: " + name);
}

std::unique_ptr<sim::FpgaToolSim> makeToolSim(const Benchmark& bm,
                                              std::uint64_t seed) {
  auto sim = std::make_unique<sim::FpgaToolSim>(
      bm.kernel, sim::DeviceModel::virtex7Vc707(), bm.sim_params, seed);
  sim->setDieMap(bm.die_map);
  return sim;
}

}  // namespace cmmfo::bench_suite
