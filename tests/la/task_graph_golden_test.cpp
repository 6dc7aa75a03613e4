// Golden digests of the task graphs every linear-algebra family submits.
//
// For each operation (GEMM, POTRF, GETRF, GEQRF, GELQF) in both precisions,
// a 4x4-tile problem on 32-AMD-4-A100 is calibrated the way run_experiment
// calibrates it and then submitted, without running a single kernel. Three
// 64-bit FNV-1a digests are pinned per case:
//   structure - Runtime::structure_digest(): codelet names, labels,
//               priorities, accesses, handles and dependency edges;
//   work      - every task's (klass, precision, flops, work_dim) and its
//               kernel argument pack, in submission order;
//   model     - the history and regression entries the calibration left in
//               the perf model.
// A refactor of the task builders or codelets that is meant to keep the
// graphs the same must reproduce all three. Each case reads the digests
// once the graph is instantiated, by the runtime that submitted it and by a
// second, fresh runtime (calibrated and with its handles registered the
// same way).
#include <gtest/gtest.h>

#include <any>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "hw/presets.hpp"
#include "la/calibration_sets.hpp"
#include "la/lq.hpp"
#include "la/lu.hpp"
#include "la/operations.hpp"
#include "la/qr.hpp"
#include "rt/calibration.hpp"

namespace greencap::la {
namespace {

constexpr int kTiles = 4;
constexpr int kNb = 320;

enum class Op { kGemm, kPotrf, kGetrf, kGeqrf, kGelqf };

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

struct Digests {
  std::uint64_t structure = 0;
  std::uint64_t work = 0;
  std::uint64_t model = 0;
};

template <typename T>
void hash_arg(Fnv& f, const std::any& arg) {
  if (const auto* g = std::any_cast<GemmArgs<T>>(&arg)) {
    f.byte(1);
    f.u64(static_cast<std::uint64_t>(g->nb));
    f.f64(static_cast<double>(g->alpha));
    f.f64(static_cast<double>(g->beta));
    f.byte(g->trans_a ? 1 : 0);
    f.byte(g->trans_b ? 1 : 0);
  } else if (const auto* t = std::any_cast<TileArgs<T>>(&arg)) {
    f.byte(2);
    f.u64(static_cast<std::uint64_t>(t->nb));
    f.f64(static_cast<double>(t->alpha));
  } else {
    f.byte(0);
  }
}

/// Every codelet family; outlives the runtimes that run its graphs.
template <typename T>
struct Kernels {
  Codelets<T> tile;
  LuCodelets<T> lu;
  QrCodelets<T> qr;
  LqCodelets<T> lq;
};

/// Calibrates `runtime` the way run_experiment does and registers the
/// operation's handles; with `submit`, also submits its task graph.
template <typename T>
void build(rt::Runtime& runtime, const Kernels<T>& k, Op op, bool submit) {
  rt::Calibrator calibrator{runtime};
  const std::vector<int> sizes{kNb, 2 * kNb};
  calibrate_codelets<T>(calibrator, k.tile, sizes);
  if (op == Op::kGetrf) calibrate_lu_codelets<T>(calibrator, k.lu, sizes);
  if (op == Op::kGeqrf) calibrate_qr_codelets<T>(calibrator, k.qr, sizes);
  if (op == Op::kGelqf) calibrate_lq_codelets<T>(calibrator, k.lq, sizes);

  const std::int64_t n = static_cast<std::int64_t>(kTiles) * kNb;
  TileMatrix<T> a{n, kNb, /*allocate=*/false, "A"};
  a.register_with(runtime);
  std::optional<TileMatrix<T>> b;
  std::optional<TileMatrix<T>> c;
  std::optional<QrWorkspace<T>> ws;
  if (op == Op::kGemm) {
    b.emplace(n, kNb, false, "B");
    c.emplace(n, kNb, false, "C");
    b->register_with(runtime);
    c->register_with(runtime);
  } else if (op == Op::kGeqrf || op == Op::kGelqf) {
    ws.emplace(runtime, a);
  }
  if (!submit) return;
  switch (op) {
    case Op::kGemm: submit_gemm<T>(runtime, k.tile, a, *b, *c); break;
    case Op::kPotrf: submit_potrf<T>(runtime, k.tile, a); break;
    case Op::kGetrf: submit_getrf<T>(runtime, k.lu, a); break;
    case Op::kGeqrf: submit_geqrf<T>(runtime, k.qr, a, *ws); break;
    case Op::kGelqf: submit_gelqf<T>(runtime, k.lq, a, *ws); break;
  }
}

template <typename T>
Digests digests_of(rt::Runtime& runtime) {
  Fnv model;
  for (const auto& e : runtime.perf_model().export_history()) {
    model.str(e.codelet);
    model.u64(static_cast<std::uint64_t>(e.worker));
    model.u64(e.precision);
    model.u64(static_cast<std::uint64_t>(e.size_key));
    model.u64(e.samples);
    model.f64(e.mean_s);
    model.f64(e.m2);
  }
  for (const auto& e : runtime.perf_model().export_regression()) {
    model.str(e.codelet);
    model.u64(static_cast<std::uint64_t>(e.worker));
    model.u64(e.precision);
    model.f64(e.sum_xt);
    model.f64(e.sum_xx);
    model.u64(e.samples);
  }

  Fnv work;
  work.u64(runtime.task_count());
  for (std::size_t id = 0; id < runtime.task_count(); ++id) {
    const rt::Task& task = runtime.task(static_cast<rt::TaskId>(id));
    work.u64(static_cast<std::uint64_t>(task.work().klass));
    work.u64(static_cast<std::uint64_t>(task.work().precision));
    work.f64(task.work().flops);
    work.f64(task.work().work_dim);
    hash_arg<T>(work, task.arg());
  }
  return Digests{runtime.structure_digest(), work.h, model.h};
}

/// The digests of the submitted graph, instantiated by the runtime that
/// built it and by a second, fresh runtime.
template <typename T>
std::pair<Digests, Digests> graph_digests(Op op) {
  const Kernels<T> k;
  hw::Platform platform{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim;
  rt::Runtime submitted{platform, sim};
  build<T>(submitted, k, op, /*submit=*/true);

  hw::Platform platform2{hw::presets::platform_32_amd_4_a100()};
  sim::Simulator sim2;
  rt::Runtime instantiated{platform2, sim2};
  build<T>(instantiated, k, op, /*submit=*/false);
  instantiated.instantiate(submitted.graph());
  submitted.instantiate(submitted.graph());
  return {digests_of<T>(submitted), digests_of<T>(instantiated)};
}

struct GoldenCase {
  const char* name;
  Op op;
  bool single;
  Digests want;
};

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

class TaskGraphGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TaskGraphGolden, DigestsAreStable) {
  const GoldenCase& gc = GetParam();
  const auto [submitted, instantiated] =
      gc.single ? graph_digests<float>(gc.op) : graph_digests<double>(gc.op);
  const std::pair<const char*, Digests> runs[] = {{"submitted", submitted},
                                                   {"instantiated", instantiated}};
  for (const auto& [which, got] : runs) {
    EXPECT_EQ(got.structure, gc.want.structure) << which << std::hex << " structure 0x"
                                                << got.structure;
    EXPECT_EQ(got.work, gc.want.work) << which << std::hex << " work 0x" << got.work;
    EXPECT_EQ(got.model, gc.want.model) << which << std::hex << " model 0x" << got.model;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TaskGraphGolden,
    ::testing::Values(
        GoldenCase{"dgemm", Op::kGemm, false,
                   {0x4a95c138cd708995ULL, 0xd5041996f6b2fd45ULL, 0x5fc92b9aa4144e2dULL}},
        GoldenCase{"sgemm", Op::kGemm, true,
                   {0x302ed448efad5065ULL, 0xce31fa6154bf6e45ULL, 0x8010961e392b5b51ULL}},
        GoldenCase{"dpotrf", Op::kPotrf, false,
                   {0xd1ef033716964666ULL, 0x688793a283845a21ULL, 0x5fc92b9aa4144e2dULL}},
        GoldenCase{"spotrf", Op::kPotrf, true,
                   {0x4b65bec4a6be7d0eULL, 0x31ac8e962889801dULL, 0x8010961e392b5b51ULL}},
        GoldenCase{"dgetrf", Op::kGetrf, false,
                   {0xa8ea1883f1bf96eeULL, 0xe6cf1e0cc88ce5f1ULL, 0xd386469bffc3bf01ULL}},
        GoldenCase{"sgetrf", Op::kGetrf, true,
                   {0x6b15e1acce91c208ULL, 0x29c601c12d76a8bfULL, 0x8df657f8814ea1b1ULL}},
        GoldenCase{"dgeqrf", Op::kGeqrf, false,
                   {0xd6a25b062b9c2758ULL, 0xe7c94066ad5e2631ULL, 0x7ba23aed96f970c1ULL}},
        GoldenCase{"sgeqrf", Op::kGeqrf, true,
                   {0xa920ffebde0de622ULL, 0x0018396071c7768fULL, 0xf52df22a4e38b3b1ULL}},
        GoldenCase{"dgelqf", Op::kGelqf, false,
                   {0xd9947fece2c97184ULL, 0xe7c94066ad5e2631ULL, 0xfb82173b8105bb11ULL}},
        GoldenCase{"sgelqf", Op::kGelqf, true,
                   {0x807e9d15a89c83a2ULL, 0x0018396071c7768fULL, 0x74afbeae9dcf7011ULL}}),
    [](const ::testing::TestParamInfo<GoldenCase>& p) { return std::string{p.param.name}; });

}  // namespace
}  // namespace greencap::la
