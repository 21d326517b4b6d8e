// Layer probes: the traced run's timed calls into each layer's public
// functions, one benchmark span around each.  Every probe reports the
// median of repeated timings; results that the probes compute are checked.
//
// Layers (and the probes that time them):
//   arch           Engine::calibrate, per-kernel calibrated rates
//   gemm           kernel_fn micro-kernels, pack_a/pack_b, epilogue_update,
//                  gemm at n=1024 (1 and all threads), at n=16, mc/kc sweep
//   core.executor  FmmExecutor compile, run per one-level plan, run_batch
//   core.engine    multiply over direct gemm
//   core.task_pool TaskPool submit + wait
//   core.recursive Engine at n=3072 with and without descent
//   model          choice_for (plan-space build, rank), auto regret, spearman

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "harness.h"
#include "src/arch/calibrate.h"
#include "src/core/catalog.h"
#include "src/gemm/gemm.h"
#include "src/gemm/pack.h"
#include "src/model/perf_model.h"

namespace perfbench {
namespace {

using fmm::DType;
using fmm::Engine;
using fmm::GemmConfig;
using fmm::KernelInfo;
using fmm::Plan;
using fmm::Variant;

struct Layers {
  std::vector<std::pair<std::string, double>> rows;
  int checks = 0, failed = 0;

  void put(const std::string& name, double v) {
    rows.push_back({name, v});
  }
  void check(bool ok) {
    ++checks;
    if (!ok) ++failed;
  }
};

// Median over `reps` timings of `fn` (each timing runs `inner` calls),
// in seconds per call.
double time_per_call(int reps, int inner, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < inner; ++i) fn();
    t.push_back((now_s() - t0) / inner);
  }
  return median(t);
}

// Calls per timing so one timing lasts about `target` seconds.
int calls_for(double target, const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  const double one = std::max(now_s() - t0, 1e-9);
  return std::max(1, static_cast<int>(target / one));
}

// --- gemm ----------------------------------------------------------------------

template <typename T>
double kernel_rate(const KernelInfo& kern) {
  constexpr index_t kK = 256;  // in-cache panels, as in bench_gemm_baseline
  fmm::AlignedBuffer<T> a(static_cast<std::size_t>(kern.mr * kK));
  fmm::AlignedBuffer<T> b(static_cast<std::size_t>(kern.nr * kK));
  alignas(64) T acc[fmm::kMaxAccElemsOf<T>];
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = T(1) / T(1 + i % 7);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = T(1) / T(1 + i % 5);
  const auto fn = fmm::kernel_fn<T>(kern);
  auto call = [&] { fn(kK, a.data(), b.data(), acc); };
  const double s = time_per_call(5, calls_for(0.02, call), call);
  volatile T sink = acc[0];
  (void)sink;
  return 2.0 * kern.mr * kern.nr * kK / s * 1e-9;
}

void probe_kernels(Layers& L) {
  Span span("microkernels", "gemm");
  bool rank_ok = true;
  for (DType dt : {DType::kF64, DType::kF32}) {
    const KernelInfo* best_measured = nullptr;
    const KernelInfo* best_calibrated = nullptr;
    double bm = 0, bc = 0;
    for (const KernelInfo& k : fmm::kernel_registry()) {
      if (k.dtype != dt || !k.supported()) continue;
      const double r = dt == DType::kF64 ? kernel_rate<double>(k) : kernel_rate<float>(k);
      const double c = fmm::arch::kernel_gflops(k);
      if (r > bm) bm = r, best_measured = &k;
      if (c > bc) bc = c, best_calibrated = &k;
      if (&k == &fmm::active_kernel(dt))
        L.put(std::string("gemm.microkernel.") + fmm::dtype_name(dt) + ".gflops", r);
    }
    rank_ok = rank_ok && best_measured == best_calibrated;
  }
  L.put("calibrate.kernel_rank_ok", rank_ok ? 1 : 0);
}

void probe_pack(Layers& L) {
  Span span("pack", "gemm");
  const KernelInfo& kern = fmm::active_kernel(DType::kF64);
  // Sizes of bench_gemm_baseline's BM_Pack*: an mC=96 x kC=256 A-tile and a
  // kC=256 x nC=4092 B-panel.  Bytes are computed from sizes: the source
  // elements read (one matrix per term).
  const index_t m = 96, k = 256, n = 4092;
  Mat<double> a(2 * m, k), b(k, 2 * n);
  a.fill_random(11);
  b.fill_random(12);
  fmm::AlignedBuffer<double> out(static_cast<std::size_t>(
      std::max(fmm::round_up(m, kern.mr) * k, fmm::round_up(n, kern.nr) * k)));
  for (int terms = 1; terms <= 2; ++terms) {
    const fmm::LinTerm ta[2] = {{a.data(), 1.0}, {a.data() + m * a.cols, 1.0}};
    auto pa = [&] { fmm::pack_a(ta, terms, a.cols, m, k, kern.mr, out.data()); };
    const double sa = time_per_call(5, calls_for(0.02, pa), pa);
    L.put("gemm.pack_a." + std::to_string(terms) + "term.gbs",
          terms * m * k * 8.0 / sa * 1e-9);
    const fmm::LinTerm tb[2] = {{b.data(), 1.0}, {b.data() + n, 1.0}};
    auto pb = [&] { fmm::pack_b(tb, terms, b.cols, k, n, kern.nr, out.data()); };
    const double sb = time_per_call(5, calls_for(0.02, pb), pb);
    L.put("gemm.pack_b." + std::to_string(terms) + "term.gbs",
          terms * k * n * 8.0 / sb * 1e-9);
  }
}

void probe_epilogue(Layers& L) {
  Span span("epilogue", "gemm");
  const KernelInfo& kern = fmm::active_kernel(DType::kF64);
  Mat<double> c(4 * kern.mr, 64);
  c.zero();
  alignas(64) double acc[fmm::kMaxAccElems];
  for (int i = 0; i < fmm::kMaxAccElems; ++i) acc[i] = 1.0 / (1 + i);
  for (int targets : {1, 4}) {
    fmm::OutTerm t[4];
    for (int i = 0; i < 4; ++i) t[i] = {c.data() + i * kern.mr * c.cols, i % 2 ? -1.0 : 1.0};
    auto call = [&] {
      fmm::epilogue_update(t, targets, c.cols, kern.mr, kern.nr, acc, kern.mr,
                           kern.nr);
    };
    const double s = time_per_call(5, calls_for(0.02, call), call);
    L.put("gemm.epilogue." + std::to_string(targets) + "target.ns", s * 1e9);
  }
}

double gemm_rate(index_t n, const GemmConfig& cfg, int reps) {
  Mat<double> a(n, n), b(n, n), c(n, n);
  a.fill_random(21);
  b.fill_random(22);
  c.zero();
  fmm::GemmWorkspace ws;
  auto call = [&] { fmm::gemm(c.view(), a.cview(), b.cview(), ws, cfg); };
  call();  // workspace allocation
  const int inner = n >= 512 ? 1 : calls_for(0.02, call);
  return flops_of(n, n, n) / time_per_call(reps, inner, call) * 1e-9;
}

void probe_gemm(Layers& L, double kernel_gflops) {
  Span span("gemm", "gemm");
  GemmConfig one;
  one.num_threads = 1;
  const double g1 = gemm_rate(1024, one, 5);
  L.put("gemm.gemm_1t.n1024.gflops", g1);
  L.put("gemm.gemm_1t.frac_of_kernel", g1 / kernel_gflops);
  // Derived blocking against the best of a short mc/kc sweep.
  double best = g1;
  for (int mc : {96, 192, 384})
    for (int kc : {256, 384}) {
      GemmConfig cfg = one;
      cfg.mc = mc;
      cfg.kc = kc;
      best = std::max(best, gemm_rate(1024, cfg, 3));
    }
  L.put("gemm.blocking.derived_over_best", g1 / best);
  L.put("gemm.gemm_1t.n16.gflops", gemm_rate(16, one, 5));
  GemmConfig all;
  all.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  const double g4 = gemm_rate(1024, all, 5);
  L.put("gemm.gemm_4t.n1024.gflops", g4);
  L.put("gemm.gemm_4t.scaling", g4 / g1);
}

// --- core.executor and model -------------------------------------------------

void probe_compile(Layers& L) {
  Span span("compile", "core.executor");
  const Plan p = plan_of(2, 2, 2, Variant::kABC);
  GemmConfig one;
  one.num_threads = 1;
  std::vector<double> t;
  for (index_t n : {16, 24, 32, 48, 64, 96, 128, 192, 256}) {
    for (int r = 0; r < 3; ++r) {
      const double t0 = now_s();
      fmm::FmmExecutor ex(p, n, n + 8, n + 4, one);
      t.push_back(now_s() - t0);
    }
  }
  L.put("executor.compile_us", median(t) * 1e6);
}

// One-level plans against gemm at the Fig. 2 rank-k shape on one core, the
// auto path's regret there, and the analytic model's rank correlation.
void probe_onelevel(Layers& L, Engine& calibrated) {
  Span span("onelevel", "core.executor");
  const index_t m = 2880, n = 2880, k = 480;
  Mat<double> a(m, k), b(k, n), c(m, n);
  a.fill_random(31);
  b.fill_random(32);
  GemmConfig one;
  one.num_threads = 1;
  std::uint64_t seed = 33;
  // Each timed call returns its Status and sets `ran` to the plan it ran
  // (nullptr = gemm); the check tolerates that plan's levels.
  const Plan* ran = nullptr;
  auto timed = [&](const std::function<bool()>& fn) {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      c.zero();
      const double t0 = now_s();
      const bool ok = fn();
      t.push_back(now_s() - t0);
      L.check(ok && freivalds<double>(c.cview(), a.cview(), b.cview(), ++seed,
                                      tolerance(false, k, levels_run(ran, m, n, k, 0))));
    }
    return median(t);
  };
  fmm::GemmWorkspace ws;
  const double t_gemm = timed([&] {
    fmm::gemm(c.view(), a.cview(), b.cview(), ws, one);
    return true;
  });
  struct Named {
    const char* key;
    Plan plan;
  };
  const Named plans[] = {{"222_abc", plan_of(2, 2, 2, Variant::kABC)},
                         {"222_ab", plan_of(2, 2, 2, Variant::kAB)},
                         {"222_naive", plan_of(2, 2, 2, Variant::kNaive)},
                         {"323_abc", plan_of(3, 2, 3, Variant::kABC)},
                         {"333_abc", plan_of(3, 3, 3, Variant::kABC)}};
  std::vector<double> measured = {t_gemm}, predicted;
  const fmm::ModelParams params = calibrated.params();
  predicted.push_back(fmm::predict_gemm_time(m, n, k, one, params));
  for (const Named& p : plans) {
    fmm::FmmExecutor ex(p.plan, m, n, k, one);
    ran = &p.plan;
    const double t = timed([&] {
      ex.run(c.view(), a.cview(), b.cview());
      return true;
    });
    measured.push_back(t);
    predicted.push_back(
        fmm::predict_time(fmm::model_input(p.plan, m, n, k, one), params));
    const std::string base = std::string("executor.run.") + p.key;
    L.put(base + ".over_gemm", t_gemm / t - 1.0);
    L.put(base + ".theory",
          static_cast<double>(p.plan.Mt()) * p.plan.Kt() * p.plan.Nt() / p.plan.R() - 1.0);
  }
  std::shared_ptr<const fmm::AutoChoice> choice;
  const double t_auto = timed([&] {
    const bool ok = calibrated.multiply(c.view(), a.cview(), b.cview(), &choice).ok();
    ran = ok && !choice->use_gemm ? &*choice->plan : nullptr;
    return ok;
  });
  L.put("model.auto_regret",
        t_auto / *std::min_element(measured.begin(), measured.end()) - 1.0);
  // Spearman rank correlation (no ties in practice) of model vs measurement.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](auto x, auto y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto rm = ranks(measured), rp = ranks(predicted);
  double d2 = 0;
  for (std::size_t i = 0; i < rm.size(); ++i) d2 += (rm[i] - rp[i]) * (rm[i] - rp[i]);
  const double nn = static_cast<double>(rm.size());
  L.put("model.spearman", 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0)));
}

void probe_shared_b(Layers& L) {
  Span span("run_batch", "core.executor");
  constexpr index_t kItems = 64, kRows = 128, kDim = 512;
  Plan p = plan_of(2, 2, 2, Variant::kABC);
  p.dtype = DType::kF32;
  Mat<float> w(kDim, kDim), acts(kItems * kRows, kDim), c1(kItems * kRows, kDim),
      c2(kItems * kRows, kDim);
  w.fill_random(41);
  acts.fill_random(42);
  fmm::FmmExecutorT<float> ex(p, kRows, kDim, kDim);
  fmm::StridedBatchF32 sb;
  sb.m = kRows;
  sb.n = kDim;
  sb.k = kDim;
  sb.count = kItems;
  sb.c = c1.data();
  sb.a = acts.data();
  sb.b = w.data();
  sb.stride_c = sb.stride_a = kRows * kDim;
  auto per_item = [&] {
    for (index_t i = 0; i < kItems; ++i)
      ex.run({c2.data() + i * kRows * kDim, kRows, kDim, kDim},
             {acts.data() + i * kRows * kDim, kRows, kDim, kDim}, w.cview());
  };
  auto batch = [&] { ex.run_batch_strided(sb); };
  std::vector<double> tp, tb;
  for (int r = 0; r < 3; ++r) {
    c1.zero();
    c2.zero();
    double t0 = now_s();
    per_item();
    tp.push_back(now_s() - t0);
    t0 = now_s();
    batch();
    tb.push_back(now_s() - t0);
    // The batch is bitwise identical to per-item runs (executor.h).
    L.check(std::memcmp(c1.data(), c2.data(), sizeof(float) * kItems * kRows * kDim) == 0);
  }
  L.put("executor.run_batch.sharedB.over_peritem", median(tp) / median(tb));
}

// --- core.engine, core.task_pool --------------------------------------------

void probe_engine_overhead(Layers& L) {
  Span span("overhead", "core.engine");
  Engine::Options opts;  // the serving configuration
  opts.config.num_threads = 1;
  opts.workers = static_cast<int>(std::thread::hardware_concurrency());
  Engine eng(opts);
  // <1,1,1> classical: one product, one term each, the same fused
  // arithmetic as gemm, so the difference is the Engine's own path.
  const Plan p = fmm::make_plan({fmm::catalog::get("classical:1,1,1")}, Variant::kABC);
  GemmConfig one;
  one.num_threads = 1;
  fmm::GemmWorkspace ws;
  for (index_t n : {16, 64, 256}) {
    Mat<double> a(n, n), b(n, n), c(n, n);
    a.fill_random(51);
    b.fill_random(52);
    c.zero();
    auto direct = [&] { fmm::gemm(c.view(), a.cview(), b.cview(), ws, one); };
    auto engine = [&] { L.check(eng.multiply(p, c.view(), a.cview(), b.cview()).ok()); };
    engine();
    const int inner = calls_for(0.02, engine);
    std::vector<double> te, td;
    for (int r = 0; r < 9; ++r) {
      te.push_back(time_per_call(1, inner, engine));
      td.push_back(time_per_call(1, inner, direct));
    }
    L.put("engine.overhead_us.n" + std::to_string(n), (median(te) - median(td)) * 1e6);
  }
}

void probe_task_pool(Layers& L) {
  Span span("roundtrip", "core.task_pool");
  fmm::TaskPool pool(static_cast<int>(std::thread::hardware_concurrency()));
  auto call = [&] { pool.submit([] {}).wait(); };
  call();
  L.put("task_pool.roundtrip_us", time_per_call(5, 2000, call) * 1e6);
}

// --- core.recursive ------------------------------------------------------------

double gauge(const std::string& report, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = report.find(key);
  return at == std::string::npos ? 0.0 : std::atof(report.c_str() + at + key.size());
}

void probe_recursive(Layers& L) {
  Span span("descent", "core.recursive");
  constexpr index_t kN = 3072;
  Mat<double> a(kN, kN), b(kN, kN), c(kN, kN);
  a.fill_random(61);
  b.fill_random(62);
  const Plan p = plan_of(2, 2, 2, Variant::kABC);
  Engine rec;  // default Options: descends above the cutoff
  Engine::Options flat_opts;
  flat_opts.recurse_cutoff = -1;
  Engine flat(flat_opts);
  std::uint64_t seed = 63;
  auto time_on = [&](Engine& eng) {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      c.zero();
      const double t0 = now_s();
      const bool ok = eng.multiply(p, c.view(), a.cview(), b.cview()).ok();
      t.push_back(now_s() - t0);
      L.check(ok && freivalds<double>(
                        c.cview(), a.cview(), b.cview(), ++seed,
                        tolerance(false, kN, levels_run(&p, kN, kN, kN,
                                                        eng.recurse_cutoff()))));
    }
    return median(t);
  };
  const double t_rec = time_on(rec);
  const double t_flat = time_on(flat);
  L.check(rec.stats().recursive_runs == 3 && flat.stats().recursive_runs == 0);
  L.put("recursive.over_flat", t_flat / t_rec);
  L.put("recursive.bufpool.peak_mib",
        gauge(rec.metrics_report_json(), "engine.recurse.peak_bytes") / (1 << 20));
}

// --- model: choice_for ----------------------------------------------------------

void probe_rank(Layers& L) {
  Span span("rank", "model");
  Engine eng;
  double t0 = now_s();
  eng.choice_for(100, 100, 100);
  const double first = now_s() - t0;
  std::vector<double> t;
  for (index_t i = 1; i <= 20; ++i) {
    t0 = now_s();
    eng.choice_for(100 + 37 * i, 120 + 29 * i, 90 + 41 * i);  // cold shapes
    t.push_back(now_s() - t0);
  }
  L.put("model.rank_us", median(t) * 1e6);
  L.put("model.space_build_ms", (first - median(t)) * 1e3);
}

}  // namespace

int run_probes(const Args& args) {
  if (!args.spans.empty()) spans().enable();
  Layers L;
  Engine::Options opts;
  opts.config.num_threads = 1;
  opts.workers = 1;
  Engine calibrated(opts);
  {
    Span span("calibrate", "arch");
    const double t0 = now_s();
    calibrated.calibrate();
    L.put("calibrate.s", now_s() - t0);
  }
  probe_kernels(L);
  probe_pack(L);
  probe_epilogue(L);
  double kernel64 = 0;
  for (const auto& row : L.rows)
    if (row.first == "gemm.microkernel.f64.gflops") kernel64 = row.second;
  probe_gemm(L, kernel64);
  probe_compile(L);
  probe_onelevel(L, calibrated);
  probe_shared_b(L);
  probe_engine_overhead(L);
  probe_task_pool(L);
  probe_recursive(L);
  probe_rank(L);

  std::string layers = "{";
  for (std::size_t i = 0; i < L.rows.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", L.rows[i].second);
    layers += (i == 0 ? "" : ", ") + json_quote(L.rows[i].first) + ": " + num;
  }
  Result r;
  r.str("workload", args.workload);
  r.raw("layers", layers + "}");
  r.num("checks", L.checks);
  r.num("failed_checks", L.failed);
  host_fingerprint(r);
  if (!r.write(args.out) || (!args.spans.empty() && !spans().write(args.spans))) {
    std::fprintf(stderr, "cannot write results\n");
    return 2;
  }
  return L.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
