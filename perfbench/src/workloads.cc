// The three workloads.  Each is a closed loop driven by one host thread
// (Engine callers wait for their result), runs in its own process, and
// generates every input from the seed.  Setup is timed from Engine
// construction to the first verified result; the measured window follows.
//
//   onelevel_1core  the paper's regime: one core, Fig. 2 practical shapes,
//                   direct gemm vs explicit one-level plans vs the auto path.
//   serving_small   the README serving engine on ~48 small Zipf-skewed
//                   shapes, f64 and f32: per-request control cost dominates.
//   parallel_mixed  default Options, up to nproc requests in flight: n=3072
//                   auto (recursive descent), cross-shape item batches and
//                   f32 shared-B batches, with a direct all-core gemm
//                   baseline between blocks.
//
// serving_small is not listed in BENCHMARK.json: the online history's
// re-rank storm makes its figures move with the host's noise by more than
// any bound the benchmark may set (perfbench/README.md).  It stays runnable
// for diagnosis.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>

#include "harness.h"
#include "src/core/catalog.h"
#include "src/gemm/gemm.h"
#include "src/util/prng.h"

namespace perfbench {
namespace {

using fmm::Engine;
using fmm::Plan;
using fmm::Variant;

const char* layer_of(Path p) { return p == Path::kGemm ? "gemm" : "core.engine"; }
const char* name_of(Path p) {
  switch (p) {
    case Path::kGemm: return "request.gemm";
    case Path::kExplicit: return "request.explicit";
    default: return "request.auto";
  }
}

// What every workload hands back to run_workload.
struct Outcome {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::vector<Request> reqs;
  Engine::CacheStats stats{};      // deltas over the measured window
  std::string metrics_json = "{}";  // Engine::metrics_report_json()
  std::string tail = "p99";         // the percentile latency_tail_us uses
  bool setup_ok = true;
};

// Runs one synchronous request: times `call`, then checks the result with
// `check` (outside the timed interval) and logs it.
struct SyncLoop {
  std::vector<Request>* log;
  double window_start;
  std::uint64_t next_request = 1;

  template <typename Call, typename Check>
  void run(Path path, bool f32, double flops, Call&& call, Check&& check) {
    const std::uint64_t id = next_request++;
    Request q;
    q.path = path;
    q.f32 = f32;
    q.flops = flops;
    bool status_ok = false;
    {
      Span s(name_of(path), layer_of(path), id);
      const double t0 = now_s();
      status_ok = call();
      const double t1 = now_s();
      q.lat_s = t1 - t0;
      q.end_s = t1 - window_start;
    }
    {
      Span s("check", "bench", id);
      q.ok = status_ok && check();
    }
    log->push_back(q);
  }
};

// ---------------------------------------------------------------------------
// onelevel_1core
// ---------------------------------------------------------------------------

Outcome onelevel_1core(const Args& args, bool setup_only) {
  struct Shape {
    index_t m, n, k;
  };
  // Paper Fig. 2: practical #1 (rank-k) and #2.  Both stay below the
  // recursion cutoff, so this is flat one-level FMM on one core.
  const Shape shapes[2] = {{2880, 2880, 480}, {1440, 1440, 1200}};
  Mat<double> a[2], b[2], c[2];
  for (int s = 0; s < 2; ++s) {
    a[s] = Mat<double>(shapes[s].m, shapes[s].k);
    b[s] = Mat<double>(shapes[s].k, shapes[s].n);
    c[s] = Mat<double>(shapes[s].m, shapes[s].n);
    a[s].fill_random(args.seed * 16 + 2 * s);
    b[s].fill_random(args.seed * 16 + 2 * s + 1);
  }
  const std::vector<Plan> plans = {
      plan_of(2, 2, 2, Variant::kABC), plan_of(2, 2, 2, Variant::kAB),
      plan_of(2, 2, 2, Variant::kNaive), plan_of(3, 2, 3, Variant::kABC),
      plan_of(3, 3, 3, Variant::kABC)};
  fmm::GemmConfig gemm_cfg;
  gemm_cfg.num_threads = 1;
  fmm::GemmWorkspace ws;

  Outcome out;
  out.tail = "p75";
  std::uint64_t check_seed = args.seed * 7919;
  // request kind: -1 = direct gemm, 0..4 = explicit plans, 5 = auto.
  auto request = [&](SyncLoop& loop, Engine& eng, int s, int kind) {
    const Shape sh = shapes[s];
    c[s].zero();
    const Plan* ran = nullptr;
    std::shared_ptr<const fmm::AutoChoice> choice;
    Path path = kind < 0 ? Path::kGemm : kind < 5 ? Path::kExplicit : Path::kAuto;
    loop.run(
        path, false, flops_of(sh.m, sh.n, sh.k),
        [&] {
          if (kind < 0) {
            fmm::gemm(c[s].view(), a[s].cview(), b[s].cview(), ws, gemm_cfg);
            return true;
          }
          if (kind < 5) {
            ran = &plans[kind];
            return eng.multiply(plans[kind], c[s].view(), a[s].cview(),
                                b[s].cview())
                .ok();
          }
          const bool ok =
              eng.multiply(c[s].view(), a[s].cview(), b[s].cview(), &choice).ok();
          if (ok && choice && !choice->use_gemm) ran = &*choice->plan;
          return ok;
        },
        [&] {
          const double tol = tolerance(
              false, sh.k, levels_run(ran, sh.m, sh.n, sh.k, eng.recurse_cutoff()));
          return freivalds<double>(c[s].cview(), a[s].cview(), b[s].cview(),
                                   ++check_seed, tol);
        });
  };

  Engine::Options opts;
  opts.config.num_threads = 1;
  opts.workers = 1;
  std::vector<Request> setup_log;
  const double t_setup = now_s();
  Engine eng(opts);
  {
    Span s("calibrate", "arch");
    eng.calibrate();
  }
  {
    SyncLoop first{&setup_log, t_setup};
    request(first, eng, 0, 5);
  }
  out.setup_s = now_s() - t_setup;
  out.setup_ok = setup_log.back().ok;
  if (setup_only) return out;

  // Rounds of all 14 requests (2 shapes x {gemm, 5 plans, auto}) in a seeded
  // order; whole rounds only, so every class keeps its share, and the window
  // ends within half a round of --seconds.
  fmm::Xoshiro256 rng(args.seed);
  const Engine::CacheStats before = eng.stats();
  const double start = now_s();
  SyncLoop loop{&out.reqs, start};
  double round_s = 0.0;
  int rounds = 0;
  while (rounds == 0 || now_s() - start + round_s / 2 <= args.seconds) {
    const double r0 = now_s();
    std::vector<std::pair<int, int>> order;
    for (int s = 0; s < 2; ++s)
      for (int kind = -1; kind <= 5; ++kind) order.emplace_back(s, kind);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    for (const auto& [s, kind] : order) request(loop, eng, s, kind);
    ++rounds;
    round_s = std::max(round_s, now_s() - r0);
  }
  out.window_s = now_s() - start;
  out.stats = stats_delta(eng.stats(), before);
  out.metrics_json = eng.metrics_report_json();
  return out;
}

// ---------------------------------------------------------------------------
// serving_small
// ---------------------------------------------------------------------------

template <typename T>
struct SmallSet {
  Mat<T> a[2], b[2], ref[2];  // two operand variants per shape
  Mat<T> c;

  void prepare(index_t m, index_t n, index_t k, std::uint64_t seed) {
    for (int v = 0; v < 2; ++v) {
      a[v] = Mat<T>(m, k);
      b[v] = Mat<T>(k, n);
      ref[v] = Mat<T>(m, n);
      a[v].fill_random(seed + 2 * v);
      b[v].fill_random(seed + 2 * v + 1);
      ref[v].zero();
      fmm::ref_gemm(ref[v].view(), a[v].cview(), b[v].cview());
    }
    c = Mat<T>(m, n);
  }
};

Outcome serving_small(const Args& args, bool setup_only) {
  constexpr int kShapes = 48;
  struct Shape {
    index_t m, n, k;
  };
  // Shape i is m x n x k with each dimension on a log-uniform grid over
  // [16, 256] (three interleaved grids, so m, n and k differ).  Popularity
  // is Zipf(1) by size rank, smallest hottest: the hot set is the small,
  // control-cost-dominated requests; larger shapes form the long tail.  The
  // shapes are fixed; the seed draws the request stream and the operands.
  // (Seeded shapes moved the online history's behaviour, and with it every
  // metric, by more than the host's own noise.)
  fmm::Xoshiro256 rng(args.seed);
  std::vector<Shape> shapes(kShapes);
  auto grid = [&](double pos) {
    return static_cast<index_t>(std::lround(16.0 * std::pow(16.0, pos / kShapes)));
  };
  for (int i = 0; i < kShapes; ++i)
    shapes[i] = {grid(i + 0.2), grid(i + 0.5), grid(i + 0.8)};
  std::vector<double> cdf(kShapes);
  double total = 0.0;
  for (int i = 0; i < kShapes; ++i) cdf[i] = (total += 1.0 / (i + 1));
  for (double& v : cdf) v /= total;

  std::vector<SmallSet<double>> sets64(kShapes);
  std::vector<SmallSet<float>> sets32(kShapes);
  for (int i = 0; i < (setup_only ? 1 : kShapes); ++i) {
    const Shape sh = shapes[i];
    sets64[i].prepare(sh.m, sh.n, sh.k, args.seed * 1000003 + 4 * i);
    sets32[i].prepare(sh.m, sh.n, sh.k, args.seed * 1000003 + 4 * i + 200);
  }

  const Plan p222 = plan_of(2, 2, 2, Variant::kABC);
  fmm::GemmConfig gemm_cfg;
  gemm_cfg.num_threads = 1;
  fmm::GemmWorkspace ws64;
  fmm::GemmWorkspaceF32 ws32;

  auto request = [&](SyncLoop& loop, Engine& eng, int i, bool f32, int v,
                     Path path) {
    const Shape sh = shapes[i];
    auto go = [&](auto& set, auto& ws) {
      set.c.zero();
      const Plan* ran = nullptr;
      std::shared_ptr<const fmm::AutoChoice> choice;
      loop.run(
          path, f32, flops_of(sh.m, sh.n, sh.k),
          [&] {
            auto cv = set.c.view();
            auto av = set.a[v].cview();
            auto bv = set.b[v].cview();
            if (path == Path::kGemm) {
              fmm::gemm(cv, av, bv, ws, gemm_cfg);
              return true;
            }
            if (path == Path::kExplicit) {
              ran = &p222;
              return eng.multiply(p222, cv, av, bv).ok();
            }
            const bool ok = eng.multiply(cv, av, bv, &choice).ok();
            if (ok && choice && !choice->use_gemm) ran = &*choice->plan;
            return ok;
          },
          [&] {
            const double tol = tolerance(
                f32, sh.k, levels_run(ran, sh.m, sh.n, sh.k, eng.recurse_cutoff()));
            return matches(set.c.cview(), set.ref[v].cview(), tol);
          });
    };
    if (f32) {
      go(sets32[i], ws32);
    } else {
      go(sets64[i], ws64);
    }
  };

  Outcome out;
  out.tail = "p99";
  Engine::Options opts;
  opts.config.num_threads = 1;
  opts.workers = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<Request> setup_log;
  const double t_setup = now_s();
  Engine eng(opts);
  {
    SyncLoop first{&setup_log, t_setup};
    request(first, eng, 0, false, 0, Path::kAuto);
  }
  out.setup_s = now_s() - t_setup;
  out.setup_ok = setup_log.back().ok;
  if (setup_only) return out;

  // Mix: auto : explicit <2,2,2> ABC : direct gemm = 6 : 2 : 1, half f32.
  const Engine::CacheStats before = eng.stats();
  const double start = now_s();
  SyncLoop loop{&out.reqs, start};
  while (now_s() - start < args.seconds) {
    for (int burst = 0; burst < 64; ++burst) {
      const double u = rng.next_double();
      const int i = static_cast<int>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const bool f32 = rng.next_below(2) == 1;
      const int v = static_cast<int>(rng.next_below(2));
      const std::uint64_t mix = rng.next_below(9);
      const Path path = mix < 6 ? Path::kAuto : mix < 8 ? Path::kExplicit : Path::kGemm;
      request(loop, eng, std::min(i, kShapes - 1), f32, v, path);
    }
  }
  out.window_s = now_s() - start;
  out.stats = stats_delta(eng.stats(), before);
  out.metrics_json = eng.metrics_report_json();
  return out;
}

// ---------------------------------------------------------------------------
// parallel_mixed
// ---------------------------------------------------------------------------

Outcome parallel_mixed(const Args& args, bool setup_only) {
  const int slots = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  fmm::Xoshiro256 rng(args.seed);

  // (a) square f64 auto at n = 3072: above the recursion cutoff, operands
  //     (216 MiB) far beyond L3.  One C per in-flight slot.
  constexpr index_t kBig = 3072;
  Mat<double> big_a(kBig, kBig), big_b(kBig, kBig);
  big_a.fill_random(args.seed * 31 + 1);
  big_b.fill_random(args.seed * 31 + 2);
  std::vector<Mat<double>> big_c;
  for (int s = 0; s < (setup_only ? 1 : slots); ++s) big_c.emplace_back(kBig, kBig);

  // (b) cross-shape f64 item batches: 6 shapes in [128, 512] (seeded
  //     jitter around fixed centres), 8 items each = 48 items.
  struct Item {
    Mat<double> a, b, ref;
  };
  const double centres[6] = {128, 192, 256, 320, 384, 512};
  std::vector<Item> items;
  if (!setup_only) {
    for (int g = 0; g < 6; ++g) {
      auto dim = [&] {
        return static_cast<index_t>(std::clamp(
            std::lround(centres[g] * rng.uniform(0.9, 1.1)), 128L, 512L));
      };
      const index_t m = dim(), n = dim(), k = dim();
      for (int i = 0; i < 8; ++i) {
        Item it{Mat<double>(m, k), Mat<double>(k, n), Mat<double>(m, n)};
        it.a.fill_random(args.seed * 1000 + 16 * g + 2 * i);
        it.b.fill_random(args.seed * 1000 + 16 * g + 2 * i + 1);
        it.ref.zero();
        fmm::ref_gemm(it.ref.view(), it.a.cview(), it.b.cview());
        items.push_back(std::move(it));
      }
    }
  }
  std::vector<std::vector<Mat<double>>> item_c(setup_only ? 0 : slots);
  for (auto& cs : item_c)
    for (const Item& it : items) cs.emplace_back(it.ref.rows, it.ref.cols);

  // (c) f32 strided shared-B batches: one 512x512 weight, 64 activations
  //     of 128 x 512 laid out back to back.
  constexpr index_t kActs = 64, kRows = 128, kDim = 512;
  Mat<float> weight(kDim, kDim), acts(kActs * kRows, kDim), acts_ref(kActs * kRows, kDim);
  std::vector<Mat<float>> acts_c;
  if (!setup_only) {
    weight.fill_random(args.seed * 77 + 1);
    acts.fill_random(args.seed * 77 + 2);
    acts_ref.zero();
    fmm::ref_gemm(acts_ref.view(), acts.cview(), weight.cview());
    for (int s = 0; s < slots; ++s) acts_c.emplace_back(kActs * kRows, kDim);
  }

  const Plan p222 = plan_of(2, 2, 2, Variant::kABC);
  fmm::GemmWorkspace ws;
  const fmm::GemmConfig all_cores;  // num_threads = 0: every core

  // One in-flight request.  The watcher thread stamps t_done as soon as a
  // future resolves, so latencies exclude the host's check time.
  struct Flight {
    int kind = 0;  // 0 = (a), 1 = (b), 2 = (c)
    fmm::TaskFuture f;
    std::shared_ptr<const fmm::AutoChoice> choice;
    double t_submit = 0.0, t_done = -1.0;
    std::uint64_t id = 0;
    bool busy = false;
  };
  std::vector<Flight> flights(slots);
  std::mutex mu;
  std::condition_variable cv;

  Outcome out;
  out.tail = "p90";
  std::uint64_t check_seed = args.seed * 104729;
  std::uint64_t next_id = 1;

  auto check_big = [&](Mat<double>& c, const fmm::AutoChoice* choice,
                       index_t cutoff) {
    const Plan* ran = choice != nullptr && !choice->use_gemm ? &*choice->plan : nullptr;
    const double tol =
        tolerance(false, kBig, levels_run(ran, kBig, kBig, kBig, cutoff));
    return freivalds<double>(c.cview(), big_a.cview(), big_b.cview(),
                             ++check_seed, tol);
  };
  auto check = [&](const Flight& fl, int slot, index_t cutoff) {
    if (!fl.f.status().ok()) return false;
    if (fl.kind == 0) return check_big(big_c[slot], fl.choice.get(), cutoff);
    if (fl.kind == 1) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        const Mat<double>& ref = items[i].ref;
        const double tol = tolerance(
            false, items[i].a.cols,
            levels_run(&p222, ref.rows, ref.cols, items[i].a.cols, cutoff));
        if (!matches(item_c[slot][i].cview(), ref.cview(), tol)) return false;
      }
      return true;
    }
    const double tol =
        tolerance(true, kDim, levels_run(&p222, kRows, kDim, kDim, cutoff));
    return matches(acts_c[slot].cview(), acts_ref.cview(), tol);
  };
  const double flops[3] = {
      flops_of(kBig, kBig, kBig),
      [&] {
        double f = 0.0;
        for (const Item& it : items) f += flops_of(it.ref.rows, it.ref.cols, it.a.cols);
        return f;
      }(),
      kActs * flops_of(kRows, kDim, kDim)};

  Engine::Options opts;  // defaults: all cores per request, nproc workers
  std::vector<Request> setup_log;
  const double t_setup = now_s();
  Engine eng(opts);
  {
    SyncLoop first{&setup_log, t_setup};
    std::shared_ptr<const fmm::AutoChoice> choice;
    big_c[0].zero();
    first.run(
        Path::kAuto, false, flops[0],
        [&] {
          return eng.multiply(big_c[0].view(), big_a.cview(), big_b.cview(), &choice)
              .ok();
        },
        [&] { return check_big(big_c[0], choice.get(), eng.recurse_cutoff()); });
  }
  out.setup_s = now_s() - t_setup;
  out.setup_ok = setup_log.back().ok;
  if (setup_only) return out;

  const double start = now_s();
  // The watcher polls the in-flight futures every 200 us.
  std::atomic<bool> stop{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      bool any = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        for (Flight& fl : flights) {
          if (fl.busy && fl.t_done < 0 && fl.f.done()) {
            fl.t_done = now_s();
            any = true;
          }
        }
      }
      if (any) cv.notify_one();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& t;
    ~Joiner() {
      stop.store(true);
      t.join();
    }
  } joiner{stop, watcher};

  const Engine::CacheStats before = eng.stats();
  // Checks and logs every finished flight; returns how many are in flight.
  auto reap = [&](bool block) {
    std::vector<int> done;
    int in_flight = 0;
    {
      std::unique_lock<std::mutex> lk(mu);
      auto ready = [&] {
        done.clear();
        in_flight = 0;
        for (int s = 0; s < slots; ++s) {
          if (!flights[s].busy) continue;
          ++in_flight;
          if (flights[s].t_done >= 0) done.push_back(s);
        }
        return !done.empty() || in_flight == 0;
      };
      if (block) {
        cv.wait(lk, ready);
      } else {
        ready();
      }
    }
    for (int s : done) {
      Flight& fl = flights[s];  // busy: the watcher only reads it now
      Request q;
      q.path = fl.kind == 0 ? Path::kAuto : Path::kExplicit;
      q.f32 = fl.kind == 2;
      q.flops = flops[fl.kind];
      q.lat_s = fl.t_done - fl.t_submit;
      q.end_s = fl.t_done - start;
      {
        Span sp("check", "bench", fl.id);
        q.ok = check(fl, s, eng.recurse_cutoff());
      }
      if (spans().on()) {
        spans().record({fl.kind == 0 ? "request.auto" : "request.explicit",
                        "core.engine", fl.t_submit, fl.t_done, spans().next_id(),
                        0, fl.id});
      }
      out.reqs.push_back(q);
      std::lock_guard<std::mutex> lk(mu);
      fl.busy = false;
      fl.f = fmm::TaskFuture();
      --in_flight;
    }
    return in_flight;
  };
  auto submit = [&](int slot, int kind) {
    Flight& fl = flights[slot];
    std::shared_ptr<const fmm::AutoChoice> choice;
    fmm::TaskFuture f;
    std::vector<fmm::BatchItem> batch;
    if (kind == 0) {
      big_c[slot].zero();
      choice = eng.choice_handle(kBig, kBig, kBig);
    } else if (kind == 1) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        item_c[slot][i].zero();
        batch.push_back({item_c[slot][i].view(), items[i].a.cview(), items[i].b.cview()});
      }
    } else {
      acts_c[slot].zero();
    }
    const double t0 = now_s();
    if (kind == 0) {
      f = eng.submit(big_c[slot].view(), big_a.cview(), big_b.cview());
    } else if (kind == 1) {
      f = eng.submit(p222, fmm::BatchSpec::items(batch));
    } else {
      fmm::StridedBatchF32 sb;
      sb.m = kRows;
      sb.n = kDim;
      sb.k = kDim;
      sb.count = kActs;
      sb.c = acts_c[slot].data();
      sb.a = acts.data();
      sb.b = weight.data();
      sb.stride_c = sb.stride_a = kRows * kDim;
      sb.stride_b = 0;  // shared weight
      f = eng.submit(p222, fmm::BatchSpec::strided(sb));
    }
    std::lock_guard<std::mutex> lk(mu);
    fl.kind = kind;
    fl.f = std::move(f);
    fl.choice = std::move(choice);
    fl.t_submit = t0;
    fl.t_done = -1.0;
    fl.id = next_id++;
    fl.busy = true;
  };

  // Blocks of five kinds in a fixed order, so every run interleaves the same
  // way (the seed varies the data and the batch shapes); after every second
  // block the host drains the engine and runs the same n=3072 problem
  // through direct all-core gemm as the in-run baseline.
  SyncLoop baseline{&out.reqs, start};
  baseline.next_request = 1u << 30;
  std::vector<int> block;
  int blocks = 0;
  while (now_s() - start < args.seconds) {
    if (block.empty()) {
      if (blocks > 0 && blocks % 2 == 0) {
        while (reap(true) > 0) {
        }
        big_c[0].zero();
        baseline.run(
            Path::kGemm, false, flops[0],
            [&] {
              fmm::gemm(big_c[0].view(), big_a.cview(), big_b.cview(), ws, all_cores);
              return true;
            },
            [&] { return check_big(big_c[0], nullptr, 0); });
      }
      block = {1, 2, 1, 1, 0};  // popped from the back: a, b, b, c, b
      ++blocks;
    }
    int slot = -1;
    while (slot < 0) {
      reap(false);
      {
        std::lock_guard<std::mutex> lk(mu);
        for (int s = 0; s < slots && slot < 0; ++s)
          if (!flights[s].busy) slot = s;
      }
      if (slot < 0) reap(true);
    }
    submit(slot, block.back());
    block.pop_back();
  }
  while (reap(true) > 0) {
  }
  out.window_s = now_s() - start;
  out.stats = stats_delta(eng.stats(), before);
  out.metrics_json = eng.metrics_report_json();
  return out;
}

}  // namespace

int run_workload(const Args& args) {
  const bool setup_only = args.mode == "setup";
  if (!args.spans.empty()) spans().enable();
  std::unique_ptr<ThreadSampler> sampler;
  if (!args.spans.empty() && !setup_only) sampler = std::make_unique<ThreadSampler>();

  Outcome o;
  if (args.workload == "onelevel_1core") {
    o = onelevel_1core(args, setup_only);
  } else if (args.workload == "serving_small") {
    o = serving_small(args, setup_only);
  } else if (args.workload == "parallel_mixed") {
    o = parallel_mixed(args, setup_only);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int peak_threads = sampler ? sampler->peak() : 0;
  sampler.reset();

  Result r;
  r.str("workload", args.workload);
  r.num("seed", static_cast<double>(args.seed));
  r.num("setup_s", o.setup_s);
  r.num("setup_ok", o.setup_ok ? 1 : 0);
  if (!setup_only) {
    r.num("window_s", o.window_s);
    r.str("tail", o.tail);
    r.num("peak_rss_mib", peak_rss_mib());
    r.num("peak_threads", peak_threads);
    r.raw("stats", stats_json(o.stats));
    r.raw("metrics_report", o.metrics_json);
    write_requests(r, o.reqs);
    host_fingerprint(r);
  }
  if (!r.write(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  if (!args.spans.empty() && !spans().write(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    return 2;
  }
  return o.setup_ok ? 0 : 1;
}

}  // namespace perfbench
