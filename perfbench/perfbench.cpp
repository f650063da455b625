// perfbench — the measuring program behind perfbench/run.py.
//
// Runs one benchmark workload through the public flow API
// (core::run_flow via exec::FlowCache), checks every operation, and prints one JSON object on its last stdout line: the
// measured values, the counts of attempted and failed operations, and the
// chrome-trace files of traced iterations. run.py adds the per-layer
// values it reads from those traces.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads (README.md gives the reasons and the idle layers):
//   flow_mesh164k     one cold Hetero-3D flow on make_mesh at scale 16
//   signoff_ldpc_k16  K=16 signoff LDPC flow with checkpoints and a disk
//                     cache tier, then disk-served loads of its entry
//
// An operation is one final design a workload reads, or one warm serve
// (or series of them). A design fails if it throws, if a metric is
// not finite, or if the from-scratch route_design + run_sta +
// analyze_power on it does not reproduce FlowResult::metrics bit for bit.
// Placement legality is reported, never failed: the seed has known
// overlap defects the benchmark must show.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "netlist/checks.hpp"
#include "place/place.hpp"
#include "power/power.hpp"
#include "route/route.hpp"
#include "service/protocol.hpp"
#include "sta/sta.hpp"
#include "util/trace.hpp"

extern char** environ;

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "g++ " __VERSION__
#endif

namespace {

using namespace m3d;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  unsigned seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

/// Every environment knob the program reads. Cleared at start-up so the
/// caller's shell cannot change a workload; the benchmark then sets the
/// few it needs (pool size, and the disk cache tier of one workload).
void pin_environment(int pool_threads) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("M3D_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
  ::setenv("M3D_THREADS", std::to_string(pool_threads).c_str(), 1);
}

/// Per-iteration samples (per repetition for the set-up series), reduced
/// to medians at the end (the set-up series to its minimum), plus the
/// operation counts.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> traces;  ///< chrome-trace files of traced runs
  std::vector<std::string> errors;
  int attempted = 0;
  int failed = 0;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// The scalar fields of DesignMetrics that the final analysis produces,
/// in a fixed order: compared bit for bit against a from-scratch recompute.
std::vector<double> metric_fields(const core::DesignMetrics& m) {
  return {m.frequency_ghz,
          m.clock_period_ns,
          m.wns_ns,
          m.tns_ns,
          m.effective_delay_ns,
          static_cast<double>(m.sta_corners),
          m.wns_worst_corner_ns,
          m.timing_yield,
          m.footprint_mm2,
          m.silicon_area_mm2,
          m.chip_width_um,
          m.density_pct,
          m.wirelength_m,
          static_cast<double>(m.mivs),
          m.cut_fraction,
          m.total_power_mw,
          m.switching_mw,
          m.internal_mw,
          m.leakage_mw,
          m.clock_power_mw,
          m.die_cost_e6,
          m.cost_per_cm2,
          m.pdp_pj,
          m.ppc,
          static_cast<double>(m.std_cells),
          static_cast<double>(m.macros),
          m.critical_path.slack_ns,
          m.critical_path.path_delay_ns,
          m.memory_nets.input_latency_ps,
          m.memory_nets.output_latency_ps,
          m.memory_nets.switching_uw,
          m.avg_stage_delay_tier_ns[0],
          m.avg_stage_delay_tier_ns[1],
          m.avg_path_skew_ns};
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// QoR of one design's final results. Deterministic: every visit of a
/// design (and every run of a seed) must reproduce it exactly.
struct Qor {
  /// Sum over the Hetero-3D flows of clock period minus worst-corner WNS:
  /// the WNS of each flow, kept positive so ratios of it stay meaningful.
  double eff_delay_ns = 0.0;
  double power_mw = 0.0;
  double wirelength_m = 0.0;
  double log_ppc = 0.0;
  int hetero_flows = 0;
  double cells = 0.0;          ///< over every final design
  double flagged_cells = 0.0;  ///< cells named by a run_checks Error
  double placement_errors = 0.0;
  double max_overlap_um2 = 0.0;
  /// Legality is a function of the final design alone, so a revisit of a
  /// design skips the slow checks (about 5 s per 164k-cell mesh design).
  bool check_legality = true;

  double ppc() const {
    return hetero_flows ? std::exp(log_ppc / hetero_flows) : 0.0;
  }
  double legal_cell_frac() const {
    return cells > 0 ? 1.0 - flagged_cells / cells : 0.0;
  }
  /// The flow QoR every visit of a design must reproduce.
  std::vector<double> fields() const {
    return {eff_delay_ns, power_mw, wirelength_m, ppc()};
  }
  void merge(const Qor& o) {
    eff_delay_ns += o.eff_delay_ns;
    power_mw += o.power_mw;
    wirelength_m += o.wirelength_m;
    log_ppc += o.log_ppc;
    hetero_flows += o.hetero_flows;
    cells += o.cells;
    flagged_cells += o.flagged_cells;
    placement_errors += o.placement_errors;
    max_overlap_um2 = std::max(max_overlap_um2, o.max_overlap_um2);
  }
};

/// Per-iteration sums of the benchmark's own signoff recompute timings.
struct SignoffTimes {
  double route_s = 0.0, sta_s = 0.0, power_s = 0.0;
};

/// Check one final design and fold it into its QoR. Counts one operation.
void check_design(const core::FlowResult& res, core::Config cfg,
                  const tech::CornerSpec& corners, Qor& qor,
                  SignoffTimes& times, Report& rep) {
  ++rep.attempted;
  const core::DesignMetrics& m = res.metrics;
  const std::string label = m.netlist_name + "/" + m.config_name;
  const std::vector<double> have = metric_fields(m);
  for (const double v : have) {
    if (!std::isfinite(v)) {
      rep.fail(label + ": non-finite metric");
      return;
    }
  }

  const netlist::Design& d = res.design;
  exec::Pool& pool = exec::Pool::global();
  auto t0 = Clock::now();
  const auto routes = route::route_design(d, {&pool});
  times.route_s += since(t0);
  sta::StaOptions sopt;
  sopt.pool = &pool;
  sopt.corners = corners;
  t0 = Clock::now();
  const auto timing = sta::run_sta(d, &routes, sopt);
  times.sta_s += since(t0);
  power::PowerOptions popt;
  popt.pool = &pool;
  t0 = Clock::now();
  const auto pw =
      power::analyze_power(d, &routes, 1.0 / d.clock_period_ns(), popt);
  times.power_s += since(t0);
  const core::DesignMetrics again = core::collect_metrics(
      d, routes, timing, pw, m.clock, m.netlist_name, m.config_name);
  if (!bitwise_equal(have, metric_fields(again)))
    rep.fail(label + ": recomputed signoff differs from FlowResult");

  if (qor.check_legality) {
    std::set<netlist::CellId> flagged;
    for (const auto& v : netlist::run_checks(d)) {
      if (v.severity != netlist::CheckSeverity::Error) continue;
      qor.placement_errors += 1.0;
      if (v.cell != netlist::kInvalidId) flagged.insert(v.cell);
    }
    qor.cells += d.nl().cell_count();
    qor.flagged_cells += static_cast<double>(flagged.size());
    qor.max_overlap_um2 =
        std::max(qor.max_overlap_um2, place::max_overlap_um2(d));
  }
  if (cfg == core::Config::Hetero3D) {
    qor.eff_delay_ns += m.clock_period_ns - m.wns_worst_corner_ns;
    qor.power_mw += m.total_power_mw;
    qor.wirelength_m += m.wirelength_m;
    qor.log_ppc += std::log(m.ppc);
    ++qor.hetero_flows;
  }
}

/// Start/stop the chrome-trace sink around a cold region.
class TraceScope {
 public:
  TraceScope(bool on, const std::string& path) : on_(on) {
    if (on_) util::trace_begin(path);
  }
  ~TraceScope() {
    if (on_) util::trace_end();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool on_;
};

/// What one iteration measured besides its checks.
struct IterTimes {
  double cold_s = 0.0;  ///< the cold timed region
  std::vector<double> warm_s;  ///< each warm serve of the same request
};

/// One workload over a fixed set of designs derived from the seed. Several
/// designs per run average out how much one generated design's flow work
/// depends on its seed, so run-to-run spread stays small.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual int designs() const = 0;
  /// Build every design's input; returns the seconds spent generating
  /// netlists.
  virtual double setup() = 0;
  /// One iteration on design `j`: the cold region (traced if asked), its
  /// warm serves, and the checks of every final design it produced.
  virtual IterTimes iterate(int j, Report& rep, Qor& qor, SignoffTimes& times,
                            bool traced, const std::string& trace_path) = 0;
};

/// Generator seed of design j: the run's seed itself, then far-apart
/// derived seeds.
unsigned design_seed(unsigned seed, int j) {
  return seed + static_cast<unsigned>(j) * 1000003u;
}

// ---- flow_mesh164k ---------------------------------------------------------

/// The single-design user: one cold Hetero-3D flow on a 163,840-cell mesh.
class MeshWorkload final : public Workload {
 public:
  explicit MeshWorkload(unsigned seed) : seed_(seed) {
    opt_.clock_period_ns = 1.0;
  }
  int designs() const override { return kDesigns; }

  double setup() override {
    nls_.clear();
    const auto t0 = Clock::now();
    for (int j = 0; j < kDesigns; ++j) {
      gen::GenOptions g;
      g.scale = 16;
      g.seed = design_seed(seed_, j);
      nls_.push_back(gen::make_mesh(g));
    }
    return since(t0);
  }

  IterTimes iterate(int j, Report& rep, Qor& qor, SignoffTimes& times,
                    bool traced, const std::string& trace_path) override {
    const netlist::Netlist& nl = nls_[static_cast<std::size_t>(j)];
    exec::FlowCache cache(1);
    exec::FlowCache::ResultPtr res;
    IterTimes t;
    {
      TraceScope scope(traced, trace_path);
      const auto t0 = Clock::now();
      res = cache.get_or_run(nl, core::Config::Hetero3D, opt_);
      t.cold_s = since(t0);
    }

    // Warm: the same request again, served from the in-memory tier.
    ++rep.attempted;
    std::vector<double> warm;
    bool hit = true;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      hit &= cache.get_or_run(nl, core::Config::Hetero3D, opt_) == res;
      warm.push_back(since(t0));
    }
    if (!hit) rep.fail("mesh: warm request not served from the cache");
    t.warm_s = std::move(warm);

    check_design(*res, core::Config::Hetero3D, opt_.sta_corners, qor, times,
                 rep);
    return t;
  }

 private:
  static constexpr int kDesigns = 2;
  unsigned seed_;
  core::FlowOptions opt_;
  std::vector<netlist::Netlist> nls_;
};

// ---- signoff_ldpc_k16 ------------------------------------------------------

/// Wire-dominant LDPC at K=16 signoff corners, with checkpoints and the
/// disk cache tier on, then disk-served loads of the entry it wrote.
class LdpcWorkload final : public Workload {
 public:
  LdpcWorkload(unsigned seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    opt_.clock_period_ns = 1.5;
    opt_.utilization = 0.50;
    opt_.sta_corners.count = 16;
    opt_.sta_corners.sigma[0] = 0.03;
    opt_.sta_corners.sigma[1] = 0.08;
    opt_.sta_corners.derate[0] = 1.0;
    opt_.sta_corners.derate[1] = 1.05;
  }
  int designs() const override { return kDesigns; }

  double setup() override {
    nls_.clear();
    const auto t0 = Clock::now();
    for (int j = 0; j < kDesigns; ++j) {
      gen::GenOptions g;
      g.scale = 8;
      g.seed = design_seed(seed_, j);
      nls_.push_back(gen::make_ldpc(g));
    }
    return since(t0);
  }

  IterTimes iterate(int j, Report& rep, Qor& qor, SignoffTimes& times,
                    bool traced, const std::string& trace_path) override {
    const netlist::Netlist& nl = nls_[static_cast<std::size_t>(j)];
    // Fresh directories, so the cold flow neither resumes a checkpoint nor
    // finds a cache entry.
    const fs::path base =
        fs::path(work_dir_) / ("ldpc" + std::to_string(++iteration_));
    const fs::path cache_dir = base / "cache";
    core::FlowOptions o = opt_;
    o.checkpoint_dir = (base / "ckpt").string();
    fs::create_directories(cache_dir);
    ::setenv("M3D_FLOW_CACHE_DIR", cache_dir.c_str(), 1);

    exec::FlowCache cache(1);
    exec::FlowCache::ResultPtr res;
    IterTimes t;
    {
      TraceScope scope(traced, trace_path);
      const auto t0 = Clock::now();
      res = cache.get_or_run(nl, core::Config::Hetero3D, o);
      t.cold_s = since(t0);
    }
    if (cache.stats().disk_writes != 1) rep.fail("ldpc: entry not persisted");
    double bytes = 0.0;
    for (const auto& e : fs::directory_iterator(cache_dir))
      bytes += static_cast<double>(e.file_size());
    rep.add("exec.disk_entry_bytes", bytes);
    check_design(*res, core::Config::Hetero3D, o.sta_corners, qor, times, rep);

    // Warm: each load lands in a fresh cache, so it is served from disk,
    // and must reproduce the cold flow's design state and metrics.
    const std::string digest = service::result_digest(*res);
    const std::vector<double> fields = metric_fields(res->metrics);
    std::vector<double> warm;
    for (int i = 0; i < 3; ++i) {
      ++rep.attempted;
      exec::FlowCache fresh(1);
      const auto t0 = Clock::now();
      const auto loaded = fresh.get_or_run(nl, core::Config::Hetero3D, o);
      warm.push_back(since(t0));
      if (fresh.stats().disk_hits != 1)
        rep.fail("ldpc: warm load not served from disk");
      else if (service::result_digest(*loaded) != digest ||
               !bitwise_equal(metric_fields(loaded->metrics), fields))
        rep.fail("ldpc: warm load differs from the cold flow");
    }
    for (const double w : warm) rep.add("exec.disk_load_s", w);
    t.warm_s = std::move(warm);

    ::unsetenv("M3D_FLOW_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(base, ec);
    return t;
  }

 private:
  static constexpr int kDesigns = 4;
  unsigned seed_;
  std::string work_dir_;
  core::FlowOptions opt_;
  std::vector<netlist::Netlist> nls_;
  int iteration_ = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = static_cast<unsigned>(std::stoul(v));
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return a;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int pool_threads = static_cast<int>(std::min(hw, 4u));
  pin_environment(pool_threads);
  bench::quiet_logs();

  std::unique_ptr<Workload> w;
  if (args.workload == "flow_mesh164k")
    w = std::make_unique<MeshWorkload>(args.seed);
  else if (args.workload == "signoff_ldpc_k16")
    w = std::make_unique<LdpcWorkload>(args.seed, args.work_dir);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  Report rep;
  exec::Pool::global();
  // Set-up is repeated a few times before the timed region and twice after
  // every iteration, and the fastest repeat is reported. The host has slow
  // spells of several seconds, longer than a back-to-back series of
  // repeats, so only repeats spread over the run reach a fast spell.
  auto set_up = [&](int repeats) {
    for (int k = 0; k < repeats; ++k) {
      const auto t0 = Clock::now();
      const double gen_s = w->setup();
      rep.add("setup_s", since(t0));
      rep.add("gen.netlist_s", gen_s);
    }
  };
  set_up(5);

  // Measured region: every design once, then more iterations while they
  // fit in the budget. A traced run alternates an untraced and a
  // traced iteration of the same design, so the tracing overhead compares
  // like with like; it needs only one pair.
  const int D = w->designs();
  std::vector<std::vector<double>> cold(D);
  std::vector<double> warm;
  std::vector<std::vector<double>> qor_by_design(D);
  Qor total;
  double untraced_cold = 0.0;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const int j = (args.trace ? i / 2 : i) % D;
    const std::string trace_path =
        (fs::path(args.work_dir) / ("trace" + std::to_string(i) + ".json"))
            .string();
    Qor qor;
    qor.check_legality = qor_by_design[j].empty();
    SignoffTimes times;
    const auto t_iter = Clock::now();
    try {
      const IterTimes t = w->iterate(j, rep, qor, times, traced, trace_path);
      std::fprintf(stderr,
                   "iteration %d: design %d%s, cold %.3f s, warm %.4f s\n", i,
                   j, traced ? " (traced)" : "", t.cold_s, median(t.warm_s));
      if (traced) {
        rep.traces.push_back(trace_path);
        if (untraced_cold > 0.0)
          rep.add("trace_overhead_frac", t.cold_s / untraced_cold - 1.0);
      } else {
        untraced_cold = t.cold_s;
        cold[j].push_back(t.cold_s);
        warm.insert(warm.end(), t.warm_s.begin(), t.warm_s.end());
      }
      rep.add("route.signoff_s", times.route_s);
      rep.add("sta.signoff_s", times.sta_s);
      rep.add("power.signoff_s", times.power_s);
      std::vector<double>& ref = qor_by_design[j];
      if (ref.empty()) {
        ref = qor.fields();
        total.merge(qor);
      } else if (!bitwise_equal(qor.fields(), ref)) {
        rep.fail("QoR of design " + std::to_string(j) +
                 " differs between iterations");
      }
    } catch (const std::exception& e) {
      ++rep.attempted;
      rep.fail(std::string("iteration threw: ") + e.what());
    }
    const double iter_s = since(t_iter);
    set_up(2);
    const int min_iters = args.trace ? 2 : D;
    const bool pair_done = !args.trace || i % 2 == 1;
    if (i + 1 >= min_iters && pair_done &&
        since(start) + iter_s > args.seconds)
      break;
  }

  // Cold time: median over a design's iterations, averaged over the
  // designs (their flow work differs). Warm serves do near-equal work on
  // every design, so they pool into one median.
  std::vector<double> cold_med;
  for (const auto& c : cold)
    if (!c.empty()) cold_med.push_back(median(c));
  std::map<std::string, double> values;
  for (const auto& [name, vals] : rep.samples) values[name] = median(vals);
  for (const char* name : {"setup_s", "gen.netlist_s"}) {
    const auto& v = rep.samples[name];
    values[name] = *std::min_element(v.begin(), v.end());
  }
  values["flow_s"] = mean(cold_med);
  values["warm_load_s"] = median(warm);
  values["peak_rss_mb"] = static_cast<double>(bench::peak_rss_kb()) / 1024.0;
  values["eff_delay_ns"] = total.eff_delay_ns;
  values["power_mw"] = total.power_mw;
  values["wirelength_m"] = total.wirelength_m;
  values["ppc"] = total.ppc();
  values["legal_cell_frac"] = total.legal_cell_frac();
  values["place.placement_errors"] = total.placement_errors;
  values["place.max_overlap_um2"] = total.max_overlap_um2;
  // Layers this workload does not run.
  for (const char* idle : {"exec.disk_load_s", "exec.disk_entry_bytes",
                           "trace_overhead_frac"})
    values.try_emplace(idle, 0.0);

  std::string out = "{\"attempted\":" + std::to_string(rep.attempted) +
                    ",\"failed\":" + std::to_string(rep.failed) +
                    ",\"pool\":" + std::to_string(pool_threads) +
                    ",\"nproc\":" + std::to_string(hw) +
                    ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
                    ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
                    ",\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values) {
    out += (first ? "" : ",") + json_str(name) + ":" + json_num(v);
    first = false;
  }
  out += "},\"traces\":[";
  for (std::size_t i = 0; i < rep.traces.size(); ++i)
    out += (i ? "," : "") + json_str(rep.traces[i]);
  out += "],\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i)
    out += (i ? "," : "") + json_str(rep.errors[i]);
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
