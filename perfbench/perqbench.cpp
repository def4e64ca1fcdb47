// perqbench: the perqd tick benchmark.
//
//   perqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--run-dir <dir>]
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   tick_solve  real PerqController + PerqPolicy (MPC horizon m=8) serving 4
//               NodeAgents of a DaemonPlant over loopback TCP, lockstep
//   tick_light  the same deployment at m=1 (serving path dominates)
//   tick_ha     tick_light plus a warm standby PerqController serviced in the
//               same loop (replication stream, no WAL: see records.json)
//   replay      replay::run_replay over ~200k Poisson-arrival jobs with a
//               durable accounting log, then reopening acct::Store
//
// --seed drives the generated inputs: the node-noise streams of the tick
// workloads (their Mira job trace is one fixed trace) and the job trace of
// the replay. The timed window is fixed work sized by --seconds: the same
// ticks (or replays) in every run, about --seconds long on the reference
// host, and never fewer than 1000 ticks so p99 has ten samples beyond it.
// The paper's objectives and every failure counter are taken over a fixed
// score window at its start, so they are exact functions of the seed.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced ticks and prints the per-layer metrics. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// exception that escapes a tick ends the run with exit code 1 and names the
// workload.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acct/store.hpp"
#include "apps/app_model.hpp"
#include "core/engine.hpp"
#include "core/node_model.hpp"
#include "core/perq_policy.hpp"
#include "daemon/controller.hpp"
#include "daemon/experiment.hpp"
#include "daemon/snapshot.hpp"
#include "metrics/metrics.hpp"
#include "net/tcp.hpp"
#include "policy/policy.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"
#include "tracing.hpp"

namespace perqbench {
namespace {

using namespace perq;

/// Identification seed of the production node model
/// (core::canonical_node_model); identified afresh in every set-up.
constexpr std::uint64_t kNodeModelSeed = 0x9e2a5c3b1d4f7081ull;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir = ".bench_run";
};

// --- small statistics helpers ----------------------------------------------

/// Nearest-rank percentile (q in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double cpu_seconds() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"tick_ms_p50", "ms"},
    {"tick_ms_p99", "ms"},
    {"ticks_per_s", "1/s"},
    {"cpu_ms_per_tick", "ms"},
    {"peak_rss_mb", "MB"},
    {"ok_pct", "%"},
    {"jobs_per_day", "1/day"},
    {"fair_pct", "%"},
    {"jobs_per_s", "1/s"},
    {"recover_s", "s"},
    {"setup_s", "s"},
};
constexpr MetricDef kPerLayer[] = {
    {"policy.allocate_ms_p50", "ms"},
    {"policy.allocate_ms_p99", "ms"},
    {"policy.solver_fallbacks", "count"},
    {"ctrl.fresh_jobs_p50", "count"},
    {"ctrl.decide_ms_p50", "ms"},
    {"ctrl.decide_ms_p99", "ms"},
    {"ctrl.broadcast_ms_p50", "ms"},
    {"ctrl.delta_pct", "%"},
    {"ctrl.clamp_activations", "count"},
    {"ctrl.pump_ms_p50", "ms"},
    {"ctrl.pump_ms_p99", "ms"},
    {"ctrl.stale_transitions", "count"},
    {"ctrl.frames_corrupt", "count"},
    {"ctrl.grace_decides", "count"},
    {"net.msgs_in_per_tick", "count"},
    {"net.msgs_out_per_tick", "count"},
    {"net.bytes_out_per_tick", "B"},
    {"net.recv_ms_per_tick", "ms"},
    {"net.send_ms_per_tick", "ms"},
    {"plant.self_ms_p50", "ms"},
    {"plant.self_ms_p99", "ms"},
    {"plant.held_ticks", "count"},
    {"plant.service_calls_per_tick", "count"},
    {"repl.snapshot_decide_ms_p50", "ms"},
    {"repl.decide_ms_p50", "ms"},
    {"repl.standby_ms_p50", "ms"},
    {"repl.divergence", "count"},
    {"repl.p99_snapshot_pct", "%"},
    {"setup.model_s", "s"},
    {"setup.engine_s", "s"},
    {"setup.connect_s", "s"},
    {"setup.standby_s", "s"},
    {"setup.warmup_s", "s"},
    {"trace.gen_s", "s"},
    {"replay.run_s", "s"},
    {"replay.events_per_s", "1/s"},
    {"replay.reallocations", "count"},
    {"acct.log_bytes", "B"},
    {"acct.records_per_s", "1/s"},
    {"trace.tick_ms_p50", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
    {"share.allocate_pct", "%"},
    {"share.serving_pct", "%"},
};

/// Metric values by name. json() prints the set of the run's mode in table
/// order. A per-layer metric a workload does not have (no MPC in the replay,
/// no replay in a tick run) reads 0; a missing end-to-end metric or a name
/// outside the set is a benchmark bug.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void set(const std::string& name, double value) { values_[name] = value; }

  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    std::size_t printed = 0;
    std::size_t measured = 0;
    const auto print = [&](const MetricDef& m) {
      const auto it = values_.find(m.name);
      if (it == values_.end() && !trace_) {
        throw std::logic_error(std::string("metric not measured: ") + m.name);
      }
      if (it != values_.end()) ++measured;
      const double v = it == values_.end() ? 0.0 : it->second;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
      out += std::string(printed++ > 0 ? ", \"" : "\"") + m.name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    };
    if (trace_) {
      for (const MetricDef& m : kPerLayer) print(m);
    } else {
      for (const MetricDef& m : kEndToEnd) print(m);
    }
    if (measured != values_.size()) throw std::logic_error("metric outside the set");
    return out + "}}";
  }

 private:
  bool trace_;
  std::map<std::string, double> values_;
};

/// Shared by every workload: correctness bookkeeping for the result line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    if (problems.size() < 8) problems.push_back(why);
  }
};

// --- tick workloads ----------------------------------------------------------

struct TickShape {
  std::size_t horizon_m;       ///< MPC horizon
  bool ha;                     ///< warm standby in the same loop
  double nominal_ticks_per_s;  ///< timed ticks per --seconds (sizes the run)
  std::size_t score_ticks;     ///< timed ticks the deterministic metrics cover
};

constexpr std::size_t kAgents = 4;
// One fixed Mira job trace; --seed varies the node noise. Across trace
// seeds the QP cost of a tick swings 3x (tick_solve p50 22-64 ms), wider
// than any bound the benchmark may set.
constexpr std::uint64_t kTickTraceSeed = 11;
constexpr std::size_t kWarmupTicks = 10;
/// p99 needs ten samples beyond it.
constexpr std::size_t kMinTimedTicks = 1000;
const std::uint64_t kSnapshotEvery = daemon::ControllerConfig{}.replicate_snapshot_every;
// Set-up repeats until this much set-up time is spent (within the bounds).
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 101;
constexpr double kSetupBudgetS = 1.5;

std::optional<TickShape> tick_shape(const std::string& name) {
  // At ~40 ms a tick, kMinTimedTicks rather than --seconds sets
  // tick_solve's length.
  if (name == "tick_solve") return TickShape{8, false, 25.0, kMinTimedTicks};
  if (name == "tick_light") return TickShape{1, false, 2600.0, 8640};
  if (name == "tick_ha") return TickShape{1, true, 2200.0, 4320};
  return std::nullopt;
}

/// The timed window is fixed work: the same ticks in every run with the
/// same --seconds, sized to take about that long on the reference host.
std::size_t timed_ticks(const TickShape& shape, double seconds) {
  const auto nominal =
      static_cast<std::size_t>(std::llround(seconds * shape.nominal_ticks_per_s));
  return std::max({kMinTimedTicks, shape.score_ticks, nominal});
}

core::EngineConfig tick_engine_config(std::uint64_t seed, std::size_t ticks) {
  core::EngineConfig cfg;
  cfg.trace.system = trace::SystemModel::kMira;
  cfg.trace.max_job_nodes = 16;
  cfg.trace.seed = kTickTraceSeed;
  cfg.cluster_seed = seed;
  cfg.worst_case_nodes = 128;
  cfg.over_provision_factor = 2.0;
  // Whole simulated days covering every tick the run steps.
  const double days = std::ceil(static_cast<double>(ticks) * cfg.control_interval_s / 86400.0);
  cfg.duration_s = std::max(1.0, days) * 86400.0;
  cfg.trace.job_count = core::recommended_job_count(cfg);
  return cfg;
}

core::PerqPolicy make_policy(const sysid::IdentifiedModel& model,
                             const core::EngineConfig& cfg, const TickShape& shape) {
  core::PerqConfig pcfg;
  pcfg.mpc.horizon = shape.horizon_m;
  const auto total_nodes = static_cast<std::size_t>(std::llround(
      cfg.over_provision_factor * static_cast<double>(cfg.worst_case_nodes)));
  return core::PerqPolicy(&model, cfg.worst_case_nodes, total_nodes, pcfg);
}

struct SetupTimes {
  double model_s = 0.0;
  double engine_s = 0.0;
  double connect_s = 0.0;
  double standby_s = 0.0;
  double warmup_s = 0.0;
  double total() const {
    return model_s + engine_s + connect_s + standby_s + warmup_s;
  }
};

/// Per-tick observations of the serving loop (filled by TickDeployment).
struct TickSample {
  double tick_ms = 0.0;
  double decide_ms = -1.0;    ///< primary decide (ready path), -1 if none
  double allocate_ms = -1.0;  ///< PerqPolicy::allocate inside it
  double pump_ms = 0.0;
  double standby_ms = 0.0;
  std::size_t service_calls = 0;
  std::size_t fresh_jobs = 0;
  bool on_time = false;       ///< DaemonPlant::step returned true
  bool ok = false;            ///< on time, not degraded, not clamp-rescued
  bool snapshot_tick = false; ///< decide also sent a full ReplSnapshot
  bool traced = false;
};

/// One deployment: model + trace/engine + controller(s) + plant over TCP.
class TickDeployment {
 public:
  TickDeployment(const Args& args, const TickShape& shape, Tracer& tracer,
                 SetupTimes& st)
      : tracer_(tracer), wire_(tcp_, tracer.enabled_flag()) {
    std::int64_t t0 = now_ns();
    model_ = std::make_unique<sysid::IdentifiedModel>(
        core::identify_node_model(kNodeModelSeed));
    st.model_s = seconds_since(t0);

    t0 = now_ns();
    cfg_ = tick_engine_config(
        args.seed, kWarmupTicks + timed_ticks(shape, args.seconds) + 1);
    for (const trace::JobSpec& spec : trace::generate_trace(cfg_.trace)) {
      nodes_by_job_[spec.id] = static_cast<double>(spec.nodes);
    }
    policy_ = std::make_unique<core::PerqPolicy>(make_policy(*model_, cfg_, shape));
    if (shape.ha) {
      standby_policy_ =
          std::make_unique<core::PerqPolicy>(make_policy(*model_, cfg_, shape));
    }
    st.engine_s = seconds_since(t0);

    t0 = now_ns();
    auto listener = tcp_.listen("127.0.0.1:0");
    const std::string address =
        "127.0.0.1:" + std::to_string(net::listener_port(*listener));
    primary_ = std::make_unique<daemon::PerqController>(
        wire_.wrap(std::move(listener)), *policy_, daemon::ControllerConfig{});
    daemon::PlantConfig plant_cfg;
    plant_cfg.agents = kAgents;
    // Lockstep over the kernel loopback: a plan is only ever in flight,
    // never lost, so a long timeout keeps a slow host from holding ticks.
    plant_cfg.plan_timeout_ms = 60000;
    plant_ = std::make_unique<daemon::DaemonPlant>(cfg_, wire_, address, plant_cfg);
    primary_->pump();
    st.connect_s = seconds_since(t0);

    if (shape.ha) {
      t0 = now_ns();
      auto sl = tcp_.listen("127.0.0.1:0");
      const std::string standby_addr =
          "127.0.0.1:" + std::to_string(net::listener_port(*sl));
      daemon::ControllerConfig scfg;
      scfg.standby = true;
      standby_ = std::make_unique<daemon::PerqController>(
          wire_.wrap(std::move(sl)), *standby_policy_, scfg);
      primary_->attach_standby(wire_.connect(standby_addr));
      // Bootstrap: the standby is decision-equivalent once it applied the
      // initial snapshot.
      const std::int64_t deadline = now_ns() + 10'000'000'000;
      while (standby_->replicated_decides() == 0) {
        if (now_ns() > deadline) throw std::runtime_error("standby never bootstrapped");
        standby_->pump();
        standby_->wait(1);
      }
      st.standby_s = seconds_since(t0);
    }

    t0 = now_ns();
    Outcome warm;
    for (std::size_t i = 0; i < kWarmupTicks; ++i) step(warm);
    if (!warm.correct) throw std::runtime_error("warm-up failed: " + warm.problems[0]);
    st.warmup_s = seconds_since(t0);
  }

  // The wrapped listeners hold a reference to wire_.
  TickDeployment(const TickDeployment&) = delete;
  TickDeployment& operator=(const TickDeployment&) = delete;

  const core::EngineConfig& config() const { return cfg_; }
  const sysid::IdentifiedModel& model() const { return *model_; }
  daemon::PerqController& primary() { return *primary_; }
  daemon::PerqController* standby() { return standby_.get(); }
  daemon::DaemonPlant& plant() { return *plant_; }
  CountingTransport& wire() { return wire_; }
  std::size_t grace_decides() const { return grace_decides_; }

  /// Runs one control tick end to end and checks its plan. Exceptions from
  /// any layer propagate: a tick that throws ends the run.
  TickSample step(Outcome& out) {
    TickSample s;
    s.traced = tracer_.enabled();
    const std::uint64_t tick = plant_->engine().tick();
    const core::RobustnessCounters before = primary_->counters();
    const std::size_t n_decisions = policy_->decision_seconds().size();

    const auto service = [&] {
      ++s.service_calls;
      Scope span(tracer_, Layer::kService, tick);
      std::int64_t t0 = now_ns();
      {
        Scope p(tracer_, Layer::kPump, tick);
        primary_->pump();
      }
      s.pump_ms += static_cast<double>(now_ns() - t0) * 1e-6;
      if (primary_->tick_pending()) {
        if (primary_->ready()) {
          t0 = now_ns();
          {
            Scope d(tracer_, Layer::kDecide, tick);
            primary_->decide();
            const auto& ds = policy_->decision_seconds();
            if (ds.size() > n_decisions) {
              s.allocate_ms = ds.back() * 1e3;
              tracer_.add_child(Layer::kAllocate, tick, t0,
                                t0 + static_cast<std::int64_t>(ds.back() * 1e9));
            }
          }
          s.decide_ms = static_cast<double>(now_ns() - t0) * 1e-6;
        } else if (primary_->service()) {
          ++grace_decides_;  // decided on the grace timer, not ready
        }
      }
      if (standby_ != nullptr) {
        t0 = now_ns();
        Scope sb(tracer_, Layer::kStandby, tick);
        standby_->service();
        s.standby_ms += static_cast<double>(now_ns() - t0) * 1e-6;
      }
    };

    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer_, Layer::kTick, tick);
      s.on_time = plant_->step(service);
    }
    s.tick_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    ++out.attempted;

    const bool ok_before = out.correct;
    check_plan(tick, out);
    if (standby_ != nullptr) check_standby(tick, s, out);
    if (!out.correct && ok_before) ++out.failed;

    const core::RobustnessCounters after = primary_->counters();
    const auto& stats = primary_->last_stats();
    s.fresh_jobs = stats.fresh_jobs;
    const bool degraded = after.solver_fallbacks != before.solver_fallbacks ||
                          stats.held_jobs > 0 || s.decide_ms < 0.0;
    const bool rescued = after.clamp_activations != before.clamp_activations;
    s.ok = s.on_time && !degraded && !rescued;
    s.snapshot_tick = standby_ != nullptr && s.decide_ms >= 0.0 &&
                      primary_->replicated_decides() % kSnapshotEvery == 0;
    return s;
  }

 private:
  /// Box and budget check of the plan decided for `tick`.
  void check_plan(std::uint64_t tick, Outcome& out) {
    const proto::CapPlan& plan = primary_->last_plan();
    const auto& stats = primary_->last_stats();
    if (stats.tick != tick || plan.tick != tick) {
      out.fail("tick " + std::to_string(tick) + ": no plan decided");
      return;
    }
    const auto& spec = apps::node_power_spec();
    double fresh_w = 0.0;
    for (const proto::CapEntry& e : plan.entries) {
      if (!(e.cap_w >= spec.cap_min - 1e-9 && e.cap_w <= spec.tdp + 1e-9)) {
        out.fail("tick " + std::to_string(tick) + ": cap outside [cap_min, tdp]");
        return;
      }
      const auto it = nodes_by_job_.find(e.job_id);
      if (it == nodes_by_job_.end()) {
        out.fail("tick " + std::to_string(tick) + ": plan names an unknown job");
        return;
      }
      if (!e.held) fresh_w += e.cap_w * it->second;
    }
    if (fresh_w > stats.budget_row_w + 1e-3) {
      out.fail("tick " + std::to_string(tick) + ": plan exceeds the budget row");
    }
  }

  /// The standby must replay every primary decide to the same plan.
  void check_standby(std::uint64_t tick, TickSample& s, Outcome& out) {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (standby_->last_replicated_tick() < tick) {
      if (now_ns() > deadline) {
        out.fail("tick " + std::to_string(tick) + ": standby fell behind");
        return;
      }
      const std::int64_t t0 = now_ns();
      Scope sb(tracer_, Layer::kStandby, tick);
      standby_->service();
      standby_->wait(1);
      s.standby_ms += static_cast<double>(now_ns() - t0) * 1e-6;
    }
    if (standby_->repl_divergence() != 0 ||
        standby_->last_plan_crc() != primary_->last_plan_crc()) {
      out.fail("tick " + std::to_string(tick) + ": standby plan differs from primary");
    }
  }

  Tracer& tracer_;
  std::unique_ptr<sysid::IdentifiedModel> model_;
  core::EngineConfig cfg_;
  std::map<int, double> nodes_by_job_;
  net::TcpTransport tcp_;
  CountingTransport wire_;
  std::unique_ptr<core::PerqPolicy> policy_;
  std::unique_ptr<core::PerqPolicy> standby_policy_;
  std::unique_ptr<daemon::PerqController> primary_;
  std::unique_ptr<daemon::PerqController> standby_;
  std::unique_ptr<daemon::DaemonPlant> plant_;
  std::size_t grace_decides_ = 0;
};

/// Mean of the middle half of a sample (the interquartile mean).
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double total = 0.0;
  for (std::size_t i = lo; i < hi; ++i) total += v[i];
  return total / static_cast<double>(hi - lo);
}

/// recover_s for the tick workloads: decode the primary's snapshot and
/// restore it into a fresh controller (built untimed); the restored
/// controller must re-encode to the same bytes. The restore repeats for
/// about a second and reports the interquartile mean: on a shared host the
/// same work runs in a fast and a slow regime that switch every ~100 ms, and
/// one short burst, or the median of one, lands in either. The repetitions
/// run on a thread of their own: a restarted controller starts with a fresh
/// heap, and a new thread allocates from a malloc arena the serving loop
/// never fragmented.
double measure_restart(TickDeployment& d, const TickShape& shape, Outcome& out) {
  constexpr double kBudgetS = 1.0;
  constexpr std::size_t kMinReps = 5;
  const std::vector<std::uint8_t> bytes = daemon::encode_snapshot(d.primary().state());
  std::vector<double> times;
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      net::TcpTransport tcp;
      const std::int64_t start = now_ns();
      while (times.size() < kMinReps || seconds_since(start) < kBudgetS) {
        core::PerqPolicy policy = make_policy(d.model(), d.config(), shape);
        daemon::PerqController fresh(tcp.listen("127.0.0.1:0"), policy);
        const std::int64_t t0 = now_ns();
        const std::optional<daemon::ControllerState> s =
            daemon::decode_snapshot(bytes.data(), bytes.size());
        if (!s.has_value()) throw std::runtime_error("snapshot does not decode");
        fresh.restore(*s);
        times.push_back(seconds_since(t0));
        if (times.size() == 1 && daemon::encode_snapshot(fresh.state()) != bytes) {
          out.fail("restored controller state differs from the snapshot");
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return interquartile_mean(times);
}

void run_tick_workload(const Args& args, const TickShape& shape, Report& rep,
                      Outcome& out) {
  Tracer tracer;

  // Set-up, several times over; the last deployment serves the timed run.
  std::vector<SetupTimes> setups;
  std::unique_ptr<TickDeployment> dep;
  double setup_spent = 0.0;
  for (int r = 0; r < kMinSetupReps || (r < kMaxSetupReps && setup_spent < kSetupBudgetS);
       ++r) {
    dep.reset();
    SetupTimes st;
    dep = std::make_unique<TickDeployment>(args, shape, tracer, st);
    setups.push_back(st);
    setup_spent += st.total();
  }

  // Timed window. The score window is its first score_ticks ticks.
  std::vector<TickSample> samples;
  std::vector<core::JobOutcome> scored_finished;
  std::size_t scored_ok = 0;
  std::size_t scored_held = 0;
  core::RobustnessCounters at_score{};  ///< increments over the score window
  std::size_t jobs_finished_timed = 0;

  const auto collect_finished = [&](bool in_score) {
    for (const auto& entry : dep->plant().engine().last_finished()) {
      ++jobs_finished_timed;
      if (!in_score) continue;
      const sched::Job& job = *entry.first;
      core::JobOutcome o;
      o.id = job.spec().id;
      o.nodes = job.spec().nodes;
      o.runtime_ref_s = job.spec().runtime_ref_s;
      o.start_s = job.start_time_s();
      o.finish_s = job.finish_time_s();
      o.runtime_s = job.runtime_s();
      scored_finished.push_back(o);
    }
  };

  const std::size_t n_timed = timed_ticks(shape, args.seconds);
  samples.reserve(n_timed);
  const core::RobustnessCounters score_start = dep->primary().counters();
  const double cpu0 = cpu_seconds();
  const std::int64_t t_start = now_ns();
  for (std::size_t k = 0; k < n_timed; ++k) {
    const bool in_score = k < shape.score_ticks;
    // Traced runs alternate traced and untraced ticks, so the untraced half
    // measures the same stretch of the simulation.
    tracer.set_enabled(args.trace && (k % 2 == 1));
    const TickSample s = dep->step(out);
    tracer.set_enabled(false);
    samples.push_back(s);
    collect_finished(in_score);
    if (in_score) {
      if (s.ok) ++scored_ok;
      if (!s.on_time) ++scored_held;
      if (k + 1 == shape.score_ticks) {
        // Failure counters as increments over the score window.
        const core::RobustnessCounters c = dep->primary().counters();
        at_score.solver_fallbacks = c.solver_fallbacks - score_start.solver_fallbacks;
        at_score.clamp_activations = c.clamp_activations - score_start.clamp_activations;
        at_score.stale_transitions = c.stale_transitions - score_start.stale_transitions;
        at_score.frames_corrupt = c.frames_corrupt - score_start.frames_corrupt;
      }
    }
  }
  const double timed_s = seconds_since(t_start);
  const double cpu_s = cpu_seconds() - cpu0;

  // Decision-state totals and the standby's final agreement.
  const double delta_pct =
      100.0 * static_cast<double>(dep->primary().delta_broadcasts()) /
      std::max<double>(1.0, static_cast<double>(dep->primary().delta_broadcasts() +
                                                dep->primary().full_broadcasts()));
  std::uint64_t divergence = 0;
  if (dep->standby() != nullptr) {
    divergence = dep->standby()->repl_divergence() + dep->standby()->repl_rejected();
    if (divergence != 0) out.fail("standby diverged from the primary");
  }
  const NetCounts srv = dep->wire().server();
  const NetCounts cli = dep->wire().client();

  const core::EngineConfig cfg = dep->config();
  const std::size_t grace_decides = dep->grace_decides();
  const double recover_s = measure_restart(*dep, shape, out);
  dep.reset();

  // fair_pct: the same trace under FOP, in process, up to the end of the
  // score window.
  core::EngineConfig fop_cfg = cfg;
  fop_cfg.duration_s =
      static_cast<double>(kWarmupTicks + shape.score_ticks) * cfg.control_interval_s;
  policy::FairShare fop;
  const core::RunResult fop_run = core::run_experiment(fop_cfg, fop);
  core::RunResult perq_run;
  perq_run.finished = scored_finished;
  const metrics::FairnessReport fr = metrics::degradation_vs_baseline(perq_run, fop_run);
  const double fair_pct =
      fr.compared_jobs == 0
          ? 0.0
          : 100.0 * static_cast<double>(fr.compared_jobs - fr.degraded_jobs) /
                static_cast<double>(fr.compared_jobs);
  if (fr.compared_jobs == 0) out.fail("no job completed in both runs of the score window");
  const double score_days = static_cast<double>(shape.score_ticks) *
                            cfg.control_interval_s / 86400.0;

  // Timing samples.
  std::vector<double> tick_ms, tick_ms_untraced, decide_ms, allocate_ms, pump_ms,
      standby_ms, fresh, snap_decide_ms, plain_decide_ms;
  std::size_t service_calls = 0;
  std::size_t traced_ticks = 0;
  for (const TickSample& s : samples) {
    (s.traced || !args.trace ? tick_ms : tick_ms_untraced).push_back(s.tick_ms);
    if (args.trace && !s.traced) continue;
    ++traced_ticks;
    service_calls += s.service_calls;
    pump_ms.push_back(s.pump_ms);
    if (shape.ha) standby_ms.push_back(s.standby_ms);
    if (s.decide_ms >= 0.0) {
      decide_ms.push_back(s.decide_ms);
      (s.snapshot_tick ? snap_decide_ms : plain_decide_ms).push_back(s.decide_ms);
      if (s.allocate_ms >= 0.0) allocate_ms.push_back(s.allocate_ms);
      fresh.push_back(static_cast<double>(s.fresh_jobs));
    }
  }
  const double n = static_cast<double>(samples.size());

  std::vector<double> setup_total, model_s, engine_s, connect_s, standby_s, warmup_s;
  for (const SetupTimes& st : setups) {
    setup_total.push_back(st.total());
    model_s.push_back(st.model_s);
    engine_s.push_back(st.engine_s);
    connect_s.push_back(st.connect_s);
    standby_s.push_back(st.standby_s);
    warmup_s.push_back(st.warmup_s);
  }

  if (!args.trace) {
    rep.set("setup_s", median(setup_total));
    rep.set("tick_ms_p50", median(tick_ms));
    rep.set("tick_ms_p99", percentile(tick_ms, 99.0));
    rep.set("ticks_per_s", n / timed_s);
    rep.set("cpu_ms_per_tick", cpu_s * 1e3 / n);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("ok_pct", 100.0 * static_cast<double>(scored_ok) / static_cast<double>(shape.score_ticks));
    rep.set("jobs_per_day", static_cast<double>(scored_finished.size()) / score_days);
    rep.set("fair_pct", fair_pct);
    rep.set("jobs_per_s", static_cast<double>(jobs_finished_timed) / timed_s);
    rep.set("recover_s", recover_s);
  } else {
    // Self times from the spans of the traced ticks.
    std::vector<double> tick_dur = tracer.durations_ms(Layer::kTick);
    const std::vector<double> tick_self = tracer.self_ms(Layer::kTick);
    const double tick_total = sum(tick_dur);
    const double alloc_total = tracer.total_self_ms(Layer::kAllocate);
    const double serving = tracer.total_self_ms(Layer::kTick) +
                           tracer.total_self_ms(Layer::kService) +
                           tracer.total_self_ms(Layer::kPump) +
                           tracer.total_self_ms(Layer::kDecide);
    const double tn = static_cast<double>(std::max<std::size_t>(1, traced_ticks));
    // Which ticks make up the tail: share of ticks at or above p99 whose
    // decide also sent a full ReplSnapshot.
    double p99_snapshot_pct = 0.0;
    if (shape.ha) {
      const double p99 = percentile(tick_ms, 99.0);
      std::size_t tail = 0;
      std::size_t tail_snap = 0;
      for (const TickSample& s : samples) {
        if (!s.traced || s.tick_ms < p99) continue;
        ++tail;
        if (s.snapshot_tick) ++tail_snap;
      }
      p99_snapshot_pct = tail == 0 ? 0.0 : 100.0 * static_cast<double>(tail_snap) /
                                               static_cast<double>(tail);
    }
    std::vector<double> broadcast_ms;
    for (std::size_t i = 0; i < decide_ms.size() && i < allocate_ms.size(); ++i) {
      broadcast_ms.push_back(decide_ms[i] - allocate_ms[i]);
    }

    rep.set("policy.allocate_ms_p50", median(allocate_ms));
    rep.set("policy.allocate_ms_p99", percentile(allocate_ms, 99.0));
    rep.set("policy.solver_fallbacks", static_cast<double>(at_score.solver_fallbacks));
    rep.set("ctrl.fresh_jobs_p50", median(fresh));
    rep.set("ctrl.decide_ms_p50", median(decide_ms));
    rep.set("ctrl.decide_ms_p99", percentile(decide_ms, 99.0));
    rep.set("ctrl.broadcast_ms_p50", median(broadcast_ms));
    rep.set("ctrl.delta_pct", delta_pct);
    rep.set("ctrl.clamp_activations", static_cast<double>(at_score.clamp_activations));
    rep.set("ctrl.pump_ms_p50", median(pump_ms));
    rep.set("ctrl.pump_ms_p99", percentile(pump_ms, 99.0));
    rep.set("ctrl.stale_transitions", static_cast<double>(at_score.stale_transitions));
    rep.set("ctrl.frames_corrupt", static_cast<double>(at_score.frames_corrupt));
    rep.set("ctrl.grace_decides", static_cast<double>(grace_decides));
    rep.set("net.msgs_in_per_tick", static_cast<double>(srv.msgs_in) / tn);
    rep.set("net.msgs_out_per_tick", static_cast<double>(srv.msgs_out) / tn);
    rep.set("net.bytes_out_per_tick", static_cast<double>(srv.bytes_out) / tn);
    rep.set("net.recv_ms_per_tick", static_cast<double>(srv.recv_ns + cli.recv_ns) * 1e-6 / tn);
    rep.set("net.send_ms_per_tick", static_cast<double>(srv.send_ns + cli.send_ns) * 1e-6 / tn);
    rep.set("plant.self_ms_p50", median(tick_self));
    rep.set("plant.self_ms_p99", percentile(tick_self, 99.0));
    rep.set("plant.held_ticks", static_cast<double>(scored_held));
    rep.set("plant.service_calls_per_tick", static_cast<double>(service_calls) / tn);
    rep.set("repl.snapshot_decide_ms_p50", median(snap_decide_ms));
    rep.set("repl.decide_ms_p50", shape.ha ? median(plain_decide_ms) : 0.0);
    rep.set("repl.standby_ms_p50", median(standby_ms));
    rep.set("repl.divergence", static_cast<double>(divergence));
    rep.set("repl.p99_snapshot_pct", p99_snapshot_pct);
    rep.set("setup.model_s", median(model_s));
    rep.set("setup.engine_s", median(engine_s));
    rep.set("setup.connect_s", median(connect_s));
    rep.set("setup.standby_s", median(standby_s));
    rep.set("setup.warmup_s", median(warmup_s));
    rep.set("trace.tick_ms_p50", median(tick_ms));
    rep.set("trace.overhead_ms", median(tick_ms) - median(tick_ms_untraced));
    rep.set("trace.spans", static_cast<double>(tracer.size()));
    rep.set("share.allocate_pct", tick_total > 0 ? 100.0 * alloc_total / tick_total : 0.0);
    rep.set("share.serving_pct", tick_total > 0 ? 100.0 * serving / tick_total : 0.0);
    std::filesystem::create_directories(args.run_dir);
    tracer.write_tsv(args.run_dir + "/" + args.workload + ".spans.tsv");
  }
}

// --- replay workload ---------------------------------------------------------

constexpr std::size_t kReplayJobs = 200000;
/// Seconds one replay takes on the reference host (sizes the run).
constexpr double kReplayNominalS = 3.0;

replay::ReplayConfig replay_config(std::uint64_t seed) {
  replay::ReplayConfig cfg;
  cfg.trace.system = trace::SystemModel::kMira;
  cfg.trace.job_count = kReplayJobs;
  cfg.trace.max_job_nodes = 16;
  cfg.trace.seed = seed;
  cfg.trace.user_count = 100;
  cfg.worst_case_nodes = 128;
  cfg.over_provision_factor = 2.0;
  cfg.backfill_mode = sched::BackfillMode::kEasy;
  cfg.max_head_bypass = 8;
  return cfg;
}

void run_replay_workload(const Args& args, Report& rep, Outcome& out) {
  Tracer tracer;
  tracer.set_enabled(args.trace);
  std::filesystem::create_directories(args.run_dir);
  const std::string log_path = args.run_dir + "/replay.acct";

  std::vector<double> setup_s, gen_s, run_s, events_per_tick_ms, jobs_per_s,
      reopen_s, records_per_s;
  replay::ReplayResult last{};
  double log_bytes = 0.0;
  double cpu_total = 0.0;
  double events_total = 0.0;
  const int reps = std::max(3, static_cast<int>(std::lround(args.seconds / kReplayNominalS)));
  for (int r = 0; r < reps; ++r) {
    // Set-up: trace generation (arrival-span sizing, as perq_replay does)
    // plus opening a fresh durable store.
    std::int64_t t0 = now_ns();
    replay::ReplayConfig cfg = replay_config(args.seed);
    double node_s = 0.0;
    for (const trace::JobSpec& spec : trace::generate_trace(cfg.trace)) {
      node_s += static_cast<double>(spec.nodes) * spec.runtime_ref_s;
    }
    // Offered load 1.1x the machine's full-power node capacity: a standing
    // backlog without an ever-growing queue.
    cfg.trace.arrival_span_s =
        node_s / (static_cast<double>(cfg.worst_case_nodes) *
                  cfg.over_provision_factor * 1.1);
    gen_s.push_back(seconds_since(t0));
    std::filesystem::remove(log_path);
    auto store = std::make_unique<acct::Store>(log_path);
    setup_s.push_back(seconds_since(t0));

    const double cpu0 = cpu_seconds();
    t0 = now_ns();
    replay::ReplayResult res;
    {
      Scope span(tracer, Layer::kReplay, static_cast<std::uint64_t>(r));
      res = replay::run_replay(cfg, store.get());
      store->flush();
    }
    const double secs = seconds_since(t0);
    cpu_total += cpu_seconds() - cpu0;
    events_total += static_cast<double>(res.events);
    run_s.push_back(secs);
    events_per_tick_ms.push_back(secs * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, res.events)));
    jobs_per_s.push_back(static_cast<double>(res.jobs_completed) / secs);
    ++out.attempted;

    const bool ok_before = out.correct;
    if (res.jobs_submitted != kReplayJobs || res.jobs_completed != res.jobs_submitted) {
      out.fail("replay left jobs unfinished");
    }
    if (store->submitted() != res.jobs_submitted || store->ended() != res.jobs_completed) {
      out.fail("accounting store disagrees with the replay audit");
    }
    store.reset();  // closes the log
    log_bytes = static_cast<double>(std::filesystem::file_size(log_path));

    t0 = now_ns();
    std::uint64_t records = 0;
    {
      Scope span(tracer, Layer::kReopen, static_cast<std::uint64_t>(r));
      acct::Store reopened(log_path);
      records = reopened.log().replayed_count();
      reopen_s.push_back(seconds_since(t0));
      if (reopened.submitted() != res.jobs_submitted ||
          reopened.ended() != res.jobs_completed ||
          reopened.fraction_beating_equal_share() != res.fairness_fraction) {
        out.fail("reopened accounting store does not match the audit");
      }
    }
    records_per_s.push_back(static_cast<double>(records) / reopen_s.back());
    std::filesystem::remove(log_path);
    if (!out.correct && ok_before) ++out.failed;
    last = res;
  }

  if (!args.trace) {
    rep.set("setup_s", median(setup_s));
    rep.set("tick_ms_p50", median(events_per_tick_ms));
    rep.set("tick_ms_p99", percentile(events_per_tick_ms, 99.0));
    rep.set("ticks_per_s", events_total / sum(run_s));
    rep.set("cpu_ms_per_tick", cpu_total * 1e3 / events_total);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("ok_pct", 100.0 * static_cast<double>(last.jobs_completed) / static_cast<double>(last.jobs_submitted));
    rep.set("jobs_per_day", last.jobs_per_day);
    rep.set("fair_pct", 100.0 * last.fairness_fraction);
    rep.set("jobs_per_s", median(jobs_per_s));
    rep.set("recover_s", interquartile_mean(reopen_s));
  } else {
    rep.set("trace.gen_s", median(gen_s));
    rep.set("replay.run_s", median(run_s));
    rep.set("replay.events_per_s", events_total / sum(run_s));
    rep.set("replay.reallocations", static_cast<double>(last.reallocations));
    rep.set("acct.log_bytes", log_bytes);
    rep.set("acct.records_per_s", median(records_per_s));
    rep.set("trace.tick_ms_p50", median(events_per_tick_ms));
    rep.set("trace.spans", static_cast<double>(tracer.size()));
    tracer.write_tsv(args.run_dir + "/" + args.workload + ".spans.tsv");
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--run-dir") {
      a.run_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  return a;
}

}  // namespace
}  // namespace perqbench

int main(int argc, char** argv) {
  using namespace perqbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perqbench: %s\n", e.what());
    return 2;
  }
  Report rep(args.trace);
  Outcome out;
  std::string result;
  try {
    if (const auto shape = tick_shape(args.workload)) {
      run_tick_workload(args, *shape, rep, out);
    } else if (args.workload == "replay") {
      run_replay_workload(args, rep, out);
    } else {
      std::fprintf(stderr, "perqbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    result = rep.json(out.correct, out.attempted, out.failed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perqbench: workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perqbench: %s: %s\n", args.workload.c_str(), p.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
