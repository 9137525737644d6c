// perfbench — end-to-end benchmark of drdesync and drdesyncd.
//
//   perfbench --workload cold_dlx --seed 1 --seconds 10 --trace 0
//             --run-dir .bench_build/run
//
// Runs one workload in-process through the public calls drdesync makes
// (library, gatefile, readVerilog, desynchronize, writeVerilog,
// SdcFile::toText, ~Design) or, for daemon_small, through server::Server
// and server::Client.  Prints one JSON line: correct/attempted/failed, the
// metrics (end-to-end with --trace 0, per-layer with --trace 1; metric
// reference in perfbench/METRICS.md), the run's metadata and the trace
// files the wrapper (perfbench/run.py) reads span self times from.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common.h"
#include "core/parallel.h"
#include "core/version.h"
#include "flowdb/snapshot.h"

using namespace perfbench;

namespace {

/// Linear-interpolated percentile, p in [0, 1] (drdesync-bench's rule).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

template <typename Fn>
double medianOf(const std::vector<RunRecord>& runs, Fn&& fn) {
  std::vector<double> v;
  for (const RunRecord& r : runs) v.push_back(static_cast<double>(fn(r)));
  return percentile(std::move(v), 0.5);
}

template <typename Fn>
double meanOf(const std::vector<RunRecord>& runs, Fn&& fn) {
  if (runs.empty()) return 0.0;
  double sum = 0.0;
  for (const RunRecord& r : runs) sum += static_cast<double>(fn(r));
  return sum / static_cast<double>(runs.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// "tmpfs" or the statfs magic of the filesystem holding `path`.
std::string fsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  if (st.f_type == 0x01021994) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

/// Length of the timed-wall windows throughput is sampled over.
constexpr double kWindowMs = 1000.0;

/// Throughput samples: verified runs per second over consecutive windows
/// of whole untraced rounds, each at least kWindowMs of timed wall (loop
/// time, checks and failed runs included); a trailing partial window is
/// dropped unless it is the only one.
std::vector<double> windowRates(const std::vector<Round>& rounds) {
  std::vector<double> rates;
  double window_ms = 0.0;
  std::size_t verified = 0;
  for (const Round& round : rounds) {
    if (round.traced) continue;
    window_ms += round.elapsed_ms;
    verified += round.walls.size();
    if (window_ms >= kWindowMs) {
      rates.push_back(static_cast<double>(verified) / (window_ms / 1e3));
      window_ms = 0.0;
      verified = 0;
    }
  }
  if (rates.empty() && window_ms > 0.0) {
    rates.push_back(static_cast<double>(verified) / (window_ms / 1e3));
  }
  return rates;
}

server::Json spread(const std::vector<double>& v, double overall) {
  server::Json s = server::Json::object();
  for (const auto& [key, p] : {std::pair{"p10", 0.1}, {"p25", 0.25},
                               {"p50", 0.5}, {"p75", 0.75}, {"p90", 0.9}}) {
    s.set(key, server::Json::number(percentile(v, p)));
  }
  s.set("overall", server::Json::number(overall));
  return s;
}

/// End-to-end metrics over the untraced rounds.  Host speed on shared
/// machines drifts by tens of percent for seconds to minutes, which moves a
/// median (and the fast end) of single runs with whichever phase dominated
/// the run; the slow tail is what stays put from run to run.  The per-run
/// figures are therefore tail quantiles: p90 of run wall and of CPU per
/// run.  Throughput is the median over 1-second windows of timed wall, so a
/// short burst of host load inside a run moves it no more than any other
/// window.  Quartiles and plain means go to the returned summary (result
/// metadata).
server::Json endToEnd(const WorkloadResult& res, server::Json& m) {
  std::vector<double> walls, cpu;
  double elapsed_ms = 0.0, wall_sum = 0.0, cpu_sum = 0.0;
  for (const Round& round : res.rounds) {
    if (round.traced) continue;
    walls.insert(walls.end(), round.walls.begin(), round.walls.end());
    cpu.insert(cpu.end(), round.cpu.begin(), round.cpu.end());
    elapsed_ms += round.elapsed_ms;
  }
  for (double w : walls) wall_sum += w;
  for (double c : cpu) cpu_sum += c;
  const double verified = static_cast<double>(walls.size());
  const std::vector<double> rates = windowRates(res.rounds);
  std::vector<double> setup;
  for (const SetupTiming& t : res.setups) setup.push_back(t.total_s);
  addMetric(m, "run_ms_p90", percentile(walls, 0.9), "ms");
  addMetric(m, "cpu_ms_per_run_p90", percentile(cpu, 0.9), "ms");
  addMetric(m, "runs_per_s", percentile(rates, 0.5), "1/s");
  addMetric(m, "peak_rss_mb", res.peak_rss_mb, "MB");
  addMetric(m, "setup_s", percentile(setup, 0.5), "s");

  server::Json summary = server::Json::object();
  summary.set("run_ms", spread(walls, ratio(wall_sum, verified)));
  summary.set("runs_per_s",
              spread(rates, ratio(verified, elapsed_ms / 1e3)));
  summary.set("cpu_ms_per_run",
              spread(cpu, ratio(cpu_sum, static_cast<double>(cpu.size()))));
  summary.set("throughput_windows",
              server::Json::number(static_cast<double>(rates.size())));
  return summary;
}

const char* const kPasses[] = {"reference_sta",   "region_grouping",
                               "ff_substitution", "dependency_graph",
                               "region_timing",   "control_network",
                               "sdc_generation"};

void perLayer(const WorkloadResult& res, const std::vector<RunRecord>& ok,
              server::Json& json) {
  auto add = [&](std::string name, double value, std::string unit) {
    addMetric(json, std::move(name), value, std::move(unit));
  };
  std::vector<double> lib, gatefile;
  for (const SetupTiming& t : res.setups) {
    lib.push_back(t.lib_load_ms);
    gatefile.push_back(t.gatefile_ms);
  }
  add("liberty.lib_load_ms", percentile(lib, 0.5), "ms");
  add("liberty.gatefile_ms", percentile(gatefile, 0.5), "ms");

  // The daemon parses, writes and tears down inside the server, where the
  // benchmark cannot time single calls; its netlist layer times come from
  // the set-up's sequential reference pass over the same designs.
  const bool daemon = !res.reference_runs.empty();
  const std::vector<RunRecord>& io = daemon ? res.reference_runs : ok;
  add("netlist.parse_ms", medianOf(io, [](auto& r) { return r.parse_ms; }),
      "ms");
  add("netlist.parse_mb_per_s", medianOf(io, [](auto& r) {
        return ratio(static_cast<double>(r.input_bytes) / 1e6,
                     r.parse_ms / 1e3);
      }), "MB/s");
  add("netlist.write_ms", medianOf(io, [](auto& r) { return r.write_ms; }),
      "ms");
  add("netlist.teardown_ms",
      medianOf(io, [](auto& r) { return r.teardown_ms; }), "ms");
  add("netlist.cells_in", medianOf(ok, [](auto& r) { return r.cells_in; }),
      "count");
  add("netlist.cells_out",
      medianOf(ok, [](auto& r) { return r.cells_out; }), "count");
  add("netlist.nets_out", medianOf(ok, [](auto& r) { return r.nets_out; }),
      "count");

  add("core.flow_ms", medianOf(io, [](auto& r) { return r.flow_ms; }), "ms");
  for (const char* pass : kPasses) {
    add(std::string("core.") + pass + "_ms", medianOf(ok, [&](auto& r) {
          auto it = r.facts.pass_ms.find(pass);
          return it == r.facts.pass_ms.end() ? 0.0 : it->second;
        }), "ms");
  }
  add("core.outside_passes_ms", medianOf(io, [](auto& r) {
        return r.flow_ms - r.facts.passes_ms;
      }), "ms");
  add("core.ffs_replaced",
      medianOf(ok, [](auto& r) { return r.facts.ffs_replaced; }), "count");
  add("core.regions", medianOf(ok, [](auto& r) { return r.facts.regions; }),
      "count");

  double registers = 0.0, trivial = 0.0;
  for (const RunRecord& r : ok) {
    registers += static_cast<double>(r.facts.registers);
    trivial += static_cast<double>(r.facts.trivial);
  }
  add("symfe.fe_prove_ms", medianOf(ok, [](auto& r) {
        auto it = r.facts.pass_ms.find("fe_prove");
          return it == r.facts.pass_ms.end() ? 0.0 : it->second;
        }), "ms");
  add("symfe.registers",
      medianOf(ok, [](auto& r) { return r.facts.registers; }), "count");
  add("symfe.proved", medianOf(ok, [](auto& r) { return r.facts.proved; }),
      "count");
  add("symfe.restored",
      medianOf(ok, [](auto& r) { return r.facts.restored; }), "count");
  add("symfe.trivial_ratio", ratio(trivial, registers), "ratio");
  add("sat.conflicts",
      medianOf(ok, [](auto& r) { return r.facts.conflicts; }), "count");
  add("sat.decisions",
      medianOf(ok, [](auto& r) { return r.facts.decisions; }), "count");

  double work = 0.0, parallel_wall = 0.0;
  for (const RunRecord& r : ok) {
    work += r.facts.work_ms;
    parallel_wall += r.facts.parallel_wall_ms;
  }
  add("parallel.work_ms", medianOf(ok, [](auto& r) { return r.facts.work_ms; }),
      "ms");
  add("parallel.speedup", ratio(work, parallel_wall), "ratio");
  // Contention is sporadic, so these two are per-run means, not medians.
  add("parallel.pool_wait_ms",
      meanOf(ok, [](auto& r) { return r.facts.pool_wait_ms; }), "ms");
  add("parallel.contended_sections",
      meanOf(ok, [](auto& r) { return r.facts.contended_sections; }),
      "count");

  double hits = 0.0, lookups = 0.0;
  for (const RunRecord& r : ok) {
    hits += static_cast<double>(r.facts.cache.hits);
    lookups += static_cast<double>(r.facts.cache.hits + r.facts.cache.misses);
  }
  add("flowdb.hits", medianOf(ok, [](auto& r) { return r.facts.cache.hits; }),
      "count");
  add("flowdb.misses",
      medianOf(ok, [](auto& r) { return r.facts.cache.misses; }), "count");
  add("flowdb.hit_ratio", ratio(hits, lookups), "ratio");
  add("flowdb.bytes_read",
      medianOf(ok, [](auto& r) { return r.facts.cache.bytes_read; }),
      "bytes");
  add("flowdb.bytes_written",
      medianOf(ok, [](auto& r) { return r.facts.cache.bytes_written; }),
      "bytes");
  add("flowdb.restore_ms",
      medianOf(ok, [](auto& r) { return r.facts.cache.restore_ms; }), "ms");
  add("flowdb.compute_ms",
      medianOf(ok, [](auto& r) { return r.facts.cache.compute_ms; }), "ms");

  double eco_runs = 0.0, warm = 0.0;
  for (const RunRecord& r : ok) {
    if (!r.facts.eco.ran) continue;
    eco_runs += 1.0;
    if (r.facts.eco.warm) warm += 1.0;
  }
  add("eco.warm_ratio", ratio(warm, eco_runs), "ratio");
  add("eco.regions_dirty",
      medianOf(ok, [](auto& r) { return r.facts.eco.regions_dirty; }),
      "count");
  add("eco.cells_changed",
      medianOf(ok, [](auto& r) { return r.facts.eco.cells_changed; }),
      "count");
  add("eco.dirty_endpoints",
      medianOf(ok, [](auto& r) { return r.facts.eco.dirty_endpoints; }),
      "count");
  add("eco.endpoints_restored",
      medianOf(ok, [](auto& r) { return r.facts.eco.endpoints_restored; }),
      "count");
  add("eco.registers_restored",
      medianOf(ok, [](auto& r) { return r.facts.eco.registers_restored; }),
      "count");

  add("server.queue_ms", medianOf(ok, [](auto& r) { return r.queue_ms; }),
      "ms");
  add("server.service_ms",
      medianOf(ok, [](auto& r) { return r.service_ms; }), "ms");
  add("server.wire_ms", medianOf(ok, [&](auto& r) {
        return daemon ? r.wall_ms - r.queue_ms - r.service_ms : 0.0;
      }), "ms");
  add("server.reply_bytes",
      medianOf(ok, [](auto& r) { return r.reply_bytes; }), "bytes");
  add("server.cold_request_ms",
      medianOf(res.priming_runs, [](auto& r) { return r.wall_ms; }), "ms");

  add("run.unaccounted_ms", medianOf(io, [](auto& r) {
        return r.wall_ms -
               (r.parse_ms + r.flow_ms + r.write_ms + r.teardown_ms);
      }), "ms");
  std::vector<double> walls[2];
  for (const Round& round : res.rounds) {
    std::vector<double>& w = walls[round.traced ? 1 : 0];
    w.insert(w.end(), round.walls.begin(), round.walls.end());
  }
  const double untraced_p50 = percentile(walls[0], 0.5);
  add("trace.overhead_pct",
      100.0 * ratio(percentile(walls[1], 0.5) - untraced_p50, untraced_p50),
      "%");
}

int usage() {
  std::fputs(
      "usage: perfbench --workload {cold_dlx,prove_arm,eco_arm,daemon_small}\n"
      "                 --seed N --seconds S --trace {0,1} --run-dir DIR\n"
      "                 [--setup-reps N] [--daemon-designs N]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        args.workload = value;
      } else if (arg == "--seed") {
        args.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value);
      } else if (arg == "--trace") {
        args.trace = value == "1";
      } else if (arg == "--run-dir") {
        args.run_dir = value;
      } else if (arg == "--setup-reps") {
        args.setup_reps = std::max(1, std::stoi(value));
      } else if (arg == "--daemon-designs") {
        args.daemon_designs = std::max(2, std::stoi(value));
      } else {
        return usage();
      }
    }
  } catch (const std::logic_error&) {  // stoull/stod/stoi on bad numbers
    return usage();
  }
  if (args.run_dir.empty()) return usage();

  WorkloadResult res;
  try {
    std::filesystem::create_directories(args.run_dir);
    if (args.workload == "cold_dlx") {
      res = runColdDlx(args);
    } else if (args.workload == "prove_arm") {
      res = runProveArm(args);
    } else if (args.workload == "eco_arm") {
      res = runEcoArm(args);
    } else if (args.workload == "daemon_small") {
      res = runDaemonSmall(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    core::shutdownParallel();
    return 1;
  }

  // Per-layer figures come from the verified runs of the untraced rounds
  // (records are kept with --trace 1 only).
  std::vector<RunRecord> untraced_ok;
  std::size_t attempted = 0, verified = 0, traced_samples = 0;
  for (const Round& round : res.rounds) {
    attempted += round.attempted;
    verified += round.walls.size();
    if (round.traced) traced_samples += round.walls.size();
    for (const RunRecord& r : round.runs) {
      if (r.ok && !round.traced) untraced_ok.push_back(r);
    }
  }
  const std::size_t failed = attempted - verified;

  server::Json metrics = server::Json::object();
  server::Json summary = server::Json::object();
  if (args.trace) {
    perLayer(res, untraced_ok, metrics);
  } else {
    summary = endToEnd(res, metrics);
  }

  auto num = [](double v) { return server::Json::number(v); };
  server::Json meta = server::Json::object();
  meta.set("workload", server::Json::str(args.workload));
  meta.set("seed", num(static_cast<double>(args.seed)));
  meta.set("seconds", num(args.seconds));
  meta.set("trace", num(args.trace ? 1 : 0));
  meta.set("nproc", num(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
  meta.set("jobs", num(res.jobs));
  meta.set("build_type", server::Json::str(PERFBENCH_BUILD_TYPE));
  meta.set("compiler", server::Json::str(PERFBENCH_COMPILER));
  meta.set("tool_version", server::Json::str(std::string(core::kToolVersion)));
  meta.set("snapshot_format_version",
           num(desync::flowdb::kSnapshotFormatVersion));
  meta.set("run_dir_fs", server::Json::str(fsType(args.run_dir)));
  meta.set("setup_reps", num(static_cast<double>(res.setups.size())));
  server::Json setup_times = server::Json::array();
  for (const SetupTiming& t : res.setups) setup_times.push(num(t.total_s));
  meta.set("setup_times_s", std::move(setup_times));
  meta.set("rounds", num(static_cast<double>(res.rounds.size())));
  meta.set("samples_untraced",
           num(static_cast<double>(verified - traced_samples)));
  meta.set("samples_traced", num(static_cast<double>(traced_samples)));
  meta.set("peak_rss_source", server::Json::str(res.peak_rss_source));
  meta.set("untraced_summary", std::move(summary));
  for (const auto& [key, value] : res.meta.asObject()) meta.set(key, value);

  server::Json traces = server::Json::array();
  for (const std::string& path : res.trace_files) {
    traces.push(server::Json::str(path));
  }

  server::Json result = server::Json::object();
  result.set("correct", server::Json::boolean(failed == 0 && attempted > 0));
  result.set("attempted", num(static_cast<double>(attempted)));
  result.set("failed", num(static_cast<double>(failed)));
  result.set("metrics", std::move(metrics));
  result.set("meta", std::move(meta));
  result.set("trace_files", std::move(traces));
  std::printf("%s\n", result.dump().c_str());
  core::shutdownParallel();
  return 0;
}
