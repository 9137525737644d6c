// Shared pieces of the end-to-end benchmark: command-line arguments, the
// per-run record every workload fills in, metric emission and the timed
// round loop.
//
// A workload is a set-up step plus a "round" function.  A round is the
// smallest unit whose counts repeat exactly (one design run, one cycle of
// ECO revisions, one pass of the daemon over its design set); the loop
// runs whole rounds until --seconds have passed, so count metrics never
// depend on where the clock stopped.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/desync.h"
#include "core/run_report.h"
#include "liberty/gatefile.h"
#include "liberty/library.h"
#include "server/json.h"

namespace perfbench {

namespace core = desync::core;
namespace liberty = desync::liberty;
namespace netlist = desync::netlist;
namespace server = desync::server;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory for caches, sockets and trace files (inside the
  /// checkout; run.py creates and removes it).
  std::string run_dir;
  /// Complete set-ups per invocation; setup_s is their median.  0 (the
  /// default) repeats until kSetupBudgetS have passed, at least
  /// kMinSetupReps and at most kMaxSetupReps times.
  int setup_reps = 0;
  /// daemon_small: generated designs per round.
  int daemon_designs = 160;
};

/// Facts of one flow run, taken from DesyncResult (in-process runs) or
/// from the daemon reply's full report.
struct FlowFacts {
  std::map<std::string, double> pass_ms;  ///< pass name -> wall_ms
  double passes_ms = 0.0;        ///< sum of pass wall_ms
  double work_ms = 0.0;          ///< sum of pass work_ms
  double parallel_wall_ms = 0.0; ///< wall_ms of passes with work_ms > 0
  std::int64_t ffs_replaced = 0;
  std::int64_t regions = 0;
  bool symfe_ran = false;
  std::int64_t registers = 0, proved = 0, refuted = 0, skipped = 0;
  std::int64_t restored = 0, trivial = 0, conflicts = 0, decisions = 0;
  bool protocol_admissible = true;
  core::FlowCacheStats cache;
  core::FlowReport::EcoSection eco;
  double pool_wait_ms = 0.0;
  std::uint64_t contended_sections = 0;
};

/// Extracts FlowFacts from an in-process flow result.
FlowFacts factsFrom(const core::DesyncResult& result);

/// One design run as the caller sees it.
struct RunRecord {
  bool ok = true;
  double wall_ms = 0.0;      ///< parse -> flow -> write -> teardown
  double cpu_ms = 0.0;       ///< process user+sys CPU over the run
  double parse_ms = 0.0, flow_ms = 0.0, write_ms = 0.0, teardown_ms = 0.0;
  std::size_t input_bytes = 0;
  std::int64_t cells_in = 0, cells_out = 0, nets_out = 0;
  FlowFacts facts;
  // daemon_small only
  double queue_ms = 0.0, service_ms = 0.0;
  std::size_t reply_bytes = 0;
};

/// Outputs compared byte for byte against a reference.
struct Outputs {
  std::string verilog;
  std::string sdc;
};

/// Result of one round: its records and, where runs overlap (daemon), the
/// round's process CPU time.
struct Round {
  std::vector<RunRecord> runs;
  /// Runs overlapped (daemon): CPU per run exists only per round.
  /// Otherwise each run is its own CPU sample.
  bool concurrent = false;
  double cpu_ms = 0.0;  ///< concurrent rounds only

  // Filled in by runRounds.  Without --trace the records are released once
  // these are taken, so the benchmark's own bookkeeping, which grows with
  // the number of runs, stays out of peak_rss_mb.
  bool traced = false;
  std::size_t attempted = 0;
  /// Wall of the whole round as the loop sees it: the runs, their checks
  /// and the loop's own bookkeeping.  Rounds tile the timed phase.
  double elapsed_ms = 0.0;
  std::vector<double> walls;  ///< wall (ms) of each verified run
  std::vector<double> cpu;    ///< CPU-per-run samples (ms)
};

/// Timing of one complete set-up.
struct SetupTiming {
  double total_s = 0.0;
  double lib_load_ms = 0.0;
  double gatefile_ms = 0.0;
};

/// A stdlib90 library and its gatefile, built with the two calls timed.
struct Lib {
  Lib(bool low_leakage, SetupTiming& timing);
  std::unique_ptr<liberty::Library> library;  ///< must outlive gatefile
  std::unique_ptr<liberty::Gatefile> gatefile;
};

/// Adds {"value": value, "unit": unit} as member `name` of `metrics`
/// (a non-finite value, e.g. a ratio of empty sums, reads 0).
void addMetric(server::Json& metrics, std::string name, double value,
               std::string unit);

/// What a workload hands back to main(): its per-round samples, set-up
/// timings, run-independent facts for the result file, and — for
/// daemon_small, whose netlist calls happen inside the server — the
/// layer records of its set-up reference pass and of its priming requests.
struct WorkloadResult {
  std::vector<Round> rounds;
  std::vector<SetupTiming> setups;
  std::vector<RunRecord> reference_runs;
  std::vector<RunRecord> priming_runs;
  server::Json meta = server::Json::object();
  std::vector<std::string> trace_files;
  int jobs = 0;  ///< effective worker count of each flow run
  /// Peak resident set (MiB) during the timed phase, and where it was read.
  double peak_rss_mb = 0.0;
  std::string peak_rss_source;
};

/// Runs whole rounds until `args.seconds` have passed (at least one, and
/// with --trace 1 at least one untraced and one traced), appending them to
/// res.rounds.  With --trace 1 every other round runs under
/// trace::start/finish, writing one trace file per traced round into
/// run_dir (listed in res.trace_files).  Settles the filesystem and resets
/// the resident-set high-water mark first, so res.peak_rss_mb covers the
/// timed phase only, not the heavier reference and priming work of set-up.
void runRounds(const Args& args, const std::function<Round()>& round,
               WorkloadResult& res);

/// Flushes the filesystem holding `dir` (syncfs), so writeback left by
/// earlier runs does not land inside a timed section.
void settleFilesystem(const std::string& dir);

/// Process user+sys CPU time in ms.
double cpuMs();
/// Milliseconds between two steady-clock readings.
double msBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b);

/// Default set-up repetitions: a short set-up is exposed to the host's
/// second-long slow phases, so it is repeated until its reps add up to
/// kSetupBudgetS; a long one runs kMinSetupReps times.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr double kSetupBudgetS = 2.5;

/// Runs `setup(rep, timing)` args.setup_reps times (or as the defaults
/// above say), timing each complete set-up, and keeps the last state
/// (earlier states are released before the next set-up starts).
template <typename State, typename Fn>
std::unique_ptr<State> repeatSetup(const Args& args,
                                   std::vector<SetupTiming>& timings,
                                   Fn&& setup) {
  std::unique_ptr<State> state;
  double total_s = 0.0;
  auto more = [&](int rep) {
    if (args.setup_reps > 0) return rep < args.setup_reps;
    return rep < kMinSetupReps ||
           (rep < kMaxSetupReps && total_s < kSetupBudgetS);
  };
  for (int rep = 0; more(rep); ++rep) {
    state.reset();
    settleFilesystem(args.run_dir);
    SetupTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    state = setup(rep, t);
    t.total_s = msBetween(t0, std::chrono::steady_clock::now()) / 1e3;
    total_s += t.total_s;
    timings.push_back(t);
  }
  return state;
}

/// One in-process design run: readVerilog -> desynchronize ->
/// writeVerilog + SdcFile::toText -> ~Design, each call timed and wrapped
/// in a trace span named after its metric.  The record carries the flow
/// facts (so callers can check the prover's verdicts); an exception marks
/// it failed.  `out` receives the outputs.  `inspect`, when set, sees the
/// flow result before teardown; its time is excluded from the run.
using Inspect =
    std::function<void(const core::DesyncResult&, const core::RunInfo&)>;
RunRecord runDesign(const liberty::Gatefile& gatefile, const std::string& text,
                    const std::string& top, const core::DesyncOptions& options,
                    Outputs& out, const Inspect& inspect = {});

/// Workload entry points (workloads.cpp, daemon.cpp).
WorkloadResult runColdDlx(const Args& args);
WorkloadResult runProveArm(const Args& args);
WorkloadResult runEcoArm(const Args& args);
WorkloadResult runDaemonSmall(const Args& args);

}  // namespace perfbench
