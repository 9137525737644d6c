#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "core/parallel.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

Lib::Lib(bool low_leakage, SetupTiming& timing) {
  const auto t0 = Clock::now();
  library = std::make_unique<liberty::Library>(liberty::makeStdLib90(
      low_leakage ? liberty::LibVariant::kLowLeakage
                  : liberty::LibVariant::kHighSpeed));
  const auto t1 = Clock::now();
  gatefile = std::make_unique<liberty::Gatefile>(*library);
  timing.lib_load_ms = msBetween(t0, t1);
  timing.gatefile_ms = msBetween(t1, Clock::now());
}

FlowFacts factsFrom(const core::DesyncResult& result) {
  FlowFacts f;
  for (const core::PassStat& p : result.flow.passes()) {
    f.pass_ms[p.name] += p.wall_ms;
    f.passes_ms += p.wall_ms;
    f.work_ms += p.work_ms;
    if (p.work_ms > 0.0) f.parallel_wall_ms += p.wall_ms;
  }
  f.ffs_replaced = static_cast<std::int64_t>(result.substitution.ffs_replaced);
  f.regions = result.regions.n_groups;
  if (result.symfe.ran) {
    const desync::sim::symfe::SymfeReport& r = result.symfe.report;
    f.symfe_ran = true;
    f.registers = static_cast<std::int64_t>(r.registers.size());
    f.proved = static_cast<std::int64_t>(r.proved);
    f.refuted = static_cast<std::int64_t>(r.refuted);
    f.skipped = static_cast<std::int64_t>(r.skipped);
    f.restored = static_cast<std::int64_t>(r.restored);
    f.conflicts = static_cast<std::int64_t>(r.conflicts);
    f.decisions = static_cast<std::int64_t>(r.decisions);
    f.protocol_admissible = r.protocol.admissible;
    for (const desync::sim::symfe::RegisterProof& p : r.registers) {
      if (p.trivial && p.verdict == desync::sim::symfe::RegVerdict::kProved) {
        ++f.trivial;
      }
    }
  }
  f.cache = result.flow.cacheStats();
  f.eco = result.flow.eco();
  return f;
}

RunRecord runDesign(const liberty::Gatefile& gatefile, const std::string& text,
                    const std::string& top, const core::DesyncOptions& options,
                    Outputs& out, const Inspect& inspect) {
  RunRecord rec;
  rec.input_bytes = text.size();
  const double cpu0 = cpuMs();
  const auto start = Clock::now();
  try {
    auto design = std::make_unique<netlist::Design>();
    std::optional<core::DesyncResult> result;
    const auto parse0 = Clock::now();
    {
      desync::trace::Span span("netlist.parse", "bench");
      netlist::readVerilog(*design, text, gatefile, {}, top);
    }
    const auto parse1 = Clock::now();
    netlist::Module* module = design->findModule(top);
    if (module == nullptr) throw std::runtime_error("no module " + top);
    core::RunInfo info;
    info.cells_in = module->numCells();
    const core::PoolStats pool0 = core::threadPoolStats();
    const auto flow0 = Clock::now();
    {
      desync::trace::Span span("core.flow", "bench");
      result.emplace(core::desynchronize(*design, *module, gatefile, options));
    }
    const auto flow1 = Clock::now();
    const core::PoolStats pool1 = core::threadPoolStats();
    info.cells_out = module->numCells();
    info.nets_out = module->numNets();
    const auto write0 = Clock::now();
    {
      desync::trace::Span span("netlist.write", "bench");
      out.verilog = netlist::writeVerilog(*design);
      out.sdc = result->sdc.toText();
    }
    const auto write1 = Clock::now();
    // Bookkeeping, excluded from the run: the caller would not do it.
    rec.facts = factsFrom(*result);
    rec.facts.contended_sections = pool1.contended - pool0.contended;
    rec.facts.pool_wait_ms = (pool1.wait_us - pool0.wait_us) / 1e3;
    if (inspect) inspect(*result, info);
    const auto teardown0 = Clock::now();
    {
      desync::trace::Span span("netlist.teardown", "bench");
      design.reset();
      result.reset();
    }
    const auto teardown1 = Clock::now();
    rec.cells_in = static_cast<std::int64_t>(info.cells_in);
    rec.cells_out = static_cast<std::int64_t>(info.cells_out);
    rec.nets_out = static_cast<std::int64_t>(info.nets_out);
    rec.parse_ms = msBetween(parse0, parse1);
    rec.flow_ms = msBetween(flow0, flow1);
    rec.write_ms = msBetween(write0, write1);
    rec.teardown_ms = msBetween(teardown0, teardown1);
    rec.wall_ms =
        msBetween(start, teardown1) - msBetween(write1, teardown0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run of %s failed: %s\n", top.c_str(),
                 e.what());
    rec.ok = false;
    rec.wall_ms = msBetween(start, Clock::now());
  }
  rec.cpu_ms = cpuMs() - cpu0;
  return rec;
}

void settleFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

namespace {

/// Resets the kernel's resident-set high-water mark of this process
/// (VmHWM) to its current resident set, after handing freed heap back to
/// the system.  False where /proc/self/clear_refs is not writable.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// VmHWM from /proc/self/status in MiB, or 0 when absent.
double highWaterMarkMb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(1 << 16, '\n');
  }
  return 0.0;
}

/// Whole-process peak (ru_maxrss) in MiB, set-up included.
double maxRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

void runRounds(const Args& args, const std::function<Round()>& round,
               WorkloadResult& res) {
  settleFilesystem(args.run_dir);
  const bool hwm = resetPeakRss() && highWaterMarkMb() > 0.0;
  const auto start = Clock::now();
  auto round_start = start;
  for (int r = 0;; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    std::string path;
    if (traced) {
      path = args.run_dir + "/trace-" + std::to_string(r) + ".json";
      desync::trace::start(path);
    }
    Round rd = round();
    if (traced) {
      desync::trace::finish();
      res.trace_files.push_back(path);
    }
    rd.traced = traced;
    rd.attempted = rd.runs.size();
    for (const RunRecord& run : rd.runs) {
      if (run.ok) rd.walls.push_back(run.wall_ms);
      if (!rd.concurrent) rd.cpu.push_back(run.cpu_ms);
    }
    if (rd.concurrent && rd.attempted > 0) {
      rd.cpu.push_back(rd.cpu_ms / static_cast<double>(rd.attempted));
    }
    if (!args.trace) std::vector<RunRecord>().swap(rd.runs);
    const auto now = Clock::now();
    rd.elapsed_ms = msBetween(round_start, now);
    round_start = now;
    res.rounds.push_back(std::move(rd));
    const bool both_kinds = !args.trace || r >= 1;
    if (both_kinds && msBetween(start, now) >= args.seconds * 1e3) break;
  }
  res.peak_rss_mb = hwm ? highWaterMarkMb() : maxRssMb();
  res.peak_rss_source = hwm ? "VmHWM, reset after set-up" : "ru_maxrss";
}

void addMetric(server::Json& metrics, std::string name, double value,
               std::string unit) {
  server::Json m = server::Json::object();
  m.set("value", server::Json::number(std::isfinite(value) ? value : 0.0));
  m.set("unit", server::Json::str(std::move(unit)));
  metrics.set(std::move(name), std::move(m));
}

}  // namespace perfbench
