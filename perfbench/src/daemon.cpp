// daemon_small: an in-process drdesyncd on a Unix socket, two handler
// threads and a shared FlowDB cache directory, driven by two client
// connections in a closed loop at jobs 1, the process confined to two CPUs.
//
// After set-up, a priming round sends every generated design once through
// the server: that first send misses the cache and stores the design's
// pass entries.  Each timed round then sends every design again (designs
// are handed out from a shared cursor), so the timed requests restore from
// the cache, and every round's counts are identical.  Every reply, the
// priming ones included, is checked against a sequential in-process
// reference made in set-up with the same public calls drdesync makes:
// Verilog, SDC and the canonical report fields.
//
// The priming round is timed on its own (server.cold_request_ms), not as
// part of setup_s: its cost is dominated by file creation in the cache
// directory, which on a disk-backed checkout varies with the filesystem's
// state far more than with the program.
#include <sched.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/parallel.h"
#include "fuzz/generator.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace/trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kConnections = 2;
constexpr int kHandlers = 2;
constexpr int kRequestJobs = 1;

/// Confines the process (and every thread it starts from now on) to its
/// first kHandlers allowed CPUs, and returns how many CPUs it runs on.
/// Each request hops client -> reader -> handler -> client; spread over
/// all CPUs, most hops wake an idle CPU, and on a virtual machine that
/// wake-up waits for the host's scheduler, so throughput followed the
/// host's load rather than the program.  On as many CPUs as handlers the
/// hops mostly land on a CPU that is already running.
int confineToHandlerCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  if (CPU_COUNT(&allowed) <= kHandlers) return CPU_COUNT(&allowed);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < kHandlers; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &mine);
    ++n;
  }
  if (sched_setaffinity(0, sizeof mine, &mine) != 0) {
    return CPU_COUNT(&allowed);
  }
  return kHandlers;
}

/// The flow options of every request.  The margin is sent explicitly:
/// the protocol's default (0.10) is not the flow's default multiplier
/// (ControlNetworkOptions::margin, 1.15), and the workload should run the
/// delay elements drdesync itself would build.
core::DesyncOptions requestOptions() {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  return opt;
}

struct DaemonDesign {
  std::uint64_t seed = 0;
  server::Request request;
  Outputs reference;
  server::Json canonical;  ///< reference canonical report, parsed
};

struct State {
  std::unique_ptr<Lib> lib;
  std::vector<DaemonDesign> designs;
  std::vector<RunRecord> reference_runs;
  std::string cache_dir;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<server::Client>> clients;
  ~State() {
    clients.clear();
    if (server) server->stop();
  }
};

/// FlowFacts from the "report" object of a full-report reply.
FlowFacts factsFromReport(const server::Json& report) {
  FlowFacts f;
  f.ffs_replaced =
      static_cast<std::int64_t>(report.getNumber("ffs_replaced", 0));
  f.regions = static_cast<std::int64_t>(report.getNumber("regions", 0));
  const server::Json* flow = report.find("flow");
  if (flow == nullptr) return f;
  if (const server::Json* passes = flow->find("passes")) {
    for (const server::Json& p : passes->asArray()) {
      const double wall = p.getNumber("wall_ms", 0.0);
      const double work = p.getNumber("work_ms", 0.0);
      f.pass_ms[p.getString("name", "")] += wall;
      f.passes_ms += wall;
      f.work_ms += work;
      if (work > 0.0) f.parallel_wall_ms += wall;
    }
  }
  if (const server::Json* c = flow->find("cache")) {
    f.cache.enabled = true;
    f.cache.hits = static_cast<std::uint64_t>(c->getNumber("hits", 0));
    f.cache.misses = static_cast<std::uint64_t>(c->getNumber("misses", 0));
    f.cache.bytes_read =
        static_cast<std::uint64_t>(c->getNumber("bytes_read", 0));
    f.cache.bytes_written =
        static_cast<std::uint64_t>(c->getNumber("bytes_written", 0));
    f.cache.restore_ms = c->getNumber("restore_ms", 0.0);
    f.cache.compute_ms = c->getNumber("compute_ms", 0.0);
  }
  if (const server::Json* pool = flow->find("pool")) {
    f.contended_sections = static_cast<std::uint64_t>(
        pool->getNumber("contended_sections", 0));
    f.pool_wait_ms = pool->getNumber("wait_ms", 0.0);
  }
  return f;
}

/// True when every field of the reference canonical report appears in
/// `report` with the same serialization.
bool canonicalMatches(const server::Json& canonical,
                      const server::Json& report) {
  for (const auto& [key, value] : canonical.asObject()) {
    const server::Json* got = report.find(key);
    if (got == nullptr || got->dump() != value.dump()) return false;
  }
  return true;
}

/// Checks one reply against its design's reference and records it.
RunRecord checkReply(const DaemonDesign& d, const std::string& line,
                     double latency_ms) {
  RunRecord rec;
  rec.wall_ms = latency_ms;
  rec.reply_bytes = line.size();
  rec.input_bytes = d.request.design.size();
  try {
    const server::Json reply = server::Json::parse(line);
    const server::Json* report = reply.find("report");
    rec.ok = reply.getBool("ok", false) && report != nullptr &&
             reply.getString("verilog", "") == d.reference.verilog &&
             reply.getString("sdc", "") == d.reference.sdc &&
             canonicalMatches(d.canonical, *report);
    rec.queue_ms = reply.getNumber("queue_ms", 0.0);
    rec.service_ms = reply.getNumber("service_ms", 0.0);
    if (report != nullptr) {
      rec.facts = factsFromReport(*report);
      rec.cells_in =
          static_cast<std::int64_t>(report->getNumber("cells_in", 0));
      rec.cells_out =
          static_cast<std::int64_t>(report->getNumber("cells_out", 0));
      rec.nets_out =
          static_cast<std::int64_t>(report->getNumber("nets_out", 0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad reply for %s: %s\n",
                 d.request.name.c_str(), e.what());
    rec.ok = false;
  }
  if (!rec.ok) {
    std::fprintf(stderr, "perfbench: reply for %s does not match the "
                 "reference\n", d.request.name.c_str());
  }
  return rec;
}

/// Sends every design once over the client connections in a closed loop
/// and checks every reply (after the clock stops).
Round sendRound(State& state) {
  struct Sent {
    std::size_t design = 0;
    double latency_ms = 0.0;
    std::string reply;
  };
  std::atomic<std::size_t> cursor{0};
  std::vector<std::vector<Sent>> sent(kConnections);
  std::vector<std::string> errors(kConnections);
  const double cpu0 = cpuMs();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        server::Client& client = *state.clients[c];
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= state.designs.size()) break;
          Sent s;
          s.design = i;
          const auto begin = Clock::now();
          {
            desync::trace::Span span("server.request", "bench");
            client.sendLine(server::requestLine(state.designs[i].request));
            s.reply = client.recvLine();
          }
          s.latency_ms = msBetween(begin, Clock::now());
          sent[c].push_back(std::move(s));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Round round;
  round.concurrent = true;
  round.cpu_ms = cpuMs() - cpu0;
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("daemon client: " + e);
  }
  for (const std::vector<Sent>& per_connection : sent) {
    for (const Sent& s : per_connection) {
      RunRecord rec =
          checkReply(state.designs[s.design], s.reply, s.latency_ms);
      rec.cpu_ms = round.cpu_ms / static_cast<double>(state.designs.size());
      round.runs.push_back(std::move(rec));
    }
  }
  return round;
}

std::unique_ptr<State> setUp(const Args& args, int rep, SetupTiming& t) {
  auto s = std::make_unique<State>();
  s->lib = std::make_unique<Lib>(false, t);
  const liberty::Gatefile& gf = *s->lib->gatefile;
  // The reference runs at the requests' worker count: on designs this
  // small, handing each parallel section to a pool costs more than it saves
  // and makes set-up follow the host's thread wake-up latency.
  const core::JobsScope jobs(kRequestJobs);
  for (int i = 0; i < args.daemon_designs; ++i) {
    DaemonDesign d;
    d.seed = args.seed * 1000u + static_cast<std::uint64_t>(i);
    server::Request& req = d.request;
    req.id = static_cast<std::uint64_t>(i);
    req.name = "fz_s" + std::to_string(d.seed);  // the generated module
    req.design = desync::fuzz::generateVerilog(gf, d.seed, {});
    req.reset_port = "rst_n";
    req.reset_active_low = true;
    req.margin = requestOptions().control.margin;
    req.jobs = kRequestJobs;
    req.report = server::ReportMode::kFull;
    // Sequential reference, independent of the server code path.
    std::string canonical;
    RunRecord rec = runDesign(
        gf, req.design, req.name, requestOptions(), d.reference,
        [&](const core::DesyncResult& r, const core::RunInfo& info) {
          core::RunInfo named = info;
          named.input = req.name;  // the service reports the track name
          canonical =
              server::flattenJson(core::canonicalRunReportJson(named, r));
        });
    if (!rec.ok) {
      throw std::runtime_error("reference run of " + req.name + " failed");
    }
    d.canonical = server::Json::parse(canonical);
    s->reference_runs.push_back(std::move(rec));
    s->designs.push_back(std::move(d));
  }

  s->cache_dir = args.run_dir + "/flowdb-" + std::to_string(rep);
  fs::remove_all(s->cache_dir);
  server::ServerOptions so;
  so.service.lib = "builtin:hs";
  so.service.cache_dir = s->cache_dir;
  so.handlers = kHandlers;
  so.socket_path = args.run_dir + "/daemon-" + std::to_string(rep) + ".sock";
  s->server = std::make_unique<server::Server>(so);
  s->server->start();
  for (int c = 0; c < kConnections; ++c) {
    s->clients.push_back(std::make_unique<server::Client>(so.socket_path));
  }
  return s;
}

}  // namespace

WorkloadResult runDaemonSmall(const Args& args) {
  WorkloadResult res;
  const int cpus = confineToHandlerCpus();
  auto state = repeatSetup<State>(args, res.setups, [&](int rep,
                                                        SetupTiming& t) {
    return setUp(args, rep, t);
  });

  // Priming: each design's first send stores its pass entries.
  settleFilesystem(args.run_dir);
  const auto prime0 = Clock::now();
  res.priming_runs = sendRound(*state).runs;
  const double priming_s = msBetween(prime0, Clock::now()) / 1e3;
  for (const RunRecord& r : res.priming_runs) {
    if (!r.ok) throw std::runtime_error("daemon priming round failed");
  }

  runRounds(args, [&] { return sendRound(*state); }, res);

  res.reference_runs = state->reference_runs;
  res.jobs = kRequestJobs;
  server::Json seeds = server::Json::array();
  for (const DaemonDesign& d : state->designs) {
    seeds.push(server::Json::number(static_cast<double>(d.seed)));
  }
  res.meta.set("library", server::Json::str("builtin:hs"));
  res.meta.set("designs", server::Json::number(
                              static_cast<double>(state->designs.size())));
  res.meta.set("connections", server::Json::number(kConnections));
  res.meta.set("handlers", server::Json::number(kHandlers));
  res.meta.set("request_jobs", server::Json::number(kRequestJobs));
  res.meta.set("cpus", server::Json::number(cpus));
  res.meta.set("design_seeds", std::move(seeds));
  res.meta.set("cache_dir", server::Json::str(state->cache_dir));
  res.meta.set("priming_s", server::Json::number(priming_s));
  return res;
}

}  // namespace perfbench
