// The three single-caller workloads: cold_dlx, prove_arm and eco_arm.
//
// Each one builds its case-study netlist in set-up, serializes it to
// Verilog (the program only ever sees that text), computes its reference
// outputs independently of the timed configuration, and then runs the
// timed configuration in whole rounds, checking every run's Verilog, SDC
// and prover verdicts against the reference.
#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common.h"
#include "core/parallel.h"
#include "designs/cpu.h"
#include "dft/scan.h"
#include "fuzz/rng.h"
#include "netlist/verilog.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// The paper's DLX regions: the four pipeline stages (thesis §5.2).
std::vector<std::vector<std::string>> dlxStageRegions() {
  return {{"pc_", "ifid_"}, {"idex_"}, {"exmem_", "red_"}, {"rf_", "dmem_"}};
}

/// Builds a case-study CPU, inserts the scan chain and returns the design
/// as Verilog text.
std::string scanDesignText(const desync::designs::CpuConfig& config,
                           const liberty::Gatefile& gatefile) {
  netlist::Design design;
  netlist::Module& module =
      desync::designs::buildCpu(design, gatefile, config);
  desync::dft::insertScan(module, gatefile);
  return netlist::writeVerilog(design);
}

core::DesyncOptions dlxOptions() {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.manual_seq_groups = dlxStageRegions();
  return opt;
}

/// ARM-class as in the paper (§5.3): one region, scan_en a false path.
core::DesyncOptions armOptions(core::FeMode mode) {
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.manual_seq_groups = {{""}};
  opt.grouping.false_path_nets = {"scan_en"};
  opt.fe.mode = mode;
  return opt;
}

/// A proved run: every register proved, none refuted or skipped, and the
/// handshake protocol admissible.
bool allProved(const FlowFacts& f) {
  return f.symfe_ran && f.registers > 0 && f.proved == f.registers &&
         f.refuted == 0 && f.skipped == 0 && f.protocol_admissible;
}

bool sameOutputs(const Outputs& a, const Outputs& b) {
  return a.verilog == b.verilog && a.sdc == b.sdc;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("set-up check failed: " + what);
}

Round singleRun(RunRecord rec) {
  Round round;
  round.runs.push_back(std::move(rec));
  return round;
}

server::Json caseStudyMeta(const desync::designs::CpuConfig& config,
                           const char* library, std::size_t input_bytes) {
  server::Json meta = server::Json::object();
  meta.set("design", server::Json::str(config.name));
  meta.set("library", server::Json::str(library));
  meta.set("input_bytes",
           server::Json::number(static_cast<double>(input_bytes)));
  return meta;
}

}  // namespace

// --- cold_dlx -------------------------------------------------------------

WorkloadResult runColdDlx(const Args& args) {
  struct State {
    std::unique_ptr<Lib> lib;
    std::string text;
    Outputs reference;
    std::int64_t registers = 0;
  };
  WorkloadResult res;
  const desync::designs::CpuConfig config = desync::designs::dlxConfig();
  auto state = repeatSetup<State>(args, res.setups, [&](int, SetupTiming& t) {
    auto s = std::make_unique<State>();
    s->lib = std::make_unique<Lib>(false, t);
    s->text = scanDesignText(config, *s->lib->gatefile);
    // Reference: the same design under the prover.  Its outputs must equal
    // the FE-off runs' outputs byte for byte.
    core::DesyncOptions opt = dlxOptions();
    opt.fe.mode = core::FeMode::kProve;
    const RunRecord ref =
        runDesign(*s->lib->gatefile, s->text, config.name, opt, s->reference);
    require(ref.ok && allProved(ref.facts), "DLX reference prove run");
    s->registers = ref.facts.registers;
    return s;
  });

  const core::DesyncOptions opt = dlxOptions();
  runRounds(args, [&] {
    Outputs out;
    RunRecord rec =
        runDesign(*state->lib->gatefile, state->text, config.name, opt, out);
    rec.ok = rec.ok && sameOutputs(out, state->reference);
    return singleRun(std::move(rec));
  }, res);

  res.jobs = core::effectiveJobs();
  res.meta = caseStudyMeta(config, "builtin:hs", state->text.size());
  res.meta.set("reference_registers_proved",
               server::Json::number(static_cast<double>(state->registers)));
  return res;
}

// --- prove_arm ------------------------------------------------------------

WorkloadResult runProveArm(const Args& args) {
  struct State {
    std::unique_ptr<Lib> lib;
    std::string text;
    Outputs reference;
  };
  WorkloadResult res;
  const desync::designs::CpuConfig config = desync::designs::armClassConfig();
  auto state = repeatSetup<State>(args, res.setups, [&](int, SetupTiming& t) {
    auto s = std::make_unique<State>();
    s->lib = std::make_unique<Lib>(true, t);
    s->text = scanDesignText(config, *s->lib->gatefile);
    // Reference: the flow without any FE check; the prover must not change
    // a byte of the output.
    const RunRecord ref =
        runDesign(*s->lib->gatefile, s->text, config.name,
                  armOptions(core::FeMode::kSim), s->reference);
    require(ref.ok, "ARM-class reference run");
    return s;
  });

  const core::DesyncOptions opt = armOptions(core::FeMode::kProve);
  runRounds(args, [&] {
    Outputs out;
    RunRecord rec =
        runDesign(*state->lib->gatefile, state->text, config.name, opt, out);
    rec.ok = rec.ok && allProved(rec.facts) &&
             sameOutputs(out, state->reference);
    return singleRun(std::move(rec));
  }, res);

  res.jobs = core::effectiveJobs();
  res.meta = caseStudyMeta(config, "builtin:ll", state->text.size());
  return res;
}

// --- eco_arm --------------------------------------------------------------

namespace {

constexpr int kRevisions = 6;  ///< edited revisions cycled per round
constexpr int kEditsPerRevision = 5;
/// Seed of the revision pool.  The pool is fixed because a revision's cost
/// depends on which registers it hits: with pools drawn from --seed, CPU per
/// run differed up to 1.8x between seeds, so runs of different seeds
/// measured different work.  --seed orders the cycle instead, which changes
/// every run's diff.
constexpr std::uint64_t kPoolSeed = 1;

/// Registers whose data input is a single-sink net coming straight from a
/// combinational cell's output: inserting an inverter there dirties one
/// register's input cone (bench_eco's scripted polarity fix).  In cell
/// order of the registers.
std::vector<std::string> editSites(const netlist::Module& m,
                                   const liberty::Gatefile& gf) {
  std::vector<netlist::CellId> ffs;
  m.forEachCell([&](netlist::CellId c) {
    if (gf.kind(m.cellType(c)) != liberty::CellKind::kCombinational) return;
    for (const netlist::PinConn& pin : m.cell(c).pins) {
      if (pin.dir != netlist::PortDir::kOutput || !pin.net.valid()) continue;
      const netlist::Net& n = m.net(pin.net);
      if (n.sinks.size() != 1 || !n.sinks.front().isCellPin()) continue;
      const netlist::CellId ff = n.sinks.front().cell();
      if (!gf.isFlipFlop(m.cellType(ff))) continue;
      const liberty::SeqClass* sc = gf.seqClass(m.cellType(ff));
      if (sc != nullptr && !sc->data_pin.empty() &&
          m.pinNet(ff, sc->data_pin) == pin.net) {
        ffs.push_back(ff);
      }
    }
  });
  std::sort(ffs.begin(), ffs.end());
  std::vector<std::string> sites;
  for (netlist::CellId ff : ffs) sites.emplace_back(m.cellName(ff));
  return sites;
}

/// Revision `rev` of the base design: inverters in front of the data pins
/// of kEditsPerRevision registers drawn from kPoolSeed.
std::string editedRevision(const std::string& base_text,
                           const std::string& top,
                           const liberty::Gatefile& gf, int rev) {
  netlist::Design design;
  netlist::readVerilog(design, base_text, gf, {}, top);
  netlist::Module& m = *design.findModule(top);
  std::vector<std::string> sites = editSites(m, gf);
  if (sites.size() < static_cast<std::size_t>(kEditsPerRevision)) {
    throw std::runtime_error("too few ECO edit sites");
  }
  desync::fuzz::Rng rng{kPoolSeed * 1000003u + static_cast<std::uint64_t>(rev)};
  for (int e = 0; e < kEditsPerRevision; ++e) {
    // Partial Fisher-Yates: the first kEditsPerRevision slots are distinct.
    const std::size_t j =
        static_cast<std::size_t>(e) +
        static_cast<std::size_t>(rng.below(sites.size() - e));
    std::swap(sites[static_cast<std::size_t>(e)], sites[j]);
    const netlist::CellId ff = m.findCell(sites[static_cast<std::size_t>(e)]);
    const liberty::SeqClass* sc = gf.seqClass(m.cellType(ff));
    const netlist::NetId d = m.pinNet(ff, sc->data_pin);
    const std::string base =
        "eco_r" + std::to_string(rev) + "_" + std::to_string(e);
    const netlist::NetId z = m.addNet(base + "_z");
    m.addCell(base + "_inv", "IV",
              {{"A", netlist::PortDir::kInput, d},
               {"Z", netlist::PortDir::kOutput, z}});
    m.connectPin(ff, m.findPin(ff, sc->data_pin), z);
  }
  return netlist::writeVerilog(design);
}

}  // namespace

WorkloadResult runEcoArm(const Args& args) {
  struct State {
    std::unique_ptr<Lib> lib;
    std::vector<std::string> revisions;
    std::vector<Outputs> references;
    std::string cache_dir;
  };
  WorkloadResult res;
  const desync::designs::CpuConfig config = desync::designs::armClassConfig();
  auto ecoOptions = [&](const std::string& cache_dir) {
    core::DesyncOptions opt = armOptions(core::FeMode::kProve);
    opt.flowdb.cache_dir = cache_dir;
    opt.flowdb.eco = true;
    return opt;
  };
  auto state = repeatSetup<State>(args, res.setups, [&](int rep,
                                                        SetupTiming& t) {
    auto s = std::make_unique<State>();
    s->lib = std::make_unique<Lib>(true, t);
    const liberty::Gatefile& gf = *s->lib->gatefile;
    const std::string base = scanDesignText(config, gf);
    // The cycle: the pool's revisions in an order drawn from --seed.
    for (int r = 0; r < kRevisions; ++r) {
      s->revisions.push_back(editedRevision(base, config.name, gf, r));
    }
    desync::fuzz::Rng order{args.seed};
    for (std::size_t i = s->revisions.size() - 1; i > 0; --i) {
      std::swap(s->revisions[i], s->revisions[order.below(i + 1)]);
    }
    // References: each revision cold, FlowDB off, no FE check.
    for (const std::string& text : s->revisions) {
      Outputs ref;
      const RunRecord rec = runDesign(gf, text, config.name,
                                      armOptions(core::FeMode::kSim), ref);
      require(rec.ok, "ARM-class revision reference run");
      s->references.push_back(std::move(ref));
    }
    // Priming: a cold ECO run of the base design stores the tables, then
    // the last revision, so the first timed run diffs against it exactly
    // as every later round does.
    s->cache_dir = args.run_dir + "/eco-" + std::to_string(rep);
    fs::remove_all(s->cache_dir);
    Outputs out;
    const RunRecord cold = runDesign(gf, base, config.name,
                                     ecoOptions(s->cache_dir), out);
    require(cold.ok && allProved(cold.facts), "ECO priming run");
    const RunRecord last =
        runDesign(gf, s->revisions.back(), config.name,
                  ecoOptions(s->cache_dir), out);
    require(last.ok && allProved(last.facts) &&
                sameOutputs(out, s->references.back()),
            "ECO priming revision");
    return s;
  });

  const core::DesyncOptions opt = ecoOptions(state->cache_dir);
  runRounds(args, [&] {
    Round round;
    for (int r = 0; r < kRevisions; ++r) {
      Outputs out;
      RunRecord rec =
          runDesign(*state->lib->gatefile,
                    state->revisions[static_cast<std::size_t>(r)],
                    config.name, opt, out);
      rec.ok = rec.ok && allProved(rec.facts) &&
               sameOutputs(out, state->references[static_cast<std::size_t>(r)]);
      round.runs.push_back(std::move(rec));
    }
    return round;
  }, res);

  res.jobs = core::effectiveJobs();
  std::size_t input_bytes = 0;
  for (const std::string& text : state->revisions) input_bytes += text.size();
  res.meta = caseStudyMeta(config, "builtin:ll",
                           input_bytes / state->revisions.size());
  res.meta.set("revisions", server::Json::number(kRevisions));
  res.meta.set("edits_per_revision", server::Json::number(kEditsPerRevision));
  res.meta.set("pool_seed", server::Json::number(kPoolSeed));
  res.meta.set("order_seed",
               server::Json::number(static_cast<double>(args.seed)));
  res.meta.set("cache_dir", server::Json::str(state->cache_dir));
  return res;
}

}  // namespace perfbench
