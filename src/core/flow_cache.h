// FlowDB integration of the desynchronization flow.
//
// A FlowSession wraps one desynchronize() run.  With a cache directory it
// memoizes the whole flow as ONE entry.  The memo key hashes the snapshot
// format version, the tool version, the library name and fingerprint, the
// serialized input design and one fingerprint of every DesyncOptions
// field the seven passes read; --jobs never enters it, because the flow
// is deterministic across worker counts.  The payload is the final design
// snapshot plus encodeResult() of the DesyncResult.  restore() applies a
// hit, and the report then lists all seven passes with source "cache".
// On a miss desynchronize() runs the passes in order through runPass(),
// and finish() stores the memo once, after the last pass succeeded — a
// failed run stores nothing.  A corrupt, foreign or other-version entry is
// a miss with a diagnostic note: the run goes cold, never wrong.
//
// In --eco mode (FlowDbOptions::eco) the memo is bypassed: no design is
// serialized, and the session instead constructs an EcoContext
// (core/eco.h) under a guard key of configuration only (tool and library
// identity, the options fingerprint and the FE options).  The context
// diffs the input against per-object record tables and serves
// region-level restores to the pass bodies.  Every pass executes — the
// incrementality lives *inside* the passes, which skip the analysis work
// for clean regions.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "core/desync.h"
#include "flowdb/cache.h"
#include "flowdb/hash.h"

namespace desync::core {

class EcoContext;

/// The seven flow passes in desynchronize()'s order: the report rows of a
/// memo hit.
inline constexpr std::array<const char*, 7> kFlowPasses = {
    "reference_sta",    "region_grouping", "ff_substitution",
    "dependency_graph", "region_timing",   "control_network",
    "sdc_generation"};

/// Encodes every DesyncResult field except `flow` as a FlowDB byte blob.
[[nodiscard]] std::string encodeResult(const DesyncResult& result);
/// Inverse of encodeResult; throws flowdb::FlowDbError on malformed input.
void decodeResult(std::string_view blob, DesyncResult& result);

/// One desynchronize() run's view of the FlowDB cache.  With an empty
/// cache_dir the session is inert: restore() misses, runPass() just times
/// and runs the bodies, finish() does nothing.
class FlowSession {
 public:
  FlowSession(netlist::Design& design, netlist::Module& module,
              const liberty::Gatefile& gatefile, const DesyncOptions& options,
              DesyncResult& result);
  ~FlowSession();  // out of line: EcoContext is incomplete here

  /// Restores the whole flow from its memo entry.  True on a hit: the
  /// design and the result hold the final state and the report lists
  /// every pass as "cache".  False (cache off, --eco, absent or invalid
  /// entry): the caller runs the passes.
  [[nodiscard]] bool restore();

  /// Runs one pass body under its ScopedPass.  An exception from the body
  /// is rethrown as FlowError carrying the partial FlowReport.
  template <typename Body>
  void runPass(const char* name, Body&& body) {
    try {
      ScopedPass scoped(result_.flow, name);
      body(scoped);
    } catch (const FlowError&) {
      throw;
    } catch (const std::exception& e) {
      // ~ScopedPass already appended the failing pass's stat.
      throw FlowError(name, result_.flow, e.what());
    }
    passDone();
  }

  /// Stores the memo after a computed run and publishes FlowCacheStats;
  /// call once, after the seven passes succeeded or restore() hit.
  void finish();

  /// The incremental-recompute context of an --eco run; nullptr otherwise
  /// (plain runs, no cache directory).  Pass bodies use it for region keys
  /// and restore queries.
  [[nodiscard]] EcoContext* eco() { return eco_.get(); }

  /// Stores the updated ECO tables and publishes the "eco" report section;
  /// call after the flow-equivalence checks.  No-op outside --eco mode.
  void ecoFinish();

 private:
  void passDone();

  netlist::Design& design_;
  const liberty::Gatefile& gatefile_;
  DesyncResult& result_;

  std::unique_ptr<flowdb::PassCache> cache_;
  std::unique_ptr<EcoContext> eco_;
  /// Key of the whole-flow memo entry; unused in --eco mode.
  flowdb::CacheKey memo_key_;
  bool restored_ = false;
  double restore_ms_ = 0.0;
  double compute_ms_ = 0.0;
};

}  // namespace desync::core
