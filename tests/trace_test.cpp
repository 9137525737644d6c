// Tests for the src/trace flow tracer (docs/trace-format.md).
//
// One shared fixture runs the pipe2 desynchronization flow four times —
// traced and untraced, at --jobs 4 and --jobs 1 — and the tests check the
// two contracts of the tracer:
//   - the emitted file is well-formed Chrome trace_event JSON: every "B"
//     has a matching same-name "E" on the same track, timestamps are
//     monotonic per track, the worker-track count equals --jobs - 1 (the
//     caller is the "flow" track), all seven passes appear as
//     "pass"-category spans and the cache / counter events exist;
//   - tracing never changes flow output: the Verilog and SDC text is
//     byte-identical across all four runs.
//
// The traced --jobs 4 run executes FIRST in this binary: the process-wide
// pool grows but never shrinks, so running it first pins the worker count
// (and therefore the trace's worker-track count) to exactly jobs - 1.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/desync.h"
#include "core/parallel.h"
#include "designs/small.h"
#include "liberty/stdlib90.h"
#include "netlist/verilog.h"
#include "trace/trace.h"

namespace core = desync::core;
namespace designs = desync::designs;
namespace lib = desync::liberty;
namespace nl = desync::netlist;
namespace trace = desync::trace;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — enough to load a trace_event file into a tree.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;

  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<JsonObject>(v);
  }
  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  /// Member lookup; fails the test (and returns a null) when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    static const JsonValue null{nullptr};
    const JsonObject& o = object();
    auto it = o.find(key);
    if (it == o.end()) {
      ADD_FAILURE() << "missing JSON key: " << key;
      return null;
    }
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return isObject() && object().count(key) > 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skipWs();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    pos_ = s_.size();  // stop consuming
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  JsonValue value() {
    skipWs();
    switch (peek()) {
      case '{':
        return objectValue();
      case '[':
        return arrayValue();
      case '"':
        return JsonValue{stringValue()};
      case 't':
        return literal("true", JsonValue{true});
      case 'f':
        return literal("false", JsonValue{false});
      case 'n':
        return literal("null", JsonValue{nullptr});
      default:
        return numberValue();
    }
  }

  JsonValue literal(std::string_view word, JsonValue v) {
    if (s_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  JsonValue objectValue() {
    consume('{');
    JsonObject obj;
    skipWs();
    if (consume('}')) return JsonValue{std::move(obj)};
    for (;;) {
      skipWs();
      std::string key = stringValue();
      skipWs();
      if (!consume(':')) fail("expected ':'");
      obj.emplace(std::move(key), value());
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}'");
      break;
    }
    return JsonValue{std::move(obj)};
  }

  JsonValue arrayValue() {
    consume('[');
    JsonArray arr;
    skipWs();
    if (consume(']')) return JsonValue{std::move(arr)};
    for (;;) {
      arr.push_back(value());
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']'");
      break;
    }
    return JsonValue{std::move(arr)};
  }

  std::string stringValue() {
    if (!consume('"')) {
      fail("expected string");
      return {};
    }
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            pos_ += 4;  // tests never inspect escaped control chars
            out += '?';
            break;
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  JsonValue numberValue() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
      return JsonValue{nullptr};
    }
    return JsonValue{std::stod(std::string(s_.substr(start, pos_ - start)))};
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Fixture: four flow runs, one trace file per traced run.

constexpr int kJobs = 4;

const lib::Gatefile& gf() {
  static const lib::Library l = lib::makeStdLib90(lib::LibVariant::kHighSpeed);
  static const lib::Gatefile g(l);
  return g;
}

struct FlowOutput {
  std::string verilog;
  std::string sdc;
};

/// Builds a fresh pipe2 and runs the full flow under the given settings.
FlowOutput runFlow(int jobs, const std::string& cache_dir) {
  nl::Design design;
  designs::buildPipe2(design, gf(), 6);
  nl::Module& module = *design.findModule("pipe2");
  core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  opt.flowdb.cache_dir = cache_dir;
  core::setThreadJobs(jobs);
  core::DesyncResult result = core::desynchronize(design, module, gf(), opt);
  core::setThreadJobs(0);
  return FlowOutput{nl::writeVerilog(design), result.sdc.toText()};
}

struct Fixture {
  FlowOutput traced_j4, traced_j1, plain_j4, plain_j1;
  JsonValue trace_j4;   ///< parsed trace of the --jobs 4 run
  std::string trace_j4_error;
  trace::Summary summary_j4;
};

Fixture& fixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture;
    // Per-process dir: ctest discovery runs each TEST as its own process,
    // concurrently under -j, and each process rebuilds this fixture — a
    // shared path would be remove_all'd under a sibling's feet.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("desync_trace_test_" +
         std::to_string(static_cast<long>(::getpid())));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // Traced --jobs 4 run first: pins the pool (and the trace's worker
    // tracks) to exactly kJobs - 1 workers.  A fresh cache dir makes the
    // flowdb probe/store events appear in the trace.
    const std::string trace_path = (dir / "j4.trace.json").string();
    trace::start(trace_path);
    fx->traced_j4 = runFlow(kJobs, (dir / "cache").string());
    fx->summary_j4 = trace::finish();

    trace::start((dir / "j1.trace.json").string());
    fx->traced_j1 = runFlow(1, "");
    trace::finish();

    fx->plain_j4 = runFlow(kJobs, "");
    fx->plain_j1 = runFlow(1, "");

    std::ifstream in(trace_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    JsonParser parser(text);
    fx->trace_j4 = parser.parse();
    fx->trace_j4_error = parser.error();
    return fx;
  }();
  return *f;
}

/// The traceEvents array of the --jobs 4 trace.
const JsonArray& events() {
  const JsonValue& root = fixture().trace_j4;
  static const JsonArray empty;
  if (!root.isObject() || !root.has("traceEvents")) return empty;
  return root.at("traceEvents").array();
}

}  // namespace

TEST(Trace, FileIsValidJson) {
  Fixture& fx = fixture();
  EXPECT_TRUE(fx.trace_j4_error.empty()) << fx.trace_j4_error;
  ASSERT_TRUE(fx.trace_j4.isObject());
  ASSERT_TRUE(fx.trace_j4.has("traceEvents"));
  EXPECT_GT(events().size(), 0u);
}

TEST(Trace, EveryBeginHasMatchingEndPerTrack) {
  std::map<double, std::vector<std::string>> open;  // tid -> span-name stack
  for (const JsonValue& e : events()) {
    const std::string& ph = e.at("ph").str();
    const double tid = e.at("tid").num();
    if (ph == "B") {
      open[tid].push_back(e.at("name").str());
    } else if (ph == "E") {
      ASSERT_FALSE(open[tid].empty()) << "E without B on tid " << tid;
      EXPECT_EQ(open[tid].back(), e.at("name").str()) << "tid " << tid;
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on tid " << tid
        << " (innermost: " << (stack.empty() ? "" : stack.back()) << ")";
  }
}

TEST(Trace, TimestampsMonotonicPerTrack) {
  std::map<double, double> last;
  for (const JsonValue& e : events()) {
    const std::string& ph = e.at("ph").str();
    if (ph == "M") continue;  // metadata carries no meaningful timestamp
    const double tid = e.at("tid").num();
    const double ts = e.at("ts").num();
    auto it = last.find(tid);
    if (it != last.end()) {
      EXPECT_GE(ts, it->second) << "tid " << tid << " event " << e.at("name").str();
    }
    last[tid] = ts;
  }
}

TEST(Trace, WorkerTrackCountMatchesJobs) {
  int workers = 0;
  bool flow_track = false;
  for (const JsonValue& e : events()) {
    if (e.at("ph").str() != "M" || e.at("name").str() != "thread_name") {
      continue;
    }
    const std::string& name = e.at("args").at("name").str();
    if (name.rfind("worker-", 0) == 0) ++workers;
    if (name == "flow") flow_track = true;
  }
  // The caller thread is the "flow" track, so a --jobs N section executes
  // on N tracks: flow + N-1 pool workers.
  EXPECT_EQ(workers, kJobs - 1);
  EXPECT_TRUE(flow_track);
  EXPECT_EQ(fixture().summary_j4.worker_tracks, kJobs - 1);
}

TEST(Trace, AllSevenPassesTraced) {
  std::vector<std::string> passes;
  for (const JsonValue& e : events()) {
    if (e.at("ph").str() == "B" && e.has("cat") && e.at("cat").str() == "pass") {
      passes.push_back(e.at("name").str());
    }
  }
  const std::vector<std::string> expected = {
      "reference_sta",   "region_grouping", "ff_substitution",
      "dependency_graph", "region_timing",  "control_network",
      "sdc_generation"};
  EXPECT_EQ(passes, expected);
}

TEST(Trace, ParallelCacheAndCounterEventsPresent) {
  bool parallel_for = false, parallel_run = false, cache_probe = false,
       cache_store = false;
  std::vector<std::string> counters;
  for (const JsonValue& e : events()) {
    const std::string& name = e.at("name").str();
    const std::string& ph = e.at("ph").str();
    if (ph == "B" || ph == "E") {
      if (name == "parallel_for") parallel_for = true;
      if (name == "parallel_run") parallel_run = true;
      if (name == "cache_probe") cache_probe = true;
      if (name == "cache_store") cache_store = true;
    } else if (ph == "C") {
      counters.push_back(name);
    }
  }
  EXPECT_TRUE(parallel_for);
  EXPECT_TRUE(parallel_run);
  EXPECT_TRUE(cache_probe);   // fresh cache dir: probe ran (and missed)
  EXPECT_TRUE(cache_store);   // ...so the memo entry was stored
  auto hasCounter = [&](std::string_view n) {
    for (const std::string& c : counters) {
      if (c == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(hasCounter("liberty_cell_lookups"));
  EXPECT_TRUE(hasCounter("liberty_pin_lookups"));
  EXPECT_TRUE(hasCounter("peak_rss_mb"));
  EXPECT_TRUE(hasCounter("cache_bytes_written"));
}

TEST(Trace, SummaryCountsMatchFile) {
  const trace::Summary& s = fixture().summary_j4;
  EXPECT_TRUE(s.enabled);
  std::uint64_t non_meta = 0, begins = 0, counter_events = 0;
  for (const JsonValue& e : events()) {
    const std::string& ph = e.at("ph").str();
    if (ph != "M") ++non_meta;
    if (ph == "B") ++begins;
    if (ph == "C") ++counter_events;
  }
  EXPECT_EQ(s.events, non_meta);
  EXPECT_EQ(s.spans, begins);
  EXPECT_EQ(s.counter_events, counter_events);
  EXPECT_EQ(s.pass_self_ms.size(), 7u);
}

TEST(Trace, OutputBytesIdenticalTracedVsUntraced) {
  Fixture& fx = fixture();
  // Tracing on/off and --jobs 4/1 must not change a single output byte.
  EXPECT_EQ(fx.traced_j4.verilog, fx.plain_j4.verilog);
  EXPECT_EQ(fx.traced_j1.verilog, fx.plain_j1.verilog);
  EXPECT_EQ(fx.plain_j4.verilog, fx.plain_j1.verilog);
  EXPECT_EQ(fx.traced_j4.sdc, fx.plain_j4.sdc);
  EXPECT_EQ(fx.traced_j1.sdc, fx.plain_j1.sdc);
  EXPECT_EQ(fx.plain_j4.sdc, fx.plain_j1.sdc);
  EXPECT_FALSE(fx.plain_j1.verilog.empty());
  EXPECT_FALSE(fx.plain_j1.sdc.empty());
}
