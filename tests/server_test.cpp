// drdesyncd server tests: the JSON wire layer, the request protocol, the
// FlowService request isolation and — the flagship — byte-identical
// replies for concurrent socket requests versus a sequential reference
// run at mixed per-request jobs budgets.
//
// This suite is also compiled under ThreadSanitizer as server_test_tsan
// (see tests/CMakeLists.txt) with DESYNC_SERVER_TEST_LIGHT defined, which
// drops the DLX design from the concurrency workload to keep the
// instrumented run bounded; keep new tests free of benign-but-racy idioms.
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/desync.h"
#include "designs/cpu.h"
#include "fuzz/generator.h"
#include "netlist/verilog.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"

namespace server = desync::server;
namespace fuzz = desync::fuzz;
namespace designs = desync::designs;
namespace netlist = desync::netlist;

namespace {

std::string testSocketPath(const char* tag) {
  return "/tmp/desync-server-test-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

server::ServiceOptions builtinService() {
  server::ServiceOptions opt;
  opt.lib = "builtin:hs";
  return opt;
}

/// A desync request for generator seed `seed` (rst_n active-low is the
/// generator contract), asking for the deterministic canonical report.
server::Request seedRequest(const server::FlowService& service,
                            std::uint64_t seed) {
  server::Request req;
  req.name = "seed-" + std::to_string(seed);
  req.design = fuzz::generateVerilog(service.gatefile(), seed, {});
  req.reset_port = "rst_n";
  req.reset_active_low = true;
  req.report = server::ReportMode::kCanonical;
  return req;
}

}  // namespace

// --- JSON layer ----------------------------------------------------------

TEST(ServerJson, ParseDumpRoundTrip) {
  const std::string line =
      R"({"id": 7, "ok": true, "ratio": 0.5, "tags": ["a", "b"], )"
      R"("nested": {"n": null}})";
  const server::Json v = server::Json::parse(line);
  EXPECT_EQ(v.getInt("id", -1), 7);
  EXPECT_TRUE(v.getBool("ok", false));
  EXPECT_EQ(v.getNumber("ratio", 0.0), 0.5);
  ASSERT_NE(v.find("tags"), nullptr);
  EXPECT_EQ(v.find("tags")->asArray().size(), 2u);
  EXPECT_TRUE(v.find("nested")->find("n")->isNull());
  // dump() re-parses to the same document.
  EXPECT_EQ(server::Json::parse(v.dump()).dump(), v.dump());
}

TEST(ServerJson, StringEscapesDecodeAndReEncode) {
  const server::Json v =
      server::Json::parse(R"({"s": "a\n\t\"\\ é 😀"})");
  const std::string s = v.getString("s", "");
  EXPECT_NE(s.find('\n'), std::string::npos);
  EXPECT_NE(s.find("\xC3\xA9"), std::string::npos);      // é in UTF-8
  EXPECT_NE(s.find("\xF0\x9F\x98\x80"), std::string::npos);  // emoji
  // The dump is one line even though the payload has a newline.
  EXPECT_EQ(v.dump().find('\n'), std::string::npos);
  EXPECT_EQ(server::Json::parse(v.dump()).getString("s", ""), s);
}

TEST(ServerJson, MalformedInputsThrow) {
  EXPECT_THROW(server::Json::parse("{"), server::JsonError);
  EXPECT_THROW(server::Json::parse("{} garbage"), server::JsonError);
  EXPECT_THROW(server::Json::parse(R"({"a": 1,})"), server::JsonError);
  EXPECT_THROW(server::Json::parse(R"("unterminated)"), server::JsonError);
  EXPECT_THROW(server::Json::parse(R"("\q")"), server::JsonError);
  EXPECT_THROW(server::Json::parse("1e999"), server::JsonError);
  EXPECT_THROW(server::Json::parse(R"("\ud800")"), server::JsonError);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW(server::Json::parse(deep), server::JsonError);
}

TEST(ServerJson, RawFragmentsEmbedVerbatim) {
  server::Json v = server::Json::object();
  v.set("id", server::Json::number(1));
  v.setRaw("report", R"({"cells": 42})");
  const std::string line = v.dump();
  const server::Json back = server::Json::parse(line);
  EXPECT_EQ(back.find("report")->getInt("cells", -1), 42);
}

TEST(ServerJson, GetIntRejectsFractions) {
  const server::Json v = server::Json::parse(R"({"jobs": 2.5})");
  EXPECT_THROW(v.getInt("jobs", 0), server::JsonError);
}

// --- protocol ------------------------------------------------------------

TEST(ServerProtocol, RequestLineRoundTrips) {
  server::Request req;
  req.id = 12;
  req.name = "dlx-run";
  req.design = "module m(); endmodule\n";
  req.top = "m";
  req.jobs = 3;
  req.reset_port = "rst_n";
  req.reset_active_low = true;
  req.group = "pc_,ifid_;idex_";
  req.false_paths = {"scan_en", "dbg"};
  req.margin = 0.25;
  req.mux_taps = 4;
  req.bus_heuristic = false;
  req.clean_logic = false;
  req.want_verilog = false;
  req.want_sdc = false;
  req.report = server::ReportMode::kCanonical;

  const server::Message msg = server::parseMessage(server::requestLine(req));
  ASSERT_EQ(msg.cmd, "desync");
  const server::Request& back = msg.request;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.design, req.design);
  EXPECT_EQ(back.top, req.top);
  EXPECT_EQ(back.jobs, req.jobs);
  EXPECT_EQ(back.reset_port, req.reset_port);
  EXPECT_EQ(back.reset_active_low, req.reset_active_low);
  EXPECT_EQ(back.group, req.group);
  EXPECT_EQ(back.false_paths, req.false_paths);
  EXPECT_EQ(back.margin, req.margin);
  EXPECT_EQ(back.mux_taps, req.mux_taps);
  EXPECT_EQ(back.bus_heuristic, req.bus_heuristic);
  EXPECT_EQ(back.clean_logic, req.clean_logic);
  EXPECT_EQ(back.want_verilog, req.want_verilog);
  EXPECT_EQ(back.want_sdc, req.want_sdc);
  EXPECT_EQ(back.report, req.report);
}

TEST(ServerProtocol, ControlCommandsParse) {
  EXPECT_EQ(server::parseMessage(R"({"cmd": "ping", "id": 3})").cmd, "ping");
  EXPECT_EQ(server::parseMessage(R"({"cmd": "stats"})").cmd, "stats");
  EXPECT_EQ(server::parseMessage(R"({"cmd": "shutdown"})").cmd, "shutdown");
}

TEST(ServerProtocol, InvalidRequestsAreRejected) {
  using server::parseMessage;
  using server::ProtocolError;
  // Neither or both design sources.
  EXPECT_THROW(parseMessage(R"({"id": 1})"), ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "design_path": "p"})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"cmd": "explode"})"), ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "jobs": -1})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "jobs": 9999})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "mux_taps": 3})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "margin": -0.5})"),
               ProtocolError);
  EXPECT_THROW(parseMessage(R"({"design": "m", "report": "verbose"})"),
               ProtocolError);
  // Malformed JSON surfaces as JsonError, not ProtocolError.
  EXPECT_THROW(parseMessage("{oops"), server::JsonError);
}

TEST(ServerProtocol, FlattenJsonCollapsesPrettyOutput) {
  const std::string pretty = "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}\n";
  const std::string flat = server::flattenJson(pretty);
  EXPECT_EQ(flat.find('\n'), std::string::npos);
  EXPECT_EQ(server::Json::parse(flat).getInt("a", -1), 1);
}

// --- FlowService ---------------------------------------------------------

TEST(FlowService, HandlesAGeneratedDesign) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 3);
  req.id = 9;
  const server::Json reply = service.handle(req);
  EXPECT_TRUE(reply.getBool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.getInt("id", -1), 9);
  EXPECT_EQ(reply.getString("track", ""), "seed-3");
  EXPECT_GT(reply.getInt("cells_out", 0), reply.getInt("cells_in", 0));
  EXPECT_FALSE(reply.getString("verilog", "").empty());
  EXPECT_FALSE(reply.getString("sdc", "").empty());
  ASSERT_NE(reply.find("report"), nullptr);
  EXPECT_GE(reply.getNumber("service_ms", -1.0), 0.0);
  // The whole reply frames as one JSON line (raw report embedded).
  const std::string line = reply.dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const server::Json parsed = server::Json::parse(line);
  EXPECT_GT(parsed.find("report")->getInt("regions", -1), 0);
}

TEST(FlowService, FlowFailureBecomesAnErrorReply) {
  server::FlowService service(builtinService());
  server::Request req;
  req.id = 4;
  req.design = "this is not verilog";
  const server::Json reply = service.handle(req);
  EXPECT_FALSE(reply.getBool("ok", true));
  EXPECT_FALSE(reply.getString("error", "").empty());
  // The error report (CLI --report shape) rides along for the default
  // "full" report mode, as one line.
  ASSERT_NE(reply.find("report"), nullptr);
  EXPECT_EQ(reply.dump().find('\n'), std::string::npos);
}

TEST(FlowService, MissingTopModuleIsAReplyNotACrash) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 1);
  req.top = "no_such_module";
  const server::Json reply = service.handle(req);
  EXPECT_FALSE(reply.getBool("ok", true));
  EXPECT_NE(reply.getString("error", "").find("no_such_module"),
            std::string::npos);
}

TEST(FlowService, RepliesAreIdenticalAtAnyJobsBudget) {
  server::FlowService service(builtinService());
  server::Request req = seedRequest(service, 5);
  req.jobs = 1;
  const server::Json serial = service.handle(req);
  req.jobs = 4;
  const server::Json pooled = service.handle(req);
  ASSERT_TRUE(serial.getBool("ok", false)) << serial.dump();
  ASSERT_TRUE(pooled.getBool("ok", false)) << pooled.dump();
  EXPECT_EQ(serial.getString("verilog", "a"), pooled.getString("verilog", "b"));
  EXPECT_EQ(serial.getString("sdc", "a"), pooled.getString("sdc", "b"));
  EXPECT_EQ(serial.find("report")->dump(), pooled.find("report")->dump());
}

TEST(FlowService, RequestWithoutMarginUsesTheFlowDefault) {
  server::FlowService service(builtinService());
  const std::string verilog =
      fuzz::generateVerilog(service.gatefile(), 7, {});

  // The wire line of a default request omits "margin", and the daemon
  // must then build what core::desynchronize builds with default options.
  server::Request req;
  req.design = verilog;
  req.reset_port = "rst_n";
  req.reset_active_low = true;
  req.report = server::ReportMode::kNone;
  const std::string line = server::requestLine(req);
  EXPECT_EQ(line.find("margin"), std::string::npos) << line;
  const server::Json reply =
      service.handle(server::parseMessage(line).request);
  ASSERT_TRUE(reply.getBool("ok", false)) << reply.dump();

  netlist::Design design;
  netlist::readVerilog(design, verilog, service.gatefile());
  desync::core::DesyncOptions opt;
  opt.control.reset_port = "rst_n";
  opt.control.reset_active_low = true;
  const desync::core::DesyncResult result = desync::core::desynchronize(
      design, design.top(), service.gatefile(), opt);
  EXPECT_EQ(reply.getString("verilog", ""), netlist::writeVerilog(design));
  EXPECT_EQ(reply.getString("sdc", ""), result.sdc.toText());

  // The design is margin-sensitive, so the check above bites: a 0.10
  // multiplier builds shorter delay elements.
  req.margin = 0.10;
  const server::Json short_margin = service.handle(req);
  ASSERT_TRUE(short_margin.getBool("ok", false)) << short_margin.dump();
  EXPECT_NE(short_margin.getString("verilog", ""),
            reply.getString("verilog", ""));
}

// --- stream transport ----------------------------------------------------

TEST(ServerStream, ControlCommandsAnswerInline) {
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 1;
  server::Server srv(opt);
  srv.start();
  std::istringstream in(
      "{\"cmd\": \"ping\", \"id\": 1}\n"
      "not json at all\n"
      "{\"cmd\": \"stats\", \"id\": 2}\n"
      "{\"cmd\": \"shutdown\", \"id\": 3}\n");
  std::ostringstream out;
  srv.serveStream(in, out);
  srv.stop();

  std::istringstream replies(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_TRUE(server::Json::parse(line).getBool("pong", false));
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_FALSE(server::Json::parse(line).getBool("ok", true));
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_EQ(server::Json::parse(line).getInt("rejected", -1), 1);
  ASSERT_TRUE(std::getline(replies, line));
  EXPECT_TRUE(server::Json::parse(line).getBool("shutting_down", false));
  EXPECT_EQ(srv.stats().rejected, 1u);
}

TEST(ServerStream, DesyncRequestsAreServedWithQueueTiming) {
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 2;
  server::Server srv(opt);
  srv.start();
  server::FlowService reference(builtinService());
  server::Request req = seedRequest(reference, 2);
  req.id = 1;
  std::istringstream in(server::requestLine(req) + "\n");
  std::ostringstream out;
  srv.serveStream(in, out);
  srv.stop();

  const server::Json reply = server::Json::parse(
      out.str().substr(0, out.str().find('\n')));
  EXPECT_TRUE(reply.getBool("ok", false)) << reply.dump();
  EXPECT_GE(reply.getNumber("queue_ms", -1.0), 0.0);
  EXPECT_EQ(srv.stats().completed, 1u);
}

// --- the determinism contract over the socket ----------------------------

TEST(ServerSocket, ConcurrentRequestsMatchSequentialReference) {
  // Reference replies, computed sequentially in-process.
  server::FlowService reference(builtinService());
  std::vector<server::Request> requests;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    requests.push_back(seedRequest(reference, seed));
  }
#ifndef DESYNC_SERVER_TEST_LIGHT
  {
    // The paper's DLX case study rides along in the full build: a real
    // multi-region pipeline, much deeper than the generator designs.
    desync::netlist::Design dlx;
    designs::buildCpu(dlx, reference.gatefile(), designs::dlxConfig());
    server::Request req;
    req.name = "dlx";
    req.design = netlist::writeVerilog(dlx);
    req.reset_port = "rst_n";
    req.reset_active_low = true;
    req.report = server::ReportMode::kCanonical;
    requests.push_back(std::move(req));
  }
#endif
  struct Expected {
    std::string verilog, sdc, report;
  };
  std::vector<Expected> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    server::Request req = requests[i];
    req.id = i;
    req.jobs = 1;  // exact serial reference
    const server::Json reply = reference.handle(req);
    ASSERT_TRUE(reply.getBool("ok", false))
        << requests[i].name << ": " << reply.dump();
    // The in-process reply embeds the report as a raw pre-serialized
    // fragment; parse and re-dump it so both sides compare in dump() form.
    expected.push_back(Expected{
        reply.getString("verilog", ""), reply.getString("sdc", ""),
        server::Json::parse(reply.find("report")->asString()).dump()});
  }

  // The same workload through a live socket server: 4 handler threads,
  // 4 client connections, every request repeated at jobs 1..4 decided by
  // the global send index, all in flight at once.
  server::ServerOptions opt;
  opt.service = builtinService();
  opt.handlers = 4;
  opt.socket_path = testSocketPath("conc");
  server::Server srv(opt);
  srv.start();

  const std::size_t total = requests.size() * 2;
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      server::Client client(opt.socket_path);
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= total) break;
        const std::size_t item = i % requests.size();
        server::Request req = requests[item];
        req.id = i;
        req.jobs = 1 + static_cast<int>(i % 4);
        client.sendLine(server::requestLine(req));
        const server::Json reply = server::Json::parse(client.recvLine());
        if (!reply.getBool("ok", false) ||
            reply.getInt("id", -1) != static_cast<int>(i) ||
            reply.getString("verilog", "") != expected[item].verilog ||
            reply.getString("sdc", "") != expected[item].sdc ||
            reply.find("report") == nullptr ||
            reply.find("report")->dump() != expected[item].report) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.received, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.failed, 0u);
  srv.stop();
}
