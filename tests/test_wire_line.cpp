/// \file test_wire_line.cpp
/// \brief The one-pass serve-line decoder (wire::decode_serve_request)
/// against its oracle, the DOM path (json::parse +
/// wire::serve_request_from_json). On every input the decoder either
/// declines or yields, bit for bit, what the DOM path yields; and a
/// serve session answers every line, ok or error, exactly as the DOM
/// path alone would. Inputs: the randomized wire corpus, the request
/// examples of docs/WIRE.md, and seeded byte-level mutations of both.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "io/serve.hpp"
#include "io/wire.hpp"
#include "planner/planning_service.hpp"
#include "wire_test_util.hpp"

#ifndef ADEPT_SOURCE_DIR
#error "ADEPT_SOURCE_DIR must point at the repository root"
#endif

namespace adept {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The oracle: what a serve session reads from `line` without the
/// one-pass decoder. nullopt with `error` set when the line answers with
/// an error; nullopt with `control` set for a control line.
std::optional<wire::ServeRequest> dom_decode(const std::string& line,
                                             std::string* error = nullptr,
                                             bool* control = nullptr) {
  try {
    const json::Value doc = json::parse(line);
    if (doc.find("cmd") != nullptr) {
      if (control != nullptr) *control = true;
      return std::nullopt;
    }
    return wire::serve_request_from_json(doc);
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

/// Empty when `a` and `b` are bitwise the same request; otherwise the
/// first field that differs.
std::string difference(const wire::ServeRequest& a,
                       const wire::ServeRequest& b) {
  if (a.id.dump() != b.id.dump()) return "id";
  if (a.planner != b.planner) return "planner";
  if (a.budget_ms.has_value() != b.budget_ms.has_value() ||
      (a.budget_ms && bits(*a.budget_ms) != bits(*b.budget_ms)))
    return "budget_ms";
  const Platform& x = *a.request.platform;
  const Platform& y = *b.request.platform;
  if (bits(x.bandwidth()) != bits(y.bandwidth())) return "bandwidth";
  if (x.size() != y.size()) return "node count";
  for (NodeId i = 0; i < x.size(); ++i) {
    const NodeSpec& p = x.node(i);
    const NodeSpec& q = y.node(i);
    if (p.name != q.name || bits(p.power) != bits(q.power) ||
        bits(p.link) != bits(q.link))
      return "node " + std::to_string(i);
  }
  if (x.ids_by_power_desc() != y.ids_by_power_desc()) return "power order";
  const auto same_costs = [](const ElementCosts& c, const ElementCosts& d) {
    return bits(c.wreq) == bits(d.wreq) && bits(c.wfix) == bits(d.wfix) &&
           bits(c.wsel) == bits(d.wsel) && bits(c.wpre) == bits(d.wpre) &&
           bits(c.sreq) == bits(d.sreq) && bits(c.srep) == bits(d.srep);
  };
  if (!same_costs(a.request.params.agent, b.request.params.agent) ||
      !same_costs(a.request.params.server, b.request.params.server))
    return "params";
  if (a.request.service.name != b.request.service.name ||
      bits(a.request.service.wapp) != bits(b.request.service.wapp))
    return "service";
  const PlanOptions& o = a.request.options;
  const PlanOptions& p = b.request.options;
  if (bits(o.demand) != bits(p.demand) || o.degree != p.degree ||
      o.shards != p.shards || !(o.excluded == p.excluded) ||
      o.verbose_trace != p.verbose_trace)
    return "options";
  return "";
}

/// A corpus request as a serve line: optional id, planner and budget,
/// members in a seeded order, with seeded whitespace between tokens.
std::string serve_line(const PlanRequest& request, std::mt19937& rng) {
  json::Value doc = wire::to_json(request);
  if (rng() % 2 == 0) doc.set("id", static_cast<int>(rng() % 100));
  if (rng() % 3 == 0) doc.set("id", "req-" + std::to_string(rng() % 100));
  if (rng() % 2 == 0)
    doc.set("planner", rng() % 2 == 0 ? "star" : "homogeneous");
  if (rng() % 4 == 0) doc.set("budget_ms", 1e5 + static_cast<int>(rng() % 7));
  json::Value::Object members = doc.as_object();
  std::shuffle(members.begin(), members.end(), rng);
  std::string line = json::Value::object(std::move(members)).dump();
  if (rng() % 3 == 0) {
    std::string spaced;
    for (const char c : line) {
      spaced += c;
      if ((c == ',' || c == ':' || c == '{' || c == '[') && rng() % 2 == 0)
        spaced += rng() % 2 == 0 ? " " : "\t ";
    }
    line = spaced + (rng() % 2 == 0 ? " \r" : "");
  }
  return line;
}

/// The request examples of docs/WIRE.md, each folded onto one line.
std::vector<std::string> wire_md_requests() {
  std::ifstream in(std::string(ADEPT_SOURCE_DIR) + "/docs/WIRE.md");
  EXPECT_TRUE(in.good());
  std::vector<std::string> out;
  std::string line, body;
  bool want = false, inside = false;
  while (std::getline(in, line)) {
    const std::string trimmed(strings::trim(line));
    if (inside) {
      if (trimmed == "```") {
        out.push_back(body);
        inside = want = false;
      } else {
        body += line + ' ';
      }
    } else if (trimmed.find("wire-example: request") != std::string::npos) {
      want = true;
    } else if (want && trimmed == "```json") {
      inside = true;
      body.clear();
    }
  }
  return out;
}

/// One seeded byte- or token-level mutation of `line`.
std::string mutate(const std::string& line, std::mt19937& rng) {
  const auto at = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  const auto replace_first = [&](const std::string& from,
                                 const std::string& to) {
    std::string out = line;
    const std::size_t where = out.find(from);
    if (where != std::string::npos) out.replace(where, from.size(), to);
    return out;
  };
  // A number token (outside names: the one after a ':' or '[' or ',').
  const auto number_at = [&]() -> std::pair<std::size_t, std::size_t> {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (std::size_t i = 1; i < line.size(); ++i) {
      if (std::string(":[,").find(line[i - 1]) == std::string::npos) continue;
      std::size_t end = i;
      while (end < line.size() &&
             std::string("0123456789.eE+-").find(line[end]) != std::string::npos)
        ++end;
      if (end > i) spans.emplace_back(i, end - i);
    }
    if (spans.empty()) return {0, 0};
    return spans[at(spans.size() - 1)];
  };
  std::string out = line;
  switch (rng() % 16) {
    case 0: return line.substr(0, at(line.size()));
    case 1: out[at(line.size() - 1)] = static_cast<char>(rng() % 256); return out;
    case 2: out[at(line.size() - 1)] = "\"\\{}[]:,0-e \x01"[rng() % 13]; return out;
    case 3: out.erase(at(line.size() - 1), 1); return out;
    case 4: return replace_first("{", R"({"zzz":1,)");
    case 5: return replace_first("{", R"({"service":"dgemm-100",)");
    case 6: return replace_first(R"("power":)", R"("power":7,"power":)");
    case 7: return replace_first(R"("power":)", R"("rack":1,"power":)");
    case 8: return replace_first(R"("name":")", R"("name":"\u0041)");
    case 9: return replace_first(R"("platform")", R"("pl\u0061tform")");
    case 10: return replace_first("{", R"({"cmd":"stats",)");
    case 11: {
      const auto [pos, len] = number_at();
      const char* spellings[] = {"-0.0", "-0", "0", "00", "01", "1e400",
                                 "-1e400", "1e-400", "1E+2", "2.", ".5"};
      out.replace(pos, len, spellings[rng() % 11]);
      return out;
    }
    case 12: {
      const auto [pos, len] = number_at();
      out.insert(pos, "0");
      return out;
    }
    case 13: {
      const auto [pos, len] = number_at();
      out.insert(pos + len, rng() % 2 == 0 ? "e308" : "e-330");
      return out;
    }
    case 14: {
      const std::size_t depth = 189 + rng() % 6;
      return replace_first(
          "{", "{\"id\":" + std::string(depth, '[') + std::string(depth, ']') +
                   ",");
    }
    default: {
      const std::size_t where = at(line.size());
      out.insert(where, line.substr(where, at(line.size() - where)));
      return out;
    }
  }
}

/// Seed lines: the random corpus as serve lines plus the WIRE.md
/// request examples.
std::vector<std::string> seed_lines(std::mt19937& rng, int count) {
  std::vector<std::string> lines = wire_md_requests();
  for (int i = 0; i < count; ++i)
    lines.push_back(serve_line(test_util::random_wire_request(rng), rng));
  return lines;
}

TEST(WireLine, DecodesTheCorpusExactlyAsTheDomPath) {
  std::mt19937 rng(1408);
  const std::vector<std::string> lines = seed_lines(rng, 120);
  ASSERT_GE(lines.size(), 122u);  // both WIRE.md request examples found
  for (const std::string& line : lines) {
    const std::optional<wire::ServeRequest> dom = dom_decode(line);
    ASSERT_TRUE(dom.has_value()) << line;
    const std::optional<wire::ServeRequest> fast =
        wire::decode_serve_request(line);
    ASSERT_TRUE(fast.has_value()) << "declined a plain line: " << line;
    EXPECT_EQ(difference(*fast, *dom), "") << line;
  }
}

TEST(WireLine, MutatedLinesAreDeclinedOrDecodedExactlyAsTheDomPath) {
  std::mt19937 rng(2008);
  const std::vector<std::string> seeds = seed_lines(rng, 60);
  std::size_t agreed = 0, declined = 0, dom_only = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string line = seeds[rng() % seeds.size()];
    for (int k = 1 + static_cast<int>(rng() % 2); k > 0 && !line.empty(); --k)
      line = mutate(line, rng);
    const std::optional<wire::ServeRequest> fast =
        wire::decode_serve_request(line);
    const std::optional<wire::ServeRequest> dom = dom_decode(line);
    if (fast.has_value()) {
      ASSERT_TRUE(dom.has_value()) << "decoded a line the DOM path refuses: "
                                   << line;
      EXPECT_EQ(difference(*fast, *dom), "") << line;
      ++agreed;
    } else {
      ++declined;
      if (dom.has_value()) ++dom_only;
    }
  }
  // Both outcomes are exercised. The DOM path also accepts lines the
  // decoder leaves to it: unknown members and escaped keys or names,
  // which several mutations insert on purpose.
  EXPECT_GT(agreed, 300u);
  EXPECT_GT(declined, 2000u);
  EXPECT_GT(dom_only, 0u);
}

TEST(WireLine, EdgeCasesDeclineOrAgree) {
  const std::string platform =
      R"({"bandwidth":1000,"nodes":[{"name":"a","power":900},{"name":"b","power":800,"link":50}]})";
  const std::string tail = R"(,"service":"dgemm-100"})";
  struct Case {
    std::string line;
    bool decoded;  ///< Whether the one-pass decoder must accept it.
  };
  const std::vector<Case> cases = {
      {R"({"platform":)" + platform + tail, true},
      {R"({"service":"dgemm-100","platform":)" + platform + "}", true},
      {" \t{ \"platform\" : " + platform + " , \"service\" : 12.5 } \r", true},
      {R"({"id":[[{"x":null}]],"planner":"star","budget_ms":5,"platform":)" +
           platform + tail,
       true},
      {R"({"platform":{"nodes":[{"power":1,"name":"z"}],"bandwidth":-0.0})" +
           tail,
       false},  // the DOM path refuses the bandwidth too
      {R"({"platform":{"bandwidth":1,"nodes":[{"name":"z","power":1,"link":-0.0}]})" +
           tail,
       true},
      {R"({"platform":)" + platform + R"(,"service":"dgemm-100","x":1})", false},
      {R"({"platform":)" + platform + R"(,"platform":)" + platform + tail,
       false},
      {R"({"platform":{"bandwidth":1000,"nodes":[{"name":"a"}]})" + tail,
       false},
      {R"({"platform":{"bandwidth":1000,"nodes":[{"name":"\u0061","power":1}]})" +
           tail,
       false},  // an escaped name: the DOM path decodes it
      {R"({"pl\u0061tform":)" + platform + tail, false},
      {R"({"platform":{"bandwidth":01000,"nodes":[]})" + tail, false},
      {R"({"platform":{"bandwidth":1e400,"nodes":[]})" + tail, false},
      {R"({"platform":{"bandwidth":1000,"nodes":[{"name":"a","power":1},{"name":"a","power":2}]})" +
           tail,
       false},
      {R"({"cmd":"stats","platform":)" + platform + tail, false},
      {R"({"budget_ms":0,"platform":)" + platform + tail, false},
      {R"({"planner":7,"platform":)" + platform + tail, false},
      {R"({"platform":)" + platform + "}", false},
      {R"({"platform":)" + platform + tail + " x", false},
      {"[" + platform + "]", false},
      {"{\"id\":" + std::string(191, '[') + std::string(191, ']') +
           R"(,"platform":)" + platform + tail,
       true},
      {"{\"id\":" + std::string(192, '[') + std::string(192, ']') +
           R"(,"platform":)" + platform + tail,
       false},  // 193 levels: past the parser's nesting limit
  };
  for (const Case& c : cases) {
    const std::optional<wire::ServeRequest> fast =
        wire::decode_serve_request(c.line);
    EXPECT_EQ(fast.has_value(), c.decoded) << c.line;
    const std::optional<wire::ServeRequest> dom = dom_decode(c.line);
    if (fast.has_value()) {
      ASSERT_TRUE(dom.has_value()) << c.line;
      EXPECT_EQ(difference(*fast, *dom), "") << c.line;
    }
  }
}

/// `run` with its timing-dependent fields zeroed.
std::string stable_run(json::Value run) {
  run.set("wall_ms", 0);
  run.set("evaluations", 0);
  return run.dump();
}

TEST(WireLine, ServeAnswersEveryLineAsTheDomPathAlone) {
  // Each line through a serve session, against the answer built from the
  // DOM path alone: error lines byte for byte, plans field for field
  // (wall time and evaluation count aside). Caches are off so every
  // answer is computed, and budgets are generous so none expires.
  std::mt19937 rng(77);
  const std::vector<std::string> seeds = seed_lines(rng, 30);
  std::vector<std::string> lines;
  for (int i = 0; i < 240; ++i) {
    std::string line = seeds[rng() % seeds.size()];
    if (i % 3 != 0) line = mutate(line, rng);
    bool control = false;
    dom_decode(line, nullptr, &control);
    if (control || strings::trim(line).empty() ||
        line.find('\n') != std::string::npos)
      continue;
    lines.push_back(line);
  }
  io::ServeConfig config;
  config.threads = 2;
  config.cache = CacheConfig{/*plan_capacity=*/0, /*shard_capacity=*/0,
                             /*coalesce=*/false};
  std::stringstream in, out;
  for (const std::string& line : lines) in << line << '\n';
  io::serve_session(in, out, config);

  PlanningService service(1, PlannerRegistry::instance(), config.cache);
  std::size_t planned = 0, refused = 0;
  std::string response;
  for (const std::string& line : lines) {
    ASSERT_TRUE(std::getline(out, response)) << "no answer for " << line;
    std::string error;
    const std::optional<wire::ServeRequest> dom = dom_decode(line, &error);
    if (!dom.has_value()) {
      json::Value expected = json::Value::object();
      try {
        const json::Value doc = json::parse(line);
        const json::Value* id = doc.find("id");
        expected.set("id", id != nullptr ? *id : json::Value());
      } catch (const Error&) {
        expected.set("id", json::Value());
      }
      expected.set("ok", false);
      expected.set("error", error);
      EXPECT_EQ(response, expected.dump()) << line;
      ++refused;
      continue;
    }
    const json::Value got = json::parse(response);
    EXPECT_EQ(got.at("id").dump(), dom->id.dump()) << line;
    const PlannerRun run = service.run(dom->request, dom->planner);
    EXPECT_EQ(got.at("ok").as_bool(), run.ok) << line;
    EXPECT_EQ(stable_run(got.at("run")), stable_run(wire::to_json(run)))
        << line;
    ++planned;
  }
  EXPECT_FALSE(std::getline(out, response));
  EXPECT_GT(planned, 60u);
  EXPECT_GT(refused, 60u);
}

}  // namespace
}  // namespace adept
