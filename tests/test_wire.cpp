/// \file test_wire.cpp
/// \brief The JSON kernel (common/json.hpp) and the wire format
/// (io/wire.hpp): parser/writer behaviour, and the round-trip property
/// parse(serialize(x)) ≡ x for every wire value type — including the
/// edge values the schema encodes specially (infinity demand, excluded
/// NodeSets, hierarchies whose element order is only reachable through
/// reparent()).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "io/wire.hpp"
#include "planner/planning_service.hpp"
#include "planner/shard_cache.hpp"
#include "planning_test_util.hpp"
#include "platform/generator.hpp"
#include "wire_test_util.hpp"

namespace adept {
namespace {

using test_util::random_wire_request;
using test_util::run_planner;

const MiddlewareParams kParams = MiddlewareParams::diet_grid5000();
constexpr MbitRate kB = 1000.0;

// -------------------------------------------------------------- JSON kernel --

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(json::parse("null").dump(), "null");
  EXPECT_EQ(json::parse("true").dump(), "true");
  EXPECT_EQ(json::parse("false").dump(), "false");
  EXPECT_EQ(json::parse("42").dump(), "42");
  EXPECT_EQ(json::parse("-1.5").dump(), "-1.5");
  EXPECT_EQ(json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double value :
       {0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, 59.582,
        123456789.123456789, -0.0, 5.3e-3}) {
    const json::Value parsed = json::parse(json::Value(value).dump());
    EXPECT_EQ(parsed.as_number(), value);
  }
}

TEST(Json, WriterRejectsNonFiniteNumbers) {
  EXPECT_THROW(json::Value(std::numeric_limits<double>::infinity()).dump(),
               Error);
  EXPECT_THROW(json::Value(std::nan("")).dump(), Error);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "line\nbreak\ttab \"quote\" back\\slash \x01";
  const json::Value round = json::parse(json::Value(nasty).dump());
  EXPECT_EQ(round.as_string(), nasty);
  // \u escapes decode to UTF-8 (including a surrogate pair).
  EXPECT_EQ(json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  json::Value object = json::Value::object();
  object.set("zebra", 1);
  object.set("alpha", 2);
  EXPECT_EQ(object.dump(), "{\"zebra\":1,\"alpha\":2}");
  // set() on an existing key replaces in place, keeping the order (the
  // canonical-form property: one key order, one byte string).
  object.set("zebra", 3);
  EXPECT_EQ(object.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), Error);
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("[1,]"), Error);
  EXPECT_THROW(json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
  EXPECT_THROW(json::parse("1 2"), Error);
  EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"), Error);  // duplicate key
  EXPECT_THROW(json::parse("nul"), Error);
  EXPECT_THROW(json::parse("\"\\ud800\""), Error);  // unpaired surrogate
  // Full JSON number grammar: no leading zeros / bare dots / open exps.
  EXPECT_THROW(json::parse("01"), Error);
  EXPECT_THROW(json::parse("-01"), Error);
  EXPECT_THROW(json::parse("1."), Error);
  EXPECT_THROW(json::parse(".5"), Error);
  EXPECT_THROW(json::parse("1e"), Error);
  EXPECT_THROW(json::parse("+1"), Error);
  EXPECT_EQ(json::parse("0.5e-3").as_number(), 0.5e-3);
  EXPECT_EQ(json::parse("-0").as_number(), 0.0);
}

TEST(Json, DeeplyNestedDocumentsFailInsteadOfOverflowingTheStack) {
  // One hostile serve line must produce a parse error, not a SIGSEGV.
  const std::string deep_arrays(100000, '[');
  EXPECT_THROW(json::parse(deep_arrays), Error);
  std::string deep_objects;
  for (int i = 0; i < 100000; ++i) deep_objects += "{\"a\":";
  EXPECT_THROW(json::parse(deep_objects), Error);
  // Sane nesting is unaffected.
  EXPECT_NO_THROW(json::parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    json::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const json::Value number(1.5);
  EXPECT_THROW(number.as_string(), Error);
  EXPECT_THROW(number.as_array(), Error);
  const json::Value object = json::Value::object();
  EXPECT_THROW(object.at("missing"), Error);
  EXPECT_EQ(object.find("missing"), nullptr);
  EXPECT_THROW(json::Value(-1.0).as_index(), Error);
  EXPECT_THROW(json::Value(1.5).as_index(), Error);
  EXPECT_EQ(json::Value(7.0).as_index(), 7u);
}

// ---------------------------------------------------------- wire round-trip --

TEST(Wire, PlatformRoundTrips) {
  Rng rng(11);
  Platform platform = gen::uniform(20, 200.0, 1200.0, kB, rng);
  platform.set_link(3, 50.0);  // heterogeneous-link node
  const Platform round =
      wire::platform_from_json(json::parse(wire::to_json(platform).dump()));
  EXPECT_EQ(round, platform);
  EXPECT_EQ(round.link_bandwidth(3), 50.0);
}

TEST(Wire, PlatformDeserializationValidates) {
  // A hostile document cannot materialise an invalid platform: the
  // domain constructor rejects non-positive powers.
  EXPECT_THROW(
      wire::platform_from_json(json::parse(
          R"({"bandwidth":1000,"nodes":[{"name":"a","power":-5}]})")),
      Error);
  EXPECT_THROW(wire::platform_from_json(json::parse(R"({"nodes":[]})")),
               Error);
}

TEST(Wire, ParamsAndServiceRoundTrip) {
  const MiddlewareParams params = MiddlewareParams::diet_grid5000();
  EXPECT_EQ(wire::params_from_json(json::parse(wire::to_json(params).dump())),
            params);
  const ServiceSpec dgemm = dgemm_service(310);
  EXPECT_EQ(wire::service_from_json(json::parse(wire::to_json(dgemm).dump())),
            dgemm);
  const ServiceSpec custom{"custom", 123.25};
  EXPECT_EQ(wire::service_from_json(json::parse(wire::to_json(custom).dump())),
            custom);
}

TEST(Wire, OptionsRoundTripIncludingInfinityDemand) {
  PlanOptions options;  // default: unlimited demand, empty exclusions
  PlanOptions round =
      wire::options_from_json(json::parse(wire::to_json(options).dump()));
  EXPECT_EQ(round.demand, kUnlimitedDemand);
  EXPECT_EQ(round.degree, options.degree);
  EXPECT_EQ(round.excluded, options.excluded);
  EXPECT_EQ(round.verbose_trace, options.verbose_trace);

  options.demand = 125.5;
  options.degree = 3;
  options.shards = 6;
  options.excluded = {2, 5, 19};
  options.verbose_trace = false;
  round = wire::options_from_json(json::parse(wire::to_json(options).dump()));
  EXPECT_EQ(round.demand, 125.5);
  EXPECT_EQ(round.degree, 3u);
  EXPECT_EQ(round.shards, 6u);
  EXPECT_EQ(round.excluded, NodeSet({2, 5, 19}));
  EXPECT_FALSE(round.verbose_trace);
}

TEST(Wire, MinimalOptionsDocumentUsesDefaults) {
  const PlanOptions round = wire::options_from_json(json::parse("{}"));
  EXPECT_EQ(round.demand, kUnlimitedDemand);
  EXPECT_EQ(round.degree, 0u);
  EXPECT_EQ(round.shards, 0u);
  EXPECT_TRUE(round.excluded.empty());
  EXPECT_TRUE(round.verbose_trace);
}

TEST(Wire, CacheConfigRoundTrips) {
  const CacheConfig config{/*plan_capacity=*/256, /*shard_capacity=*/64,
                           /*coalesce=*/false};
  const CacheConfig round =
      wire::cache_config_from_json(json::parse(wire::to_json(config).dump()));
  EXPECT_EQ(round, config);
  EXPECT_EQ(round.plan_capacity, 256u);
  EXPECT_EQ(round.shard_capacity, 64u);
  EXPECT_FALSE(round.coalesce);
}

TEST(Wire, MinimalCacheConfigDocumentUsesDefaults) {
  const CacheConfig round = wire::cache_config_from_json(json::parse("{}"));
  EXPECT_EQ(round, CacheConfig{});
  EXPECT_EQ(round.plan_capacity, 0u);
  EXPECT_EQ(round.shard_capacity, 0u);
  EXPECT_TRUE(round.coalesce);
}

TEST(Wire, HierarchyRoundTripsIncludingReparentedShapes) {
  // Build a shape whose element order is only reachable through
  // reparent(): element 3's parent (index 4) was created *after* it.
  Hierarchy hierarchy;
  const auto root = hierarchy.add_root(0);
  hierarchy.add_server(root, 1);
  hierarchy.add_server(root, 2);
  const auto moved = hierarchy.add_server(root, 3);
  const auto agent = hierarchy.add_agent(root, 4);
  hierarchy.add_server(agent, 5);
  hierarchy.reparent(moved, agent);
  const Hierarchy round =
      wire::hierarchy_from_json(json::parse(wire::to_json(hierarchy).dump()));
  EXPECT_EQ(round, hierarchy);
  EXPECT_TRUE(round.validate().empty());
}

TEST(Wire, HierarchyDeserializationRejectsBrokenLinkage) {
  // children list not matched by the child's parent pointer
  EXPECT_THROW(
      wire::hierarchy_from_json(json::parse(
          R"({"elements":[
            {"node":0,"role":"agent","parent":null,"children":[1]},
            {"node":1,"role":"server","parent":null,"children":[]}]})")),
      Error);
  // self-consistent two-cycle detached from the root
  EXPECT_THROW(
      wire::hierarchy_from_json(json::parse(
          R"({"elements":[
            {"node":0,"role":"agent","parent":null,"children":[]},
            {"node":1,"role":"agent","parent":2,"children":[2]},
            {"node":2,"role":"agent","parent":1,"children":[1]}]})")),
      Error);
}

TEST(Wire, PlanResultRoundTripsFromARealPlan) {
  Rng rng(7);
  const Platform platform = gen::uniform(24, 200.0, 1200.0, kB, rng);
  for (const char* planner : {"star", "heuristic", "homogeneous"}) {
    const PlanResult plan = run_planner(planner, platform, dgemm_service(310));
    const PlanResult round =
        wire::plan_result_from_json(json::parse(wire::to_json(plan).dump()));
    EXPECT_EQ(round.hierarchy, plan.hierarchy) << planner;
    EXPECT_EQ(round.report, plan.report) << planner;
    EXPECT_EQ(round.trace, plan.trace) << planner;
  }
}

TEST(Wire, PortfolioRoundTripsWithScoresAndWinner) {
  Rng rng(19);
  const Platform platform = gen::uniform(16, 300.0, 1200.0, kB, rng);
  PlanningService service(2);
  const PortfolioResult portfolio =
      service.run_portfolio(PlanRequest(platform, kParams, dgemm_service(310)));
  ASSERT_TRUE(portfolio.has_winner());
  const PortfolioResult round =
      wire::portfolio_from_json(json::parse(wire::to_json(portfolio).dump()));
  EXPECT_EQ(round.winner, portfolio.winner);
  EXPECT_EQ(round.scores, portfolio.scores);
  ASSERT_EQ(round.runs.size(), portfolio.runs.size());
  for (std::size_t i = 0; i < round.runs.size(); ++i) {
    EXPECT_EQ(round.runs[i].planner, portfolio.runs[i].planner);
    EXPECT_EQ(round.runs[i].ok, portfolio.runs[i].ok);
    EXPECT_EQ(round.runs[i].evaluations, portfolio.runs[i].evaluations);
    EXPECT_EQ(round.runs[i].result.hierarchy,
              portfolio.runs[i].result.hierarchy);
  }
}

TEST(Wire, RequestRoundTripsWithOwningPlatform) {
  Rng rng(3);
  const Platform platform = gen::uniform(10, 200.0, 900.0, kB, rng);
  PlanRequest request(platform, kParams, dgemm_service(100));
  request.options.demand = 40.0;
  request.options.excluded = {1, 4};
  const PlanRequest round =
      wire::request_from_json(json::parse(wire::to_json(request).dump()));
  ASSERT_NE(round.platform, nullptr);
  EXPECT_EQ(*round.platform, platform);
  EXPECT_EQ(round.params, request.params);
  EXPECT_EQ(round.service, request.service);
  EXPECT_EQ(round.options.demand, 40.0);
  EXPECT_EQ(round.options.excluded, NodeSet({1, 4}));
  // The deserialized request owns its platform (use_count > 0 proves a
  // control block exists, unlike the borrowed-reference constructor).
  EXPECT_GT(round.platform.use_count(), 0);
  const PlanRequest borrowed(platform, kParams, dgemm_service(100));
  EXPECT_EQ(borrowed.platform.use_count(), 0);
}

// ------------------------------------------------------------- request key --

TEST(Wire, RequestKeyIsStableAndDiscriminating) {
  Rng rng(5);
  const Platform platform = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const std::string base = detail::request_key(request, "heuristic");
  EXPECT_EQ(base.size(), 16u);
  // Same problem, fresh copies → same key; likewise after a wire round
  // trip, which rebuilds every field from the document.
  PlanRequest again(platform, kParams, dgemm_service(310));
  EXPECT_EQ(detail::request_key(again, "heuristic"), base);
  const PlanRequest round =
      wire::request_from_json(json::parse(wire::to_json(request).dump()));
  EXPECT_EQ(detail::request_key(round, "heuristic"), base);
  // Runtime-only options (deadline) do not change the key.
  again.options.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(detail::request_key(again, "heuristic"), base);
  // Planner, platform content, and plan-relevant options all do.
  EXPECT_NE(detail::request_key(request, "star"), base);
  PlanRequest different(platform, kParams, dgemm_service(310));
  different.options.demand = 10.0;
  EXPECT_NE(detail::request_key(different, "heuristic"), base);
  Platform edited = platform;
  edited.set_link(0, 10.0);
  const PlanRequest edited_request(edited, kParams, dgemm_service(310));
  EXPECT_NE(detail::request_key(edited_request, "heuristic"), base);
}

// ---------------------------------------------------- randomized corpus --

/// A random JSON document: every value kind, nested to `depth`, with
/// keys/strings drawn from an alphabet that exercises escaping.
json::Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 5 : 3);
  const auto random_string = [&rng] {
    static const std::string alphabet =
        "ab \"\\\n\t/\x01{}[]:,\xc3\xa9";  // quotes, escapes, UTF-8
    std::uniform_int_distribution<std::size_t> length(0, 12);
    std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
    std::string out;
    const std::size_t n = length(rng);
    for (std::size_t i = 0; i < n; ++i) out.push_back(alphabet[pick(rng)]);
    return out;
  };
  switch (kind(rng)) {
    case 0:
      return json::Value();
    case 1:
      return json::Value(std::uniform_int_distribution<int>(0, 1)(rng) == 1);
    case 2: {
      // Mantissa/exponent sampling covers the shortest-round-trip
      // printer's whole range, not just friendly magnitudes.
      const double mantissa =
          std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
      const int exponent = std::uniform_int_distribution<int>(-300, 300)(rng);
      return json::Value(mantissa * std::pow(10.0, exponent));
    }
    case 3:
      return json::Value(random_string());
    case 4: {
      json::Value array = json::Value::array();
      std::uniform_int_distribution<int> count(0, 4);
      const int n = count(rng);
      for (int i = 0; i < n; ++i)
        array.push_back(random_value(rng, depth - 1));
      return array;
    }
    default: {
      json::Value object = json::Value::object();
      std::uniform_int_distribution<int> count(0, 4);
      const int n = count(rng);
      for (int i = 0; i < n; ++i)
        object.set(random_string() + std::to_string(i),  // keys stay unique
                   random_value(rng, depth - 1));
      return object;
    }
  }
}

TEST(Json, RandomDocumentsRoundTripExactly) {
  // parse(dump(x)) ≡ x for 300 random documents: the canonical-form
  // property every wire hop relies on.
  std::mt19937 rng(20080615);
  for (int i = 0; i < 300; ++i) {
    const json::Value value = random_value(rng, 4);
    const std::string once = value.dump();
    EXPECT_EQ(json::parse(once).dump(), once) << "document " << i;
  }
}

TEST(Wire, RandomRequestsRoundTripBitExactly) {
  // Full wire PlanRequests over random platforms/options: the document
  // must round-trip to an equal request AND an identical cache key —
  // the property that makes worker answers cache-compatible.
  std::mt19937 seeds(7);
  for (int i = 0; i < 20; ++i) {
    const PlanRequest request = random_wire_request(seeds);
    const std::string doc = wire::to_json(request).dump();
    const PlanRequest round = wire::request_from_json(json::parse(doc));
    EXPECT_EQ(*round.platform, *request.platform) << i;
    EXPECT_EQ(wire::to_json(round).dump(), doc) << i;
    EXPECT_EQ(detail::request_key(round, "heuristic"),
              detail::request_key(request, "heuristic"))
        << i;
  }
}

// ------------------------------------------------- request key vs the wire --

/// The oracle: the canonical wire dump of {planner, request}, which is
/// what the plan cache hashed before it keyed on the typed fields.
std::string canonical_dump(const PlanRequest& request,
                           const std::string& planner) {
  json::Value doc = json::Value::object();
  doc.set("planner", planner);
  doc.set("request", wire::to_json(request));
  return doc.dump();
}

struct KeyCase {
  PlanRequest request;
  std::string planner;
};

/// `base` with its platform rebuilt after `edit` mutates the node list.
template <typename Edit>
PlanRequest with_nodes(const PlanRequest& base, Edit edit) {
  std::vector<NodeSpec> nodes = base.platform->nodes();
  edit(nodes);
  PlanRequest out = base;
  out.platform = std::make_shared<const Platform>(std::move(nodes),
                                                  base.platform->bandwidth());
  return out;
}

/// Every one-field perturbation of `base` (plus no-op "perturbations"
/// that must keep the key), each field touched on its own.
std::vector<KeyCase> perturbations(const PlanRequest& base) {
  const double up = std::numeric_limits<double>::infinity();
  std::vector<KeyCase> out;
  const auto add = [&out](PlanRequest request,
                          std::string planner = "heuristic") {
    out.push_back({std::move(request), std::move(planner)});
  };
  add(base);
  add(wire::request_from_json(json::parse(wire::to_json(base).dump())));
  // Planner.
  add(base, "star");
  add(base, "heuristic ");
  add(base, "");
  // A fresh platform object with the same content.
  add(with_nodes(base, [](std::vector<NodeSpec>&) {}));
  // Per node: name, power, link.
  for (std::size_t i = 0; i < base.platform->size(); ++i) {
    add(with_nodes(base, [i](std::vector<NodeSpec>& n) { n[i].name += "'"; }));
    add(with_nodes(base, [i, up](std::vector<NodeSpec>& n) {
      n[i].power = std::nextafter(n[i].power, up);
    }));
    add(with_nodes(base, [i](std::vector<NodeSpec>& n) { n[i].link = 0.0; }));
    // A -0.0 link is "no link", exactly like 0.0: the wire omits both.
    add(with_nodes(base, [i](std::vector<NodeSpec>& n) { n[i].link = -0.0; }));
    add(with_nodes(base, [i](std::vector<NodeSpec>& n) { n[i].link = 250.0; }));
    add(with_nodes(base, [i](std::vector<NodeSpec>& n) {
      n[i].link = std::nextafter(250.0, 0.0);
    }));
  }
  // Bandwidth.
  {
    PlanRequest edited = base;
    edited.platform = std::make_shared<const Platform>(
        base.platform->nodes(), std::nextafter(base.platform->bandwidth(), up));
    add(std::move(edited));
  }
  // Every cost of both rows, bumped one ulp and set to ±0.
  for (const bool agent : {true, false}) {
    for (int field = 0; field < 6; ++field) {
      for (const int how : {0, 1, 2}) {
        PlanRequest edited = base;
        ElementCosts& row = agent ? edited.params.agent : edited.params.server;
        double* const fields[] = {&row.wreq, &row.wfix, &row.wsel,
                                  &row.wpre, &row.sreq, &row.srep};
        double& value = *fields[field];
        value = how == 0 ? std::nextafter(value, up) : how == 1 ? 0.0 : -0.0;
        add(std::move(edited));
      }
    }
  }
  // Service name and wapp.
  {
    PlanRequest edited = base;
    edited.service.name += "x";
    add(std::move(edited));
    edited = base;
    edited.service.wapp = std::nextafter(edited.service.wapp, up);
    add(std::move(edited));
  }
  // Demand: finite values (including both zeros) and unlimited.
  for (const double demand : {1.0, std::nextafter(1.0, up), 0.0, -0.0,
                              1e300, kUnlimitedDemand}) {
    PlanRequest edited = base;
    edited.options.demand = demand;
    add(std::move(edited));
  }
  // Degree and shards, up to the largest integer the JSON double still
  // tells apart from its neighbours (2^53 - 1; see the next test).
  const std::size_t big = (std::size_t{1} << 53) - 1;
  for (const std::size_t value : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, big - 1, big}) {
    PlanRequest edited = base;
    edited.options.degree = value;
    add(std::move(edited));
    edited = base;
    edited.options.shards = value;
    add(std::move(edited));
  }
  // Excluded ids: empty, one, two, a different one, a large one.
  for (const NodeSet& excluded :
       {NodeSet{}, NodeSet{0}, NodeSet{1}, NodeSet{0, 1}, NodeSet{big}}) {
    PlanRequest edited = base;
    edited.options.excluded = excluded;
    add(std::move(edited));
  }
  // The trace switch, both ways.
  for (const bool verbose : {true, false}) {
    PlanRequest edited = base;
    edited.options.verbose_trace = verbose;
    add(std::move(edited));
  }
  // Runtime-only fields never reach the key or the wire.
  {
    PlanRequest edited = base;
    edited.options.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    add(std::move(edited));
  }
  return out;
}

TEST(Wire, RequestKeyEqualsExactlyWhenCanonicalDumpsEqual) {
  // Differential oracle for detail::request_key: over the randomized
  // corpus and every one-field perturbation of it, two (request,
  // planner) pairs share a key if and only if their canonical wire dumps
  // are byte-equal. Integer fields stay below 2^53 here, where the
  // wire's JSON double is still exact; above it the typed key is finer
  // (pinned by the next test).
  std::mt19937 seeds(7);
  std::size_t equal_pairs = 0;
  std::size_t distinct_pairs = 0;
  for (int corpus = 0; corpus < 12; ++corpus) {
    const std::vector<KeyCase> cases =
        perturbations(random_wire_request(seeds));
    std::vector<std::string> keys, dumps;
    for (const KeyCase& c : cases) {
      keys.push_back(detail::request_key(c.request, c.planner));
      dumps.push_back(canonical_dump(c.request, c.planner));
    }
    for (std::size_t a = 0; a < cases.size(); ++a) {
      for (std::size_t b = a + 1; b < cases.size(); ++b) {
        const bool same_dump = dumps[a] == dumps[b];
        ASSERT_EQ(keys[a] == keys[b], same_dump)
            << "corpus " << corpus << ", cases " << a << " and " << b;
        ++(same_dump ? equal_pairs : distinct_pairs);
      }
    }
  }
  // Both directions of the "iff" were exercised.
  EXPECT_GT(equal_pairs, 0u);
  EXPECT_GT(distinct_pairs, 0u);
}

TEST(Wire, RequestKeySignedZeroAndWideIntegers) {
  Rng rng(11);
  const Platform platform = gen::uniform(6, 200.0, 1200.0, kB, rng);
  PlanRequest zero(platform, kParams, dgemm_service(310));
  zero.options.demand = 0.0;
  PlanRequest negative_zero = zero;
  negative_zero.options.demand = -0.0;
  // -0.0 and 0.0 dump differently ("-0" vs "0") and key differently.
  EXPECT_NE(canonical_dump(zero, "heuristic"),
            canonical_dump(negative_zero, "heuristic"));
  EXPECT_NE(detail::request_key(zero, "heuristic"),
            detail::request_key(negative_zero, "heuristic"));
  // At 2^53 the JSON double can no longer tell n from n + 1, so the two
  // dumps collide; the typed key hashes the integer itself and keeps
  // them apart — finer than the wire, never coarser.
  PlanRequest wide(platform, kParams, dgemm_service(310));
  wide.options.degree = std::size_t{1} << 53;
  PlanRequest wider = wide;
  wider.options.degree += 1;
  EXPECT_EQ(canonical_dump(wide, "heuristic"),
            canonical_dump(wider, "heuristic"));
  EXPECT_NE(detail::request_key(wide, "heuristic"),
            detail::request_key(wider, "heuristic"));
}

TEST(Wire, RequestKeyRejectsWhatTheWireCannotEncode) {
  // The key applies the wire encoder's finiteness check, with its error.
  Rng rng(12);
  const Platform platform = gen::uniform(6, 200.0, 1200.0, kB, rng);
  const auto expect_unencodable = [](const PlanRequest& request) {
    for (const bool via_key : {true, false}) {
      try {
        if (via_key)
          detail::request_key(request, "heuristic");
        else
          canonical_dump(request, "heuristic");
        ADD_FAILURE() << (via_key ? "key" : "dump") << " did not throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "JSON cannot represent a non-finite number"),
                  std::string::npos)
            << e.what();
      }
    }
  };
  PlanRequest nan_demand(platform, kParams, dgemm_service(310));
  nan_demand.options.demand = std::numeric_limits<double>::quiet_NaN();
  expect_unencodable(nan_demand);
  PlanRequest negative_infinite_demand(platform, kParams, dgemm_service(310));
  negative_infinite_demand.options.demand = -kUnlimitedDemand;
  expect_unencodable(negative_infinite_demand);
  PlanRequest nan_wapp(platform, kParams, dgemm_service(310));
  nan_wapp.service.wapp = std::numeric_limits<double>::quiet_NaN();
  expect_unencodable(nan_wapp);
  PlanRequest infinite_cost(platform, kParams, dgemm_service(310));
  infinite_cost.params.server.wpre = kUnlimitedDemand;
  expect_unencodable(infinite_cost);
  // Unlimited (+inf) demand is the one infinity the wire spells out.
  PlanRequest unlimited(platform, kParams, dgemm_service(310));
  EXPECT_NO_THROW(detail::request_key(unlimited, "heuristic"));
  // And a request without a platform fails like the wire encoder does.
  EXPECT_THROW(detail::request_key(PlanRequest{}, "heuristic"), Error);
}

TEST(Wire, TruncatedFramesAlwaysThrowNeverMisparse) {
  // A request line cut anywhere — a worker dying mid-write — must be a
  // parse error, never a shorter valid document (object-rooted docs have
  // no complete proper prefix).
  Rng rng(13);
  const Platform platform = gen::uniform(12, 200.0, 1200.0, kB, rng);
  const PlanRequest request(platform, kParams, dgemm_service(310));
  const std::string doc = wire::to_json(request).dump();
  ASSERT_GT(doc.size(), 2u);
  for (std::size_t cut = 1; cut < doc.size(); cut += 7)
    EXPECT_THROW(json::parse(doc.substr(0, cut)), Error) << "cut " << cut;
  EXPECT_THROW(json::parse(std::string()), Error);
}

TEST(Wire, InterleavedGarbageThrowsOrVisiblyCorruptsNeverPassesSilently) {
  // Non-whitespace garbage injected anywhere in a frame must either fail
  // to parse or produce a document that no longer dumps to the original
  // — a corrupted line can never impersonate the clean one.
  Rng rng(13);
  const Platform platform = gen::uniform(10, 200.0, 1200.0, kB, rng);
  const std::string doc =
      wire::to_json(PlanRequest(platform, kParams, dgemm_service(310))).dump();
  std::mt19937 where(99);
  const std::string garbage = "@\x01~Z";
  for (int i = 0; i < 200; ++i) {
    std::string corrupted = doc;
    corrupted.insert(
        std::uniform_int_distribution<std::size_t>(0, doc.size())(where),
        1, garbage[i % garbage.size()]);
    try {
      EXPECT_NE(json::parse(corrupted).dump(), doc) << "iteration " << i;
    } catch (const Error&) {
      // rejected outright — the common (and best) outcome
    }
  }
  // Trailing garbage after a complete document is also a frame error.
  EXPECT_THROW(json::parse(doc + "@"), Error);
  EXPECT_THROW(json::parse(doc + " {}"), Error);
}

TEST(Wire, OversizedLinesParseWithoutTruncationOrCrash) {
  // Megabyte-scale single-line documents (a 5k-node platform easily
  // produces one) must round-trip intact — the framing layers carry
  // whole lines, whatever their size.
  std::string big(1 << 20, 'x');
  big[0] = '"';
  big[big.size() - 1] = '"';
  EXPECT_EQ(json::parse(big).as_string().size(), big.size() - 2);

  json::Value array = json::Value::array();
  for (int i = 0; i < 100000; ++i) array.push_back(i);
  const std::string dumped = array.dump();
  EXPECT_GT(dumped.size(), 500000u);
  EXPECT_EQ(json::parse(dumped).as_array().size(), 100000u);
  EXPECT_EQ(json::parse(dumped).dump(), dumped);
}

}  // namespace
}  // namespace adept
