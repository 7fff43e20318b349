// The serve subsystem: JSON decoder totality, wire protocol, compiled-model
// cache, engine semantics (including the cache-hits-skip-the-front-end
// guarantee), the socket server, and the chaos harness the ISSUE's
// acceptance criteria name — malformed frames, expansion bombs, deadline
// storms and mid-request disconnects must produce typed errors, bounded
// memory, and zero crashes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dvf/obs/obs.hpp"
#include "dvf/serve/cache.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/json.hpp"
#include "dvf/serve/protocol.hpp"
#include "dvf/serve/server.hpp"

namespace {

using namespace dvf::serve;

// ---- JSON decoder ---------------------------------------------------------

TEST(ServeJson, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").value.is_null());
  EXPECT_TRUE(parse_json("true").value.boolean);
  EXPECT_FALSE(parse_json("false").value.boolean);
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").value.number, -1250.0);
  EXPECT_EQ(parse_json("\"hi\\n\\u0041\"").value.string, "hi\nA");
}

TEST(ServeJson, ParsesNestedStructures) {
  const JsonParsed parsed =
      parse_json(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(parsed.ok);
  const JsonValue* a = parsed.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[2].find("b")->string, "c");
}

TEST(ServeJson, SurrogatePairsDecodeToUtf8) {
  const JsonParsed parsed = parse_json("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.string, "\xF0\x9F\x98\x80");
  // Between plain runs, which the decoder copies in bulk.
  const JsonParsed between = parse_json(R"("ab\ud83d\ude00cd")");
  ASSERT_TRUE(between.ok) << between.error;
  EXPECT_EQ(between.value.string, "ab\xF0\x9F\x98\x80" "cd");
}

// The string decoder copies runs of plain bytes in bulk; escapes at either
// end of a string or next to each other must not lose or repeat a byte.
TEST(ServeJson, EscapesAtStringEdgesAndAdjacent) {
  EXPECT_EQ(parse_json(R"("\nabc\t")").value.string, "\nabc\t");
  EXPECT_EQ(parse_json(R"("\"")").value.string, "\"");
  EXPECT_EQ(parse_json(R"("a\\\"\/\b\f\n\r\tz")").value.string,
            "a\\\"/\b\f\n\r\tz");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9\n")").value.string, "A\xC3\xA9\n");
  EXPECT_EQ(parse_json(R"("")").value.string, "");
}

TEST(ServeJson, RawControlCharacterRejectedAtItsOffset) {
  const std::pair<std::string, std::size_t> cases[] = {
      {"\"abc\x01" "def\"", 4},  // mid-run
      {"\"\x1f\"", 1},           // first byte of the string
      {"\"a\\nb\tc\"", 5},       // in the run after an escape
      {"{\"k\":\"xy\nz\"}", 8},  // inside an object member
  };
  for (const auto& [text, offset] : cases) {
    const JsonParsed parsed = parse_json(text);
    EXPECT_FALSE(parsed.ok) << text;
    EXPECT_EQ(parsed.offset, offset) << text;
    EXPECT_NE(parsed.error.find("control character"), std::string::npos)
        << parsed.error;
  }
  const JsonParsed open = parse_json("\"abc");
  EXPECT_EQ(open.error, "unterminated string");
  EXPECT_EQ(open.offset, 4u);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").ok);
  EXPECT_FALSE(parse_json("{").ok);
  EXPECT_FALSE(parse_json("{}extra").ok);
  EXPECT_FALSE(parse_json("\"unterminated").ok);
  EXPECT_FALSE(parse_json("01").ok);
  EXPECT_FALSE(parse_json("+1").ok);
  EXPECT_FALSE(parse_json("nul").ok);
  EXPECT_FALSE(parse_json("\"\\ud800\"").ok);  // lone surrogate
}

TEST(ServeJson, DepthCapStopsNestingBombs) {
  const std::string bomb(10000, '[');
  const JsonParsed parsed = parse_json(bomb);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("depth"), std::string::npos);
  // A balanced-but-deep document is equally rejected.
  EXPECT_FALSE(parse_json(std::string(65, '[') + std::string(65, ']')).ok);
  // At or under the cap it parses.
  EXPECT_TRUE(parse_json(std::string(64, '[') + std::string(64, ']')).ok);
}

TEST(ServeJson, DuplicateKeysKeepLastOccurrence) {
  const JsonParsed parsed = parse_json(R"({"op":"ping","op":"metrics"})");
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.find("op")->string, "metrics");
}

TEST(ServeJson, EncodersRoundTrip) {
  EXPECT_EQ(json_escape_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_number(0.5), "0.5");
  const double nan = std::nan("");
  EXPECT_EQ(json_number(nan), "null");
  const std::string encoded = json_number(0.1 + 0.2);
  EXPECT_DOUBLE_EQ(parse_json(encoded).value.number, 0.1 + 0.2);
}

// json_number must keep the bytes printf's "%.17g" gave, which stays here
// as the oracle.
std::string printf_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

TEST(ServeJson, NumberMatchesPrintfOracle) {
  using limits = std::numeric_limits<double>;
  std::vector<double> inputs = {
      0.0, -0.0, 0.5, 0.1 + 0.2, 1e16, 1e21, -1e21, 1e22, 9007199254740993.0,
      limits::max(), -limits::max(), limits::min(), limits::denorm_min(),
      -limits::denorm_min(), 2.2250738585072009e-308, 1e-5, 1e-4, 1e17};
  for (int i = -2000; i <= 2000; ++i) {
    inputs.push_back(i);
  }
  for (int e = -324; e <= 308; ++e) {
    inputs.push_back(std::pow(10.0, e));
  }
  for (int e = -1074; e <= 1023; ++e) {
    inputs.push_back(std::ldexp(1.0, e));
  }
  std::mt19937_64 rng(2014);
  for (std::size_t finite = 0; finite < 100000;) {
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) {
      inputs.push_back(x);
      ++finite;
    }
  }
  std::size_t mismatches = 0;
  for (const double x : inputs) {
    const std::string expected = printf_number(x);
    const std::string got = json_number(x);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(x) << ": "
                    << got << " != " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
  EXPECT_EQ(json_number(limits::infinity()), "null");
  EXPECT_EQ(json_number(-limits::infinity()), "null");
  EXPECT_EQ(json_number(limits::quiet_NaN()), "null");
}

// ---- wire protocol --------------------------------------------------------

TEST(ServeProtocol, ParsesFullRequest) {
  const RequestParse parsed = parse_request(
      R"({"id":"r1","op":"eval","source":"model \"m\" {}","model":"m",)"
      R"("machine":"laptop","deadline_s":1.5,"exec_time_s":0.25})");
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.request.id_json, "\"r1\"");
  EXPECT_EQ(parsed.request.op, "eval");
  EXPECT_EQ(parsed.request.model, "m");
  EXPECT_EQ(parsed.request.machine, "laptop");
  EXPECT_DOUBLE_EQ(parsed.request.deadline_s, 1.5);
  ASSERT_TRUE(parsed.request.exec_time_s.has_value());
  EXPECT_DOUBLE_EQ(*parsed.request.exec_time_s, 0.25);
}

TEST(ServeProtocol, RecoversIdBeforeRejecting) {
  // The id parsed, a later field did not: the rejection still correlates.
  const RequestParse parsed =
      parse_request(R"({"id":42,"op":"eval","source":123})");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id_json, "42");
  EXPECT_EQ(parsed.kind, wire::kBadRequest);
}

TEST(ServeProtocol, RejectsNonScalarId) {
  const RequestParse parsed = parse_request(R"({"id":[1],"op":"ping"})");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.id_json, "null");
}

TEST(ServeProtocol, RejectsUnknownOpAndMissingBody) {
  EXPECT_EQ(parse_request(R"({"op":"restart"})").kind, wire::kBadRequest);
  EXPECT_EQ(parse_request(R"({"op":"eval"})").kind, wire::kBadRequest);
  EXPECT_EQ(parse_request("[]").kind, wire::kBadRequest);
  EXPECT_EQ(parse_request("{").kind, wire::kParseError);
}

TEST(ServeProtocol, HashRoundTrip) {
  EXPECT_EQ(hash_hex(0xdeadbeefULL), "0x00000000deadbeef");
  EXPECT_EQ(parse_hash_hex("0x00000000deadbeef").value(), 0xdeadbeefULL);
  EXPECT_EQ(parse_hash_hex("ff").value(), 0xffULL);
  EXPECT_FALSE(parse_hash_hex("").has_value());
  EXPECT_FALSE(parse_hash_hex("0x").has_value());
  EXPECT_FALSE(parse_hash_hex("xyz").has_value());
  EXPECT_FALSE(parse_hash_hex("0x11111111111111111").has_value());
}

TEST(ServeProtocol, HashHexMatchesPrintfOracle) {
  std::vector<std::uint64_t> inputs = {0, 1, 0xf, 0x10, UINT64_MAX,
                                       0x8000000000000000ULL};
  for (int bit = 0; bit < 64; ++bit) {
    inputs.push_back(std::uint64_t{1} << bit);
    inputs.push_back((std::uint64_t{1} << bit) - 1);
  }
  std::mt19937_64 rng(2014);
  for (int i = 0; i < 100000; ++i) {
    // Vary the leading zeros too: shift a random word by 0..63 bits.
    inputs.push_back(rng() >> (rng() % 64));
  }
  std::size_t mismatches = 0;
  for (const std::uint64_t hash : inputs) {
    char expected[19];
    std::snprintf(expected, sizeof expected, "0x%016llx",
                  static_cast<unsigned long long>(hash));
    if (hash_hex(hash) != expected && ++mismatches <= 5) {
      ADD_FAILURE() << hash_hex(hash) << " != " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
}

TEST(ServeProtocol, ErrorResponseShape) {
  const std::string plain = error_response("7", wire::kBadRequest, "nope");
  EXPECT_EQ(plain,
            R"({"id":7,"ok":false,"error":{"kind":"bad_request",)"
            R"("message":"nope"}})");
  const std::string hinted =
      error_response("null", wire::kOverloaded, "busy", 250);
  EXPECT_NE(hinted.find("\"retry_after_ms\":250"), std::string::npos);
}

// ---- compiled-model cache -------------------------------------------------

std::shared_ptr<CompiledEntry> make_entry(const std::string& source,
                                          std::uint64_t canonical_hash) {
  auto entry = std::make_shared<CompiledEntry>();
  entry->source = source;
  entry->source_fingerprint = fnv1a64(source);
  entry->canonical_hash = canonical_hash;
  return entry;
}

std::shared_ptr<const CompiledEntry> find(CompiledModelCache& cache,
                                          std::string_view source) {
  return cache.find_source(source, fnv1a64(source));
}

TEST(ServeCache, HitMissAndCounters) {
  CompiledModelCache cache(4);
  EXPECT_EQ(find(cache, "s1"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(make_entry("s1", 0x11));
  const auto hit = find(cache, "s1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->canonical_hash, 0x11u);
  EXPECT_EQ(cache.hits(), 1u);
  const auto by_hash = cache.find_hash(0x11);
  ASSERT_NE(by_hash, nullptr);
  EXPECT_EQ(by_hash->source, "s1");
  EXPECT_EQ(cache.find_hash(0x99), nullptr);
}

TEST(ServeCache, LruEvictionIsBoundedAndCounted) {
  CompiledModelCache cache(2);
  cache.insert(make_entry("a", 1));
  cache.insert(make_entry("b", 2));
  ASSERT_NE(find(cache, "a"), nullptr);  // refresh: b is now LRU
  cache.insert(make_entry("c", 3));      // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(find(cache, "b"), nullptr);
  EXPECT_NE(find(cache, "a"), nullptr);
  EXPECT_NE(find(cache, "c"), nullptr);
  EXPECT_EQ(cache.find_hash(2), nullptr);  // hash index follows eviction
}

TEST(ServeCache, ConcurrentInsertKeepsFirstEntry) {
  CompiledModelCache cache(4);
  const auto first = make_entry("same", 7);
  const auto second = make_entry("same", 7);
  EXPECT_EQ(cache.insert(first), first);
  EXPECT_EQ(cache.insert(second), first);  // existing entry wins
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, CapacityZeroDisablesCaching) {
  CompiledModelCache cache(0);
  const auto entry = make_entry("s", 1);
  EXPECT_EQ(cache.insert(entry), entry);
  EXPECT_EQ(find(cache, "s"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- engine ---------------------------------------------------------------

constexpr const char* kModelSource =
    "param n = 64;\n"
    "model \"m\" {\n"
    "  time 0.5;\n"
    "  data A { elements n; element_size 8; }\n"
    "  pattern A stream { stride 1; repeat 4; }\n"
    "}\n";

std::string eval_frame(const std::string& id, const std::string& source) {
  return "{\"id\":" + id +
         ",\"op\":\"eval\",\"source\":" + json_escape_string(source) + "}";
}

JsonParsed expect_response(const std::string& response) {
  const JsonParsed parsed = parse_json(response);
  EXPECT_TRUE(parsed.ok) << response;
  EXPECT_TRUE(parsed.value.is_object()) << response;
  return parsed;
}

std::string error_kind(const JsonParsed& response) {
  const JsonValue* error = response.value.find("error");
  if (error == nullptr || error->find("kind") == nullptr) {
    return "";
  }
  return error->find("kind")->string;
}

TEST(ServeEngine, PingAndBlankLines) {
  Engine engine;
  EXPECT_EQ(engine.handle_line("{\"id\":1,\"op\":\"ping\"}"),
            "{\"id\":1,\"ok\":true,\"op\":\"ping\"}");
  EXPECT_EQ(engine.handle_line(""), "");
  EXPECT_EQ(engine.handle_line("   \t\r"), "");
}

TEST(ServeEngine, EvalMissThenHitIsBitIdentical) {
  Engine engine;
  const JsonParsed miss =
      expect_response(engine.handle_line(eval_frame("1", kModelSource)));
  const JsonParsed hit =
      expect_response(engine.handle_line(eval_frame("2", kModelSource)));
  EXPECT_TRUE(miss.value.find("ok")->boolean);
  EXPECT_TRUE(hit.value.find("ok")->boolean);
  EXPECT_EQ(miss.value.find("cache")->string, "miss");
  EXPECT_EQ(hit.value.find("cache")->string, "hit");
  EXPECT_EQ(miss.value.find("hash")->string, hit.value.find("hash")->string);
  // Same totals, same structures — the cached program is the same program.
  const JsonValue& r0 = miss.value.find("results")->array.at(0);
  const JsonValue& r1 = hit.value.find("results")->array.at(0);
  EXPECT_EQ(r0.find("total")->number, r1.find("total")->number);
  EXPECT_EQ(engine.cache().hits(), 1u);
}

/// The `results` member of an eval response, which is its last member.
std::string results_bytes(const std::string& response) {
  const std::size_t at = response.find("\"results\":");
  return at == std::string::npos ? std::string() : response.substr(at);
}

TEST(ServeEngine, EscapedSourceHitRepeatsMissResultsBytes) {
  // The frame spells its source with every JSON escape kind, including a
  // \u surrogate pair between plain runs. The decoded bytes are the cache
  // key, so a respelling of the same bytes hits as well.
  const std::string frame =
      R"({"id":1,"op":"eval","source":"// tab\there, form\ffeed, bs\bhere,)"
      R"( cr\r\n// quote \" backslash \\ slash \/ emoji \ud83d\ude00 e\u0301\n)"
      R"(model \"m\" {\n  time 0.5;\n)"
      R"(  data A { elements 64; element_size 8; }\n)"
      R"(  pattern A stream { stride 1; repeat 4; }\n}\n"})";
  const std::string name = R"(\"m\")";
  std::string respelled = frame;
  respelled.replace(respelled.find(name), name.size(), R"(\u0022m\u0022)");

  Engine engine;
  const std::string miss = engine.handle_line(frame);
  const std::string hit = engine.handle_line(frame);
  const std::string respelled_hit = engine.handle_line(respelled);
  ASSERT_NE(miss.find("\"cache\":\"miss\""), std::string::npos) << miss;
  ASSERT_NE(hit.find("\"cache\":\"hit\""), std::string::npos) << hit;
  ASSERT_NE(respelled_hit.find("\"cache\":\"hit\""), std::string::npos)
      << respelled_hit;
  ASSERT_FALSE(results_bytes(miss).empty()) << miss;
  EXPECT_EQ(results_bytes(hit), results_bytes(miss));
  EXPECT_EQ(results_bytes(respelled_hit), results_bytes(miss));
}

// The acceptance criterion: a cache hit provably skips lex/parse/analyze —
// no dsl.* span is recorded on the hit path.
TEST(ServeEngine, CacheHitSkipsDslFrontEnd) {
  dvf::obs::reset();
  dvf::obs::set_enabled(true);
  Engine engine;
  (void)engine.handle_line(eval_frame("1", kModelSource));
  std::size_t miss_dsl_spans = 0;
  for (const dvf::obs::SpanRecord& span : dvf::obs::snapshot_spans()) {
    if (std::string_view(span.name).substr(0, 4) == "dsl.") {
      ++miss_dsl_spans;
    }
  }
  EXPECT_GT(miss_dsl_spans, 0u) << "miss path must run the front end";

  dvf::obs::drop_spans();
  const JsonParsed hit =
      expect_response(engine.handle_line(eval_frame("2", kModelSource)));
  EXPECT_EQ(hit.value.find("cache")->string, "hit");
  for (const dvf::obs::SpanRecord& span : dvf::obs::snapshot_spans()) {
    EXPECT_NE(std::string_view(span.name).substr(0, 4), "dsl.")
        << "hit path ran front-end stage " << span.name;
  }
  dvf::obs::set_enabled(false);
  dvf::obs::reset();
}

TEST(ServeEngine, HashOnlyRequestsReuseTheCache) {
  Engine engine;
  const JsonParsed first =
      expect_response(engine.handle_line(eval_frame("1", kModelSource)));
  const std::string hash = first.value.find("hash")->string;
  const JsonParsed second = expect_response(engine.handle_line(
      "{\"id\":2,\"op\":\"eval\",\"hash\":\"" + hash + "\"}"));
  ASSERT_TRUE(second.value.find("ok")->boolean);
  EXPECT_EQ(second.value.find("cache")->string, "hit");
  EXPECT_EQ(second.value.find("results")->array.at(0).find("total")->number,
            first.value.find("results")->array.at(0).find("total")->number);

  const JsonParsed unknown = expect_response(engine.handle_line(
      R"({"id":3,"op":"eval","hash":"0x1234567812345678"})"));
  EXPECT_FALSE(unknown.value.find("ok")->boolean);
  EXPECT_EQ(error_kind(unknown), wire::kUnknownHash);
}

TEST(ServeEngine, TypedErrorsForBadInput) {
  Engine engine;
  EXPECT_EQ(error_kind(expect_response(engine.handle_line("garbage"))),
            wire::kParseError);
  EXPECT_EQ(error_kind(expect_response(
                engine.handle_line(R"({"op":"eval","source":"model"})"))),
            wire::kModelError);
  EXPECT_EQ(error_kind(expect_response(engine.handle_line(
                eval_frame("1", "param n = 1; model \"m\" { time x; }")))),
            wire::kModelError);
  const std::string unknown_model =
      "{\"id\":1,\"op\":\"eval\",\"source\":" +
      json_escape_string(kModelSource) + ",\"model\":\"ghost\"}";
  EXPECT_EQ(error_kind(expect_response(engine.handle_line(unknown_model))),
            wire::kBadRequest);
  const std::string unknown_machine =
      "{\"id\":1,\"op\":\"eval\",\"source\":" +
      json_escape_string(kModelSource) + ",\"machine\":\"ghost\"}";
  EXPECT_EQ(error_kind(expect_response(engine.handle_line(unknown_machine))),
            wire::kBadRequest);
}

// A parse error reads like every other model_error: code, position, text.
TEST(ServeEngine, ParseErrorMessageIsCodeAtPosition) {
  Engine engine;
  const JsonParsed response = expect_response(
      engine.handle_line(eval_frame("1", "model \"m\" {\n time 1.0\n}")));
  EXPECT_EQ(error_kind(response), wire::kModelError);
  EXPECT_EQ(response.value.find("error")->find("message")->string,
            "DVF-E001 at 3:1: expected ';' (found '}')");
}

TEST(ServeEngine, OversizedFrameIsTooLarge) {
  EngineConfig config;
  config.max_request_bytes = 256;
  Engine engine(config);
  const JsonParsed response =
      expect_response(engine.handle_line(std::string(257, 'x')));
  EXPECT_EQ(error_kind(response), wire::kTooLarge);
}

TEST(ServeEngine, ExpansionBombDegradesToTypedError) {
  EngineConfig config;
  config.max_expansion = 1 << 12;
  config.max_references = 1 << 16;
  Engine engine(config);
  const std::string bomb =
      "model \"bomb\" {\n"
      "  time 1;\n"
      "  data T { elements 100000; element_size 8; }\n"
      "  pattern T template { start (0); step 1; count 100000; }\n"
      "}\n";
  const JsonParsed response =
      expect_response(engine.handle_line(eval_frame("1", bomb)));
  EXPECT_FALSE(response.value.find("ok")->boolean);
  EXPECT_EQ(error_kind(response), "resource_limit");
}

TEST(ServeEngine, VisitsBeyondThePopulationIsTypedDomainError) {
  // tests/lint_cases/e012_random_infeasible.aspen with a structure too big
  // for its cache share, so Eq. 6 (which needs k <= N) is reached.
  const std::string infeasible =
      "machine \"laptop\" {\n"
      "  cache { associativity 4; sets 64; line 32; }\n"
      "  memory { fit 5000; }\n"
      "}\n"
      "model \"case\" {\n"
      "  time 1.0;\n"
      "  data A { elements 1000; element_size 64; }\n"
      "  pattern A random { visits 5000; iterations 10; }\n"
      "}\n";
  Engine engine;
  const JsonParsed response =
      expect_response(engine.handle_line(eval_frame("1", infeasible)));
  EXPECT_FALSE(response.value.find("ok")->boolean);
  EXPECT_EQ(error_kind(response), "domain_error");
}

TEST(ServeEngine, MetricsOpReportsCacheCounters) {
  Engine engine;
  (void)engine.handle_line(eval_frame("1", kModelSource));
  (void)engine.handle_line(eval_frame("2", kModelSource));
  const JsonParsed response = expect_response(
      engine.handle_line(R"({"id":"m","op":"metrics"})"));
  ASSERT_TRUE(response.value.find("ok")->boolean);
  const JsonValue* serve = response.value.find("serve");
  ASSERT_NE(serve, nullptr);
  const JsonValue* cache = serve->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_DOUBLE_EQ(cache->find("hits")->number, 1.0);
  EXPECT_DOUBLE_EQ(cache->find("misses")->number, 1.0);
  EXPECT_DOUBLE_EQ(serve->find("requests")->number, 3.0);
}

TEST(ServeEngine, DrainWindowCapsAndThenRejects) {
  Engine engine;
  engine.begin_drain(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const JsonParsed response =
      expect_response(engine.handle_line(eval_frame("1", kModelSource)));
  EXPECT_FALSE(response.value.find("ok")->boolean);
  EXPECT_EQ(error_kind(response), "deadline_exceeded");
}

// ---- chaos harness --------------------------------------------------------

// Deadline storm: concurrent requests with microscopic deadlines against
// heavyweight models, mixed with garbage — every frame gets a well-formed
// typed response, the engine survives, request accounting stays exact.
TEST(ServeChaos, ConcurrentStormYieldsTypedResponsesOnly) {
  EngineConfig config;
  config.max_expansion = 1 << 14;
  config.max_references = 1 << 18;
  config.cache_capacity = 4;
  Engine engine(config);

  const std::string heavy =
      "model \"h\" {\n"
      "  time 1;\n"
      "  data T { elements 1048576; element_size 8; }\n"
      "  pattern T template { start (0); step 1; count 1048576; }\n"
      "}\n";
  const std::vector<std::string> frames = {
      eval_frame("1", kModelSource),
      "{\"id\":2,\"op\":\"eval\",\"source\":" + json_escape_string(heavy) +
          ",\"deadline_s\":0.001}",
      eval_frame("3", heavy),
      "{{{{{",
      R"({"op":"restart"})",
      std::string(100, '['),
      R"({"id":4,"op":"ping"})",
  };

  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 40;
  std::atomic<unsigned> malformed{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        const std::string& frame = frames[(t + i) % frames.size()];
        const std::string response = engine.handle_line(frame);
        const JsonParsed parsed = parse_json(response);
        if (!parsed.ok || !parsed.value.is_object() ||
            parsed.value.find("ok") == nullptr ||
            !parsed.value.find("ok")->is_bool()) {
          malformed.fetch_add(1);
          continue;
        }
        if (!parsed.value.find("ok")->boolean &&
            error_kind(parsed) == wire::kInternal) {
          malformed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_EQ(engine.requests_handled(), kThreads * kPerThread);
  EXPECT_EQ(engine.responses_ok() + engine.responses_error(),
            kThreads * kPerThread);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_LE(engine.cache().size(), 4u);  // bounded memory
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& [counter, value] : dvf::obs::snapshot_metrics().counters) {
    if (counter == name) {
      return value;
    }
  }
  return 0;
}

// Hit storm: two clients send the same two sources to one Engine with obs
// on, so nearly every request takes the hit path concurrently: the static
// metric handles, and the calculator on a 1-structure model and on a
// 32-structure one. Every response repeats the results bytes of a serial
// reference, and the counters add up.
TEST(ServeChaos, ConcurrentHitStormRepeatsResultsBytes) {
  std::string wide = "model \"wide\" {\n  time 0.25;\n";
  for (std::size_t i = 0; i < 32; ++i) {
    const std::string name = "S" + std::to_string(i);
    wide += "  data " + name + " { elements " + std::to_string(64 * (i + 1)) +
            "; element_size 8; }\n  pattern " + name +
            " stream { stride 1; }\n";
  }
  wide += "}\n";
  const std::vector<std::string> frames = {eval_frame("1", kModelSource),
                                           eval_frame("2", wide)};
  std::vector<std::string> expected;
  {
    Engine reference;
    for (const std::string& frame : frames) {
      expected.push_back(results_bytes(reference.handle_line(frame)));
      ASSERT_FALSE(expected.back().empty());
    }
  }

  dvf::obs::reset();
  dvf::obs::set_enabled(true);
  Engine engine;
  constexpr unsigned kClients = 2;
  constexpr unsigned kPerClient = 200;
  std::atomic<unsigned> wrong{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (unsigned i = 0; i < kPerClient; ++i) {
        const std::size_t pick = (c + i) % frames.size();
        if (results_bytes(engine.handle_line(frames[pick])) != expected[pick]) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  dvf::obs::set_enabled(false);

  constexpr std::uint64_t kTotal = kClients * kPerClient;
  EXPECT_EQ(wrong.load(), 0u);
  const std::uint64_t hits = counter_value("serve.cache.hit");
  EXPECT_EQ(hits + counter_value("serve.cache.miss"), kTotal);
  EXPECT_GE(hits, kTotal - kClients * frames.size());
  EXPECT_EQ(hits, engine.cache().hits());
  EXPECT_EQ(counter_value("serve.eval.ok"), kTotal);
  dvf::obs::reset();
}

// cancel_in_flight stops a long evaluation from another thread.
TEST(ServeChaos, CancelInFlightStopsLongEvaluations) {
  EngineConfig config;
  config.default_deadline_s = 30.0;  // only the cancel can stop it quickly
  config.max_deadline_s = 30.0;
  config.max_references = 0;
  config.max_expansion = std::uint64_t{1} << 23;
  Engine engine(config);
  const std::string slow =
      "model \"slow\" {\n"
      "  time 1;\n"
      "  data T { elements 4194304; element_size 8; }\n"
      "  pattern T template { start (0); step 1; count 4194303; }\n"
      "}\n";

  std::string response;
  std::thread request([&] {
    response = engine.handle_line(eval_frame("1", slow));
  });
  // Wait until the request is actually in flight, then cancel it.
  for (int i = 0; i < 1000 && engine.in_flight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.cancel_in_flight();
  request.join();
  const JsonParsed parsed = expect_response(response);
  if (!parsed.value.find("ok")->boolean) {
    EXPECT_EQ(error_kind(parsed), "deadline_exceeded");
  }
  // Either way the engine is intact and request-scoped state is gone.
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_TRUE(expect_response(
                  engine.handle_line(R"({"id":2,"op":"ping"})"))
                  .value.find("ok")
                  ->boolean);
}

// ---- socket server --------------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = "/tmp/dvf_serve_test_" + std::to_string(getpid()) + "_" +
                   std::to_string(counter_++) + ".sock";
    ServerConfig config;
    config.socket_path = socket_path_;
    config.workers = 2;
    config.queue_capacity = 16;
    config.drain_grace_s = 2.0;
    server_ = std::make_unique<Server>(config);
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
    // Wait for the listener.
    for (int i = 0; i < 1000 && connect_once() < 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void TearDown() override {
    server_->request_stop();
    thread_.join();
    EXPECT_EQ(exit_code_, 0);
    unlink(socket_path_.c_str());
  }

  int connect_once() {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  socket_path_.c_str());
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof addr) != 0) {
      close(fd);
      return -1;
    }
    return fd;
  }

  /// Sends `lines` and reads until `expected` newline-terminated responses
  /// arrived (or 5 s passed).
  std::vector<std::string> roundtrip(const std::string& payload,
                                     std::size_t expected) {
    const int fd = connect_once();
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::write(fd, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
    std::string buffer;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(
              std::count(buffer.begin(), buffer.end(), '\n')) >= expected) {
        break;
      }
    }
    close(fd);
    std::vector<std::string> lines;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i] == '\n') {
        lines.push_back(buffer.substr(begin, i - begin));
        begin = i + 1;
      }
    }
    return lines;
  }

  static inline std::atomic<int> counter_{0};
  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST_F(ServerFixture, AnswersOverTheSocket) {
  const std::vector<std::string> responses = roundtrip(
      "{\"id\":1,\"op\":\"ping\"}\n" + eval_frame("2", kModelSource) + "\n",
      2);
  ASSERT_EQ(responses.size(), 2u);
  for (const std::string& response : responses) {
    EXPECT_TRUE(expect_response(response).value.find("ok")->boolean)
        << response;
  }
}

TEST_F(ServerFixture, MidRequestDisconnectLeavesServerHealthy) {
  // Half a frame, no newline, slam the connection shut.
  const int fd = connect_once();
  ASSERT_GE(fd, 0);
  const std::string partial = "{\"id\":1,\"op\":\"eval\",\"sour";
  ASSERT_EQ(::write(fd, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  close(fd);
  // The server still answers a fresh connection.
  const std::vector<std::string> responses =
      roundtrip("{\"id\":2,\"op\":\"ping\"}\n", 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(expect_response(responses[0]).value.find("ok")->boolean);
}

TEST_F(ServerFixture, OversizedFrameGetsTooLargeOverTheWire) {
  const std::string oversized(server_->config().engine.max_request_bytes + 64,
                              'x');
  const std::vector<std::string> responses = roundtrip(oversized + "\n", 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(error_kind(expect_response(responses[0])), wire::kTooLarge);
}

}  // namespace
