#include "dvf/serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

namespace dvf::serve {

namespace {

RequestParse reject(std::string id_json, const char* kind,
                    std::string message) {
  RequestParse parse;
  parse.kind = kind;
  parse.message = std::move(message);
  parse.id_json = std::move(id_json);
  return parse;
}

/// Re-serializes a request id. Only scalars make sense as correlation
/// keys; anything else is rejected so a response's id is always one token.
std::optional<std::string> id_to_json(const JsonValue& id) {
  switch (id.kind) {
    case JsonValue::Kind::kNull:
      return std::string("null");
    case JsonValue::Kind::kString:
      return json_escape_string(id.string);
    case JsonValue::Kind::kNumber:
      if (!std::isfinite(id.number)) {
        return std::nullopt;
      }
      return json_number(id.number);
    default:
      return std::nullopt;
  }
}

}  // namespace

std::string hash_hex(std::uint64_t hash) {
  std::string text = "0x0000000000000000";
  char digits[16];
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof digits, hash, 16);
  std::copy(digits, end, text.end() - (end - digits));
  return text;
}

std::optional<std::uint64_t> parse_hash_hex(std::string_view text) {
  if (text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

RequestParse parse_request(std::string_view line) {
  JsonParsed parsed = parse_json(line);
  if (!parsed.ok) {
    return reject("null", wire::kParseError,
                  parsed.error + " (at byte " +
                      std::to_string(parsed.offset) + ")");
  }
  if (!parsed.value.is_object()) {
    return reject("null", wire::kBadRequest,
                  "request frame must be a JSON object");
  }

  // Recover the id first so every later rejection still correlates.
  std::string id_json = "null";
  if (const JsonValue* id = parsed.value.find("id")) {
    auto serialized = id_to_json(*id);
    if (!serialized.has_value()) {
      return reject("null", wire::kBadRequest,
                    "'id' must be a string, finite number or null");
    }
    id_json = std::move(*serialized);
  }

  EvalRequest request;
  request.id_json = id_json;

  if (const JsonValue* op = parsed.value.find("op")) {
    if (!op->is_string()) {
      return reject(id_json, wire::kBadRequest, "'op' must be a string");
    }
    request.op = op->string;
  }
  if (request.op != "eval" && request.op != "ping" &&
      request.op != "metrics") {
    return reject(id_json, wire::kBadRequest,
                  "unknown op '" + request.op +
                      "' (expected eval, ping or metrics)");
  }

  if (JsonValue* source = parsed.value.find("source")) {
    if (!source->is_string()) {
      return reject(id_json, wire::kBadRequest, "'source' must be a string");
    }
    request.source = std::move(source->string);
  }
  if (const JsonValue* hash = parsed.value.find("hash")) {
    if (!hash->is_string()) {
      return reject(id_json, wire::kBadRequest,
                    "'hash' must be a string like \"0x1234...\"");
    }
    request.hash = parse_hash_hex(hash->string);
    if (!request.hash.has_value()) {
      return reject(id_json, wire::kBadRequest,
                    "'hash' is not a 64-bit hex hash: '" + hash->string +
                        "'");
    }
  }
  if (const JsonValue* model = parsed.value.find("model")) {
    if (!model->is_string()) {
      return reject(id_json, wire::kBadRequest, "'model' must be a string");
    }
    request.model = model->string;
  }
  if (const JsonValue* machine = parsed.value.find("machine")) {
    if (!machine->is_string()) {
      return reject(id_json, wire::kBadRequest, "'machine' must be a string");
    }
    request.machine = machine->string;
  }
  if (const JsonValue* deadline = parsed.value.find("deadline_s")) {
    if (!deadline->is_number() || !std::isfinite(deadline->number) ||
        deadline->number <= 0.0) {
      return reject(id_json, wire::kBadRequest,
                    "'deadline_s' must be a positive finite number");
    }
    request.deadline_s = deadline->number;
  }
  if (const JsonValue* time = parsed.value.find("exec_time_s")) {
    if (!time->is_number() || !std::isfinite(time->number) ||
        time->number < 0.0) {
      return reject(id_json, wire::kBadRequest,
                    "'exec_time_s' must be a non-negative finite number");
    }
    request.exec_time_s = time->number;
  }

  if (request.op == "eval" && request.source.empty() &&
      !request.hash.has_value()) {
    return reject(id_json, wire::kBadRequest,
                  "eval requires 'source' (DSL text) or 'hash' (a canonical "
                  "hash previously returned by this daemon)");
  }

  RequestParse parse;
  parse.ok = true;
  parse.request = std::move(request);
  parse.id_json = std::move(id_json);
  return parse;
}

std::string error_response(std::string_view id_json, std::string_view kind,
                           std::string_view message, long retry_after_ms) {
  std::string out = "{\"id\":";
  out += id_json;
  out += ",\"ok\":false,\"error\":{\"kind\":";
  out += json_escape_string(kind);
  out += ",\"message\":";
  out += json_escape_string(message);
  if (retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
  }
  out += "}}";
  return out;
}

}  // namespace dvf::serve
