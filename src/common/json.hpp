// Minimal JSON emission, validation, and parsing, dependency-free.
//
// JsonWriter is a streaming emitter with automatic comma/nesting
// management, enough for the telemetry exports (metric snapshots, Chrome
// trace_event files) and perfbench's run records. json_is_valid is a
// strict RFC 8259 recursive-descent checker used by tests and CLI
// self-checks to prove emitted documents are well-formed without pulling
// in a parser library. JsonValue/json_parse is the read side: a small
// DOM for documents the library itself wrote (TuningCache files),
// returning nullopt instead of throwing so corrupted input degrades to
// "no data".
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fpga_stencil {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Strict well-formedness check of a complete JSON document.
bool json_is_valid(std::string_view text);

/// Parsed JSON document node. Deliberately small: ordered object members,
/// doubles for every number (the documents we read back carry nothing a
/// double cannot hold), and `\uXXXX` escapes decoded only for the ASCII
/// range (everything the JsonWriter ever emits).
struct JsonValue {
  enum class Type { null, boolean, number, string, array, object };

  Type type = Type::null;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> items;  ///< array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object, ordered

  [[nodiscard]] bool is_object() const { return type == Type::object; }
  [[nodiscard]] bool is_array() const { return type == Type::array; }
  [[nodiscard]] bool is_number() const { return type == Type::number; }
  [[nodiscard]] bool is_string() const { return type == Type::string; }

  /// Member lookup (objects only); null when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed accessors with fallbacks; wrong-typed nodes yield the fallback.
  [[nodiscard]] double as_double(double fallback = 0.0) const;
  [[nodiscard]] std::int64_t as_int64(std::int64_t fallback = 0) const;
  [[nodiscard]] std::string as_string(std::string fallback = {}) const;
  [[nodiscard]] bool as_bool(bool fallback = false) const;
};

/// Parses a complete JSON document; nullopt on any syntax error (the
/// caller treats a corrupt document exactly like a missing one).
std::optional<JsonValue> json_parse(std::string_view text);

/// Streaming JSON writer. Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("name").value("x");
///   w.key("rows").begin_array();
///   w.value(1).value(2);
///   w.end_array();
///   w.end_object();
/// Emits 2-space-indented output. Misuse (value without key inside an
/// object, unbalanced end_*) throws std::logic_error.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the member key; the next call must produce its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(std::int64_t(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

 private:
  enum class Scope { object, array };
  void before_value();
  void newline_indent();

  std::ostream& os_;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;
  bool key_pending_ = false;
};

}  // namespace fpga_stencil
