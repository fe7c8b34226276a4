// Minimal recursive-descent JSON reader for the offline analysis tooling
// (tools/cbmpi-analyze). The write side (obs/json.hpp) is streaming-only;
// this is its read-side counterpart: a full-document parse into a value
// tree, sized for run reports and bench --json artifacts, not for
// streaming gigabyte traces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cbmpi::obs::analysis {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }
  const std::map<std::string, JsonValue>& as_object() const { return object_; }

  /// Object member by key; a shared Null sentinel when absent (so lookups
  /// chain without null checks: doc["job"]["seed"].as_int()).
  const JsonValue& operator[](const std::string& name) const;
  /// Array element by index; Null sentinel when out of range.
  const JsonValue& operator[](std::size_t index) const;

  bool has(const std::string& name) const {
    return object_.find(name) != object_.end();
  }
  std::size_t size() const {
    return kind_ == Kind::Array ? array_.size() : object_.size();
  }

  /// Parses one complete document. On malformed input, `error` (when
  /// non-null) gets a message with byte offset and the result is Null.
  static JsonValue parse(const std::string& text, std::string* error = nullptr);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace cbmpi::obs::analysis
