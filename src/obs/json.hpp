// Minimal streaming JSON writer shared by every machine-readable emitter
// (run reports, Perfetto traces, bench --json output).
//
// Determinism contract: the writer itself imposes no ordering, but number
// formatting is fixed and locale-independent: append_number renders a double
// byte for byte as snprintf's "%.0f" (integral values below 9e15) or "%.10g"
// (everything else) would print, so two runs that feed identical values and
// key orders produce byte-identical documents. Integral values go through
// integer std::to_chars and non-integral ones with 1e-4 <= |v| < 1e10 through
// an exact 128-bit digit path (round half to even, as printf), the rest
// through std::to_chars; all three are exact.
// Callers are responsible for iterating containers in a deterministic order
// (sorted names, virtual-time order) before writing.
//
// Every emitter appends to one std::string through the two append helpers
// below; escape_json and format_double are their string-returning forms.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cbmpi::obs {

/// Appends `text` escaped for inclusion inside a JSON string literal: quotes,
/// backslashes, and every control character below 0x20 (the common ones as
/// two-character escapes, the rest as \u00XX).
void append_escaped(std::string& out, std::string_view text);

/// Appends the fixed rendering of a double: integral values below 9e15 in
/// magnitude with no decimal point ("%.0f"), everything else as "%.10g";
/// NaN/Inf become 0 since JSON has no spelling for them.
void append_number(std::string& out, double value);

/// Appends the decimal spelling of an integer through std::to_chars.
template <std::integral T>
void append_integer(std::string& out, T value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

/// append_escaped into a fresh string.
std::string escape_json(std::string_view text);

/// append_number into a fresh string.
std::string format_double(double value);

/// Streaming writer with automatic comma placement. Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("fig08");
///   w.key("rows").begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///   std::string doc = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; must be followed by exactly one value or
  /// container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(bool boolean);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  std::string str() const { return out_; }

 private:
  void separate();

  std::string out_;
  /// One entry per open container: true once the first element was written.
  std::vector<bool> has_elements_;
  bool after_key_ = false;
};

}  // namespace cbmpi::obs
