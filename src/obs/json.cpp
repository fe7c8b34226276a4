#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace cbmpi::obs {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  // Integers (within uint53-ish range) render without a decimal point so
  // counters passed as doubles stay readable; everything else gets 10
  // significant digits.
  char buf[32];
  const bool integral = value == std::floor(value) && std::fabs(value) < 9.0e15;
  const auto result =
      integral ? std::to_chars(std::begin(buf), std::end(buf), value,
                               std::chars_format::fixed, 0)
               : std::to_chars(std::begin(buf), std::end(buf), value,
                               std::chars_format::general, 10);
  out.append(std::begin(buf), result.ptr);
}

std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string format_double(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  has_elements_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  has_elements_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  append_number(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  separate();
  out_ += boolean ? "true" : "false";
  return *this;
}

}  // namespace cbmpi::obs
