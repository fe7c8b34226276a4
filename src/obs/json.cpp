#include "obs/json.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace cbmpi::obs {

void append_escaped(std::string& out, std::string_view text) {
  // Bulk-append each run of bytes that needs no escape.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (byte) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
        out += buf;
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

namespace {

__extension__ using U128 = unsigned __int128;

constexpr std::array<std::uint64_t, 14> kPow10 = {
    1ULL,          10ULL,          100ULL,          1000ULL,
    10000ULL,      100000ULL,      1000000ULL,      10000000ULL,
    100000000ULL,  1000000000ULL,  10000000000ULL,  100000000000ULL,
    1000000000000ULL, 10000000000000ULL};

/// "%.10g" of a non-integral value with 1e-4 <= |value| < 1e10, computed
/// exactly: |value| = M * 2^-shift, the ten digits are floor(M * 10^k *
/// 2^-shift) in 128-bit integers, rounded half-to-even on the exact
/// remainder (what printf does). Returns false, appending nothing, outside
/// that range or when rounding carries up to 1e10 (exponent form).
bool append_g10_exact(std::string& out, double value) {
  const double mag = std::fabs(value);
  if (!(mag >= 1e-4 && mag < 1e10)) return false;
  const auto bits = std::bit_cast<std::uint64_t>(mag);
  const int biased = static_cast<int>(bits >> 52);  // normal over this range
  const U128 mant = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
  const int shift = 1075 - biased;  // 19..66 over this range
  // Decimal exponent: floor(e2 * log10(2)) is exact or one low; the digit
  // count of the scaled value settles it.
  int exp10 = ((biased - 1023) * 1233) >> 12;
  U128 scaled = 0;
  std::uint64_t digits = 0;
  for (;;) {
    const int k = 9 - exp10;
    if (k < 0 || k >= static_cast<int>(kPow10.size())) return false;
    scaled = mant * kPow10[static_cast<std::size_t>(k)];
    digits = static_cast<std::uint64_t>(scaled >> shift);
    if (digits >= kPow10[10]) {
      ++exp10;
    } else if (digits < kPow10[9]) {
      --exp10;
    } else {
      break;
    }
  }
  const U128 rem = scaled & ((U128{1} << shift) - 1);
  const U128 half = U128{1} << (shift - 1);
  if (rem > half || (rem == half && (digits & 1) != 0)) ++digits;
  if (digits == kPow10[10]) {  // 9.9999999995 -> 10
    digits = kPow10[9];
    if (++exp10 == 10) return false;
  }

  char buf[10];
  std::to_chars(std::begin(buf), std::end(buf), digits);  // exactly 10 digits
  std::size_t last = sizeof(buf);  // trailing zeros are dropped, as %g does
  while (buf[last - 1] == '0') --last;
  char text[24];  // at most "-0.000" and ten digits
  char* end = text;
  if (value < 0) *end++ = '-';
  if (exp10 >= 0) {
    const auto whole = static_cast<std::size_t>(exp10) + 1;
    end = std::copy_n(buf, whole, end);
    if (last > whole) {
      *end++ = '.';
      end = std::copy(buf + whole, buf + last, end);
    }
  } else {
    *end++ = '0';
    *end++ = '.';
    end = std::fill_n(end, -exp10 - 1, '0');
    end = std::copy_n(buf, last, end);
  }
  out.append(text, end);
  return true;
}

}  // namespace

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  // Integers (within uint53-ish range) render without a decimal point so
  // counters passed as doubles stay readable; everything else gets 10
  // significant digits.
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    if (std::signbit(value)) out += '-';  // "%.0f" keeps -0's sign
    append_integer(out, static_cast<std::uint64_t>(std::fabs(value)));
    return;
  }
  if (append_g10_exact(out, value)) return;
  char buf[32];
  const auto result = std::to_chars(std::begin(buf), std::end(buf), value,
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
  append_integer(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separate();
  append_integer(out_, number);
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  separate();
  out_ += boolean ? "true" : "false";
  return *this;
}

}  // namespace cbmpi::obs
