#include "sim/trace_export.hpp"

#include <charconv>
#include <iterator>

#include "obs/json.hpp"

namespace cbmpi::sim {

void append_chrome_events(std::string& out, std::span<const TraceEvent> events,
                          bool& first) {
  for (const auto& event : events) {
    if (!first) out += ',';
    first = false;
    // Instant events ("ph":"i") at the event's virtual timestamp; the source
    // rank is the process row so per-rank timelines line up.
    out += "{\"name\":\"";
    obs::append_escaped(out, to_string(event.kind));
    if (!event.note.empty()) {
      out += " [";
      obs::append_escaped(out, event.note);
      out += ']';
    }
    out += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
    obs::append_integer(out, event.src);
    out += ",\"tid\":";
    obs::append_integer(out, event.dst);
    // Instant timestamps use 6 significant digits (std::ostream's default,
    // "%.6g"), not append_number's 10.
    out += ",\"ts\":";
    char ts[32];
    const auto result = std::to_chars(std::begin(ts), std::end(ts), event.at,
                                      std::chars_format::general, 6);
    out.append(std::begin(ts), result.ptr);
    out += ",\"args\":{\"bytes\":";
    obs::append_integer(out, event.size);
    out += ",\"dst\":";
    obs::append_integer(out, event.dst);
    out += "}}";
  }
}

}  // namespace cbmpi::sim
