// Reader for the JSONL traces TraceSink writes: a minimal flat-JSON parser
// plus span aggregation (total/self time per span name) used by the
// fetcam_trace CLI and the obs tests.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::obs {

/// One parsed trace line. Booleans land in `num` as 0/1; the well-known
/// header keys (type/name/ts/dur/tid/depth) are lifted into struct fields
/// and also left out of the maps.
struct TraceRecord {
    std::string type;  ///< "span" or "event"
    std::string name;
    double ts = 0.0;   ///< seconds since trace start
    double dur = 0.0;  ///< span duration (0 for events)
    int tid = 0;       ///< emitting thread (0 in traces written without one)
    int depth = 0;     ///< span nesting on that thread
    std::map<std::string, double> num;
    std::map<std::string, std::string> str;

    bool isSpan() const { return type == "span"; }
    bool isEvent() const { return type == "event"; }
    double end() const { return ts + dur; }
};

/// Parse one JSONL line; std::nullopt for blank lines, throws
/// std::runtime_error on malformed JSON.
std::optional<TraceRecord> parseTraceLine(std::string_view line);

/// Read a whole trace file; throws std::runtime_error (with line number) on
/// I/O or parse errors.
std::vector<TraceRecord> readTraceFile(const std::string& path);

/// Aggregated wall time for all spans sharing a name.
struct SpanStat {
    std::string name;
    long long count = 0;
    double total = 0.0;  ///< sum of durations
    double self = 0.0;   ///< total minus time spent in direct child spans
    double max = 0.0;    ///< longest single span
};

/// Aggregate spans by name, computing self time from (ts, dur, depth)
/// nesting on each tid. Sorted by self time, descending.
std::vector<SpanStat> spanStats(const std::vector<TraceRecord>& records);

}  // namespace fetcam::obs
