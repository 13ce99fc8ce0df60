#include "obs/trace_reader.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace fetcam::obs {

namespace {

/// Cursor over one line of flat JSON.
struct Cursor {
    std::string_view s;
    std::size_t i = 0;

    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("trace parse error at column " + std::to_string(i) + ": " +
                                 what);
    }
    void skipWs() {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    }
    char peek() const { return i < s.size() ? s[i] : '\0'; }
    void expect(char c) {
        skipWs();
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++i;
    }
    bool consume(char c) {
        skipWs();
        if (peek() != c) return false;
        ++i;
        return true;
    }

    std::string parseString() {
        expect('"');
        std::string out;
        while (i < s.size() && s[i] != '"') {
            char ch = s[i++];
            if (ch == '\\') {
                if (i >= s.size()) fail("dangling escape");
                const char esc = s[i++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        if (i + 4 > s.size()) fail("short \\u escape");
                        const int code =
                            static_cast<int>(std::strtol(std::string(s.substr(i, 4)).c_str(),
                                                         nullptr, 16));
                        i += 4;
                        // Flat ASCII escapes only (that's all the sink emits).
                        out += static_cast<char>(code);
                        break;
                    }
                    default: fail("unknown escape");
                }
            } else {
                out += ch;
            }
        }
        if (i >= s.size()) fail("unterminated string");
        ++i;  // closing quote
        return out;
    }

    double parseNumber() {
        skipWs();
        const char* begin = s.data() + i;
        char* end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin) fail("expected number");
        i += static_cast<std::size_t>(end - begin);
        return v;
    }

    bool consumeWord(std::string_view w) {
        skipWs();
        if (s.substr(i, w.size()) != w) return false;
        i += w.size();
        return true;
    }
};

}  // namespace

std::optional<TraceRecord> parseTraceLine(std::string_view line) {
    Cursor c{line};
    c.skipWs();
    if (c.i >= line.size()) return std::nullopt;

    TraceRecord rec;
    c.expect('{');
    if (!c.consume('}')) {
        do {
            const std::string key = c.parseString();
            c.expect(':');
            c.skipWs();
            if (c.peek() == '"') {
                const std::string value = c.parseString();
                if (key == "type") rec.type = value;
                else if (key == "name") rec.name = value;
                else rec.str[key] = value;
            } else if (c.consumeWord("true")) {
                rec.num[key] = 1.0;
            } else if (c.consumeWord("false")) {
                rec.num[key] = 0.0;
            } else if (c.consumeWord("null")) {
                // ignore
            } else {
                const double value = c.parseNumber();
                if (key == "ts") rec.ts = value;
                else if (key == "dur") rec.dur = value;
                else if (key == "tid") rec.tid = static_cast<int>(value);
                else if (key == "depth") rec.depth = static_cast<int>(value);
                else rec.num[key] = value;
            }
        } while (c.consume(','));
        c.expect('}');
    }
    c.skipWs();
    if (c.i != line.size()) c.fail("trailing characters");
    return rec;
}

std::vector<TraceRecord> readTraceFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open trace file: " + path);
    std::vector<TraceRecord> out;
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        try {
            if (auto rec = parseTraceLine(line)) out.push_back(std::move(*rec));
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(path + ":" + std::to_string(lineNo) + ": " + e.what());
        }
    }
    return out;
}

std::vector<SpanStat> spanStats(const std::vector<TraceRecord>& records) {
    // Spans are written when they close (children before parents), so order
    // them by start time to reconstruct nesting. Within one thread, spans at
    // equal depth are disjoint; a span's parent is the latest shallower span
    // on the same thread that started at or before it. Spans on other
    // threads may overlap it at any depth, so nesting is rebuilt per tid.
    std::vector<const TraceRecord*> spans;
    for (const auto& r : records)
        if (r.isSpan()) spans.push_back(&r);
    std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
        if (a->ts != b->ts) return a->ts < b->ts;
        return a->depth < b->depth;
    });

    std::unordered_map<const TraceRecord*, double> childTime;
    std::unordered_map<int, std::vector<const TraceRecord*>> open;  // per tid
    for (const auto* s : spans) {
        auto& lastAtDepth = open[s->tid];
        const auto depth = static_cast<std::size_t>(std::max(s->depth, 0));
        if (lastAtDepth.size() <= depth) lastAtDepth.resize(depth + 1, nullptr);
        lastAtDepth[depth] = s;
        std::fill(lastAtDepth.begin() + static_cast<std::ptrdiff_t>(depth) + 1,
                  lastAtDepth.end(), nullptr);
        if (depth > 0 && lastAtDepth[depth - 1] != nullptr)
            childTime[lastAtDepth[depth - 1]] += s->dur;
    }

    std::map<std::string, SpanStat> byName;
    for (const auto* s : spans) {
        auto& stat = byName[s->name];
        stat.name = s->name;
        ++stat.count;
        stat.total += s->dur;
        stat.self += std::max(0.0, s->dur - childTime[s]);
        stat.max = std::max(stat.max, s->dur);
    }

    std::vector<SpanStat> out;
    out.reserve(byName.size());
    for (auto& [_, stat] : byName) out.push_back(std::move(stat));
    std::sort(out.begin(), out.end(),
              [](const SpanStat& a, const SpanStat& b) { return a.self > b.self; });
    return out;
}

}  // namespace fetcam::obs
