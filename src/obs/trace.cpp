#include "obs/trace.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace fetcam::obs {

namespace {

/// Minimal JSON string escaping: quotes, backslashes, control characters.
void appendEscaped(std::string& out, std::string_view s) {
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
}

void appendNumber(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/// This thread's trace id, assigned on its first record.
int threadId() noexcept {
    static std::atomic<int> next{1};
    thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

}  // namespace

TraceSink& TraceSink::global() {
    static TraceSink instance;
    return instance;
}

TraceSink::~TraceSink() { close(); }

bool TraceSink::open(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open()) out_.close();
    out_.open(path, std::ios::out | std::ios::trunc);
    if (!out_) {
        active_.store(false, std::memory_order_relaxed);
        return false;
    }
    path_ = path;
    epoch_ = std::chrono::steady_clock::now();
    active_.store(true, std::memory_order_relaxed);
    return true;
}

void TraceSink::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.store(false, std::memory_order_relaxed);
    if (out_.is_open()) {
        out_.flush();
        out_.close();
    }
}

double TraceSink::now() const noexcept {
    if (!active()) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void TraceSink::event(std::string_view name, std::initializer_list<Field> fields) {
    if (!active()) return;
    writeRecord("event", name, now(), spanDepth(), fields.begin(), fields.size(),
                /*dur=*/0.0, /*hasDur=*/false);
}

void TraceSink::span(std::string_view name, double ts, double dur, int depth,
                     const std::vector<Field>& fields) {
    if (!active()) return;
    writeRecord("span", name, ts, depth, fields.data(), fields.size(), dur, /*hasDur=*/true);
}

void TraceSink::writeRecord(std::string_view type, std::string_view name, double ts,
                            int depth, const Field* fields, std::size_t numFields,
                            double dur, bool hasDur) {
    std::string line;
    line.reserve(128 + numFields * 24);
    line += "{\"type\":\"";
    line += type;
    line += "\",\"name\":\"";
    appendEscaped(line, name);
    line += "\",\"ts\":";
    appendNumber(line, ts);
    if (hasDur) {
        line += ",\"dur\":";
        appendNumber(line, dur);
    }
    line += ",\"tid\":";
    line += std::to_string(threadId());
    line += ",\"depth\":";
    appendNumber(line, depth);
    for (std::size_t i = 0; i < numFields; ++i) {
        const Field& f = fields[i];
        line += ",\"";
        appendEscaped(line, f.key());
        line += "\":";
        switch (f.kind()) {
            case Field::Kind::Num: appendNumber(line, f.num()); break;
            case Field::Kind::Int: line += std::to_string(f.intValue()); break;
            case Field::Kind::Bool: line += f.intValue() ? "true" : "false"; break;
            case Field::Kind::Str:
                line += '"';
                appendEscaped(line, f.str());
                line += '"';
                break;
        }
    }
    line += "}\n";

    std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open()) out_ << line;
}

int& spanDepth() noexcept {
    thread_local int depth = 0;
    return depth;
}

SpanGuard::SpanGuard(const char* name, std::initializer_list<Field> fields) : name_(name) {
    auto& sink = TraceSink::global();
    if (!sink.active()) return;
    active_ = true;
    fields_.assign(fields.begin(), fields.end());
    depth_ = spanDepth()++;
    t0_ = sink.now();
}

SpanGuard::~SpanGuard() {
    if (!active_) return;
    --spanDepth();
    auto& sink = TraceSink::global();
    sink.span(name_, t0_, sink.now() - t0_, depth_, fields_);
}

void SpanGuard::add(Field field) {
    if (active_) fields_.push_back(field);
}

}  // namespace fetcam::obs
