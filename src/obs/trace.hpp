// Structured trace sink: JSONL span/event records.
//
// One record per line, flat JSON objects only:
//   {"type":"span","name":"spice.transient","ts":1.2e-3,"dur":4.5e-2,"tid":1,"depth":0,...}
//   {"type":"event","name":"step.accept","ts":2.0e-3,"tid":1,"depth":1,"t":1e-9,...}
//
// `ts` is monotonic wall seconds since the sink was opened; `tid` is a small
// per-thread id (1, 2, ... in order of each thread's first record); `depth`
// is the span-nesting depth on the emitting thread (spans report the depth at
// which they opened; events report the number of spans open around them).
// Spans are written when they close, so a parent appears *after* its children
// in the file — readers reconstruct nesting per tid from (ts, dur, depth).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fetcam::obs {

/// One extra key/value attached to a span or event record.
class Field {
public:
    enum class Kind { Num, Int, Bool, Str };

    Field(const char* key, double v) : key_(key), kind_(Kind::Num), num_(v) {}
    Field(const char* key, int v) : key_(key), kind_(Kind::Int), int_(v) {}
    Field(const char* key, long long v) : key_(key), kind_(Kind::Int), int_(v) {}
    Field(const char* key, bool v) : key_(key), kind_(Kind::Bool), int_(v ? 1 : 0) {}
    Field(const char* key, std::string_view v) : key_(key), kind_(Kind::Str), str_(v) {}
    Field(const char* key, const char* v) : key_(key), kind_(Kind::Str), str_(v) {}

    const char* key() const { return key_; }
    Kind kind() const { return kind_; }
    double num() const { return num_; }
    long long intValue() const { return int_; }
    std::string_view str() const { return str_; }

private:
    const char* key_;
    Kind kind_;
    double num_ = 0.0;
    long long int_ = 0;
    std::string_view str_;  // must outlive the emit call (true for literals)
};

/// Process-wide JSONL writer. Inactive (every emit a cheap early-out) until
/// open() succeeds. Thread-safe: one mutex around the stream, span depth is
/// thread-local.
class TraceSink {
public:
    static TraceSink& global();

    /// Open (truncate) `path` and start accepting records. Returns false and
    /// stays inactive if the file cannot be created.
    bool open(const std::string& path);
    void close();
    bool active() const noexcept { return active_.load(std::memory_order_relaxed); }
    const std::string& path() const { return path_; }

    /// Emit an event record at the current time and span depth.
    void event(std::string_view name, std::initializer_list<Field> fields = {});

    /// Emit a closed span record (normally via SpanGuard, not directly).
    void span(std::string_view name, double ts, double dur, int depth,
              const std::vector<Field>& fields);

    /// Monotonic seconds since open() (0 when inactive).
    double now() const noexcept;

    ~TraceSink();

private:
    TraceSink() = default;

    void writeRecord(std::string_view type, std::string_view name, double ts, int depth,
                     const Field* fields, std::size_t numFields, double dur, bool hasDur);

    std::atomic<bool> active_{false};
    std::mutex mutex_;
    std::ofstream out_;
    std::string path_;
    std::chrono::steady_clock::time_point epoch_{};
};

/// Current span-nesting depth on this thread.
int& spanDepth() noexcept;

/// RAII span: records the start time on construction, emits a span record on
/// destruction with the measured duration. No-op (no clock read, no
/// allocation) while the sink is inactive.
class SpanGuard {
public:
    explicit SpanGuard(const char* name, std::initializer_list<Field> fields = {});
    ~SpanGuard();

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

    /// Attach an extra field before the span closes (e.g. a result computed
    /// inside the scope). Ignored while inactive.
    void add(Field field);

private:
    const char* name_;
    bool active_ = false;
    double t0_ = 0.0;
    int depth_ = 0;
    std::vector<Field> fields_;
};

}  // namespace fetcam::obs
