// CharStore: crash-safe persistent characterization store.
//
// A store is a directory holding one append-only record log (`char.fcs`)
// plus a writer lock file (`char.lock`). Lifecycle:
//
//   * construction creates the directory (read-write mode) and takes an
//     exclusive advisory lock, so two writing processes can never interleave
//     appends into one log;
//   * load() streams and validates the log. A torn tail (crash mid-append)
//     is salvaged — the valid prefix is kept and the tail truncated before
//     the writer reattaches. A log that fails validation outright (bad
//     magic/CRC, container or schema version drift) is *quarantined* to
//     `char.fcs.corrupt` in read-write mode and a fresh log started; in
//     read-only mode the typed SimError(CorruptData) propagates so the
//     caller can fall back to cold characterization;
//   * append() write-behind-appends one record; flush() makes everything
//     appended so far durable (fflush + fsync);
//   * compact() atomically replaces the log with a deduplicated snapshot
//     (write to `char.fcs.tmp`, fsync, rename over the log).
//
// obs metrics (when obs::enabled()): store.records.loaded / .salvaged /
// .appended counters and a store.load span with per-load fields.
//
// Thread safety: load() is construction-time single-shot; append/flush/
// compact serialize on an internal mutex so the serve cache can append from
// concurrent characterize() misses.
//
// StoreHandle (below) is how owners use a CharStore: it opens and loads the
// log, hands the records to the owner, and falls back to memory-only with a
// typed StoreStatus on any store trouble, then or later.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "recover/sim_error.hpp"
#include "store/record_log.hpp"

namespace fetcam::store {

struct StoreConfig {
    std::string dir;                  ///< store directory; empty = no store
    bool readOnly = false;            ///< load only: no lock, no appends
    std::uint32_t schemaVersion = 0;  ///< key/payload layout the caller packs
    /// Log/lock file names inside the directory. Defaults are the
    /// characterization log; other record families (the entry delta log)
    /// share one directory by using distinct names, each with its own
    /// writer lock.
    std::string logName = "char.fcs";
    std::string lockName = "char.lock";

    bool enabled() const { return !dir.empty(); }
};

struct LoadStats {
    std::int64_t recordsLoaded = 0;    ///< usable records handed to the caller
    std::int64_t recordsSalvaged = 0;  ///< loaded from a log with a torn tail
    std::int64_t bytesLoaded = 0;
    std::int64_t tailBytesDropped = 0;  ///< torn bytes truncated away
    bool truncatedTail = false;
    bool startedFresh = false;  ///< no usable prior log existed
    bool quarantined = false;   ///< prior log failed validation, set aside
    std::string quarantineReason;
    double loadSeconds = 0.0;
};

class CharStore {
public:
    static constexpr const char* kLogName = "char.fcs";
    static constexpr const char* kLockName = "char.lock";
    /// Entry delta-record log names (see serve/delta_log.hpp): same
    /// directory, own writer lock, so one store dir can hold both record
    /// families.
    static constexpr const char* kTableLogName = "table.fcs";
    static constexpr const char* kTableLockName = "table.lock";
    static constexpr const char* kQuarantineSuffix = ".corrupt";
    static constexpr const char* kCompactSuffix = ".tmp";

    /// Opens the store directory. Read-write mode creates it when missing
    /// and takes the writer lock. Throws SimError(IoError) when the
    /// directory cannot be created or another writer holds the lock.
    explicit CharStore(StoreConfig config);
    ~CharStore();
    CharStore(const CharStore&) = delete;
    CharStore& operator=(const CharStore&) = delete;

    /// Single-shot: read every valid record and (read-write mode) attach the
    /// appender after the last valid frame. See class comment for the
    /// salvage/quarantine rules. Throws SimError(CorruptData) only in
    /// read-only mode; SimError(InvalidSpec) when called twice.
    std::vector<Record> load();

    /// Append one record (write-behind: buffered until flush()). Throws
    /// SimError(InvalidSpec) in read-only mode or before load().
    void append(std::string_view key, std::string_view payload);

    /// Make every appended record durable.
    void flush();

    /// Atomically replace the log with exactly `records` (the caller dedups;
    /// the store just snapshots). Throws SimError(InvalidSpec) in read-only
    /// mode or before load().
    void compact(const std::vector<Record>& records);

    const StoreConfig& config() const { return config_; }
    const LoadStats& loadStats() const { return loadStats_; }
    std::int64_t appendedRecords() const;
    std::int64_t logBytes() const;
    std::string logPath() const;
    bool readOnly() const { return config_.readOnly; }

private:
    void openWriterLocked(std::int64_t resumeOffset);

    StoreConfig config_;
    LoadStats loadStats_;
    bool loaded_ = false;
    int lockFd_ = -1;

    mutable std::mutex mutex_;  ///< guards writer_ + appended_
    LogWriter writer_;
    std::int64_t appended_ = 0;
};

/// Health of a StoreHandle, for tools and tests.
struct StoreStatus {
    bool attached = false;  ///< a store was configured behind the owner
    bool readOnly = false;
    bool degraded = false;  ///< open/load/apply or a later write failed; memory-only
    recover::SimErrorReason errorReason = recover::SimErrorReason::IoError;
    std::string error;  ///< empty when healthy
    LoadStats load;
    std::int64_t appended = 0;  ///< records written through this handle
};

/// One record log behind a fallback-to-memory policy. Store trouble never
/// escapes: any SimError detaches the log, marks the handle degraded (reason
/// and message in status(), obs counter store.degraded) and the owner keeps
/// serving from memory — cold state is always correct, a half-read log is
/// not. Not thread-safe: the owner serializes calls under its own lock.
class StoreHandle {
public:
    using Apply = std::function<void(const std::vector<Record>&)>;

    /// Detached: no store configured.
    StoreHandle() = default;

    /// Opens and loads `config`'s log, then passes every record to `apply`.
    /// `apply` must check every record before it changes any owner state and
    /// throw SimError(CorruptData) on one it cannot use, so a rejected log is
    /// never half-applied. A SimError from open, load or apply degrades.
    StoreHandle(const StoreConfig& config, const Apply& apply);

    /// Attached, healthy and read-write: append/flush/compact reach the log.
    /// Each of them is a no-op otherwise.
    bool writable() const { return store_ && !store_->readOnly(); }
    void append(std::string_view key, std::string_view payload);
    void flush();
    /// Atomically replace the log with `records`. False when not writable
    /// or when the compaction failed (the handle is then degraded).
    bool compact(const std::vector<Record>& records);

    const StoreStatus& status() const { return status_; }

private:
    void degrade(const recover::SimError& e);

    std::unique_ptr<CharStore> store_;  ///< null when detached or degraded
    StoreStatus status_;
};

}  // namespace fetcam::store
