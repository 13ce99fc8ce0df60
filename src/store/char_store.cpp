#include "store/char_store.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "obs/obs.hpp"
#include "recover/sim_error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define FETCAM_STORE_HAVE_FLOCK 1
#endif

namespace fetcam::store {

namespace fs = std::filesystem;
using recover::SimError;
using recover::SimErrorReason;

CharStore::CharStore(StoreConfig config) : config_(std::move(config)) {
    if (!config_.enabled())
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "store directory must not be empty");
    std::error_code ec;
    if (!config_.readOnly) {
        fs::create_directories(config_.dir, ec);
        if (ec)
            throw SimError(SimErrorReason::IoError, "store::CharStore",
                           "cannot create store directory " + config_.dir + ": " +
                               ec.message());
#ifdef FETCAM_STORE_HAVE_FLOCK
        const std::string lockPath = (fs::path(config_.dir) / config_.lockName).string();
        lockFd_ = ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (lockFd_ < 0)
            throw SimError(SimErrorReason::IoError, "store::CharStore",
                           "cannot open lock file " + lockPath + ": " +
                               std::string(std::strerror(errno)));
        if (::flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
            ::close(lockFd_);
            lockFd_ = -1;
            throw SimError(SimErrorReason::IoError, "store::CharStore",
                           "store " + config_.dir +
                               " is locked by another writer (use readOnly to share)");
        }
#endif
    } else if (!fs::is_directory(config_.dir, ec)) {
        // Read-only against a missing directory: legal, just serves nothing.
    }
}

CharStore::~CharStore() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        try {
            writer_.flush();
        } catch (...) {
            // Destructor: best effort; the log still ends on a frame boundary.
        }
        writer_.close();
    }
#ifdef FETCAM_STORE_HAVE_FLOCK
    if (lockFd_ >= 0) {
        ::flock(lockFd_, LOCK_UN);
        ::close(lockFd_);
    }
#endif
}

std::string CharStore::logPath() const {
    return (fs::path(config_.dir) / config_.logName).string();
}

std::vector<Record> CharStore::load() {
    if (loaded_)
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "load() may only run once per store");
    loaded_ = true;

    const bool obsOn = obs::enabled();
    const double t0 = obsOn ? obs::monotonicSeconds() : 0.0;
    obs::SpanGuard span("store.load", {{"dir", config_.dir}});

    const std::string path = logPath();
    std::vector<Record> records;
    ReadStats rs;
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        loadStats_.startedFresh = true;
        if (!config_.readOnly) {
            std::lock_guard<std::mutex> lock(mutex_);
            openWriterLocked(-1);
        }
    } else {
        try {
            records = readLog(path, config_.schemaVersion, rs);
            loadStats_.recordsLoaded = rs.records;
            loadStats_.bytesLoaded = rs.bytes;
            loadStats_.truncatedTail = rs.truncatedTail;
            loadStats_.tailBytesDropped = rs.tailBytesDropped;
            if (rs.truncatedTail) loadStats_.recordsSalvaged = rs.records;
            if (!config_.readOnly) {
                std::lock_guard<std::mutex> lock(mutex_);
                // Reattach after the last valid frame; a goodOffset of 0
                // means even the header was torn, so start fresh.
                openWriterLocked(rs.goodOffset > 0 ? rs.goodOffset : 0);
            }
        } catch (const SimError& e) {
            if (e.reason() != SimErrorReason::CorruptData || config_.readOnly) throw;
            // Read-write mode: the log is unusable (corruption or version
            // drift). Quarantine it for post-mortem and start fresh — cold
            // characterization repopulates; stale physics never serves.
            records.clear();
            loadStats_ = {};
            loadStats_.quarantined = true;
            loadStats_.quarantineReason = e.what();
            loadStats_.startedFresh = true;
            fs::rename(path, path + kQuarantineSuffix, ec);
            if (ec)
                throw SimError(SimErrorReason::IoError, "store::CharStore",
                               "cannot quarantine corrupt log " + path + ": " +
                                   ec.message());
            std::lock_guard<std::mutex> lock(mutex_);
            openWriterLocked(-1);
        }
    }

    if (obsOn) {
        loadStats_.loadSeconds = obs::monotonicSeconds() - t0;
        static obs::Counter& loaded = obs::counter("store.records.loaded");
        static obs::Counter& salvaged = obs::counter("store.records.salvaged");
        loaded.add(loadStats_.recordsLoaded);
        salvaged.add(loadStats_.recordsSalvaged);
        if (loadStats_.quarantined) obs::counter("store.quarantined").add();
    }
    return records;
}

void CharStore::openWriterLocked(std::int64_t resumeOffset) {
    writer_.open(logPath(), config_.schemaVersion, resumeOffset);
    // A fresh log (or a header rewritten at offset 0) is a new directory
    // entry: fsync the directory too, or a crash between file creation and
    // dir-entry durability could orphan the first appends. Typed, not
    // best-effort — losing durability must not be silent.
    if (resumeOffset <= 0) syncDirectory(config_.dir);
}

void CharStore::append(std::string_view key, std::string_view payload) {
    if (config_.readOnly)
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "append on a read-only store");
    std::lock_guard<std::mutex> lock(mutex_);
    if (!writer_.isOpen())
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "append before load()");
    writer_.append(key, payload);
    ++appended_;
    if (obs::enabled()) {
        static obs::Counter& appended = obs::counter("store.records.appended");
        appended.add();
    }
}

void CharStore::flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writer_.isOpen()) writer_.flush();
}

void CharStore::compact(const std::vector<Record>& records) {
    if (config_.readOnly)
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "compact on a read-only store");
    std::lock_guard<std::mutex> lock(mutex_);
    if (!writer_.isOpen())
        throw SimError(SimErrorReason::InvalidSpec, "store::CharStore",
                       "compact before load()");
    obs::SpanGuard span("store.compact",
                        {{"records", static_cast<long long>(records.size())}});

    const std::string path = logPath();
    const std::string tmp = path + kCompactSuffix;
    {
        // Snapshot into a sibling file, make it durable, then rename over
        // the log: a crash at any point leaves either the old log or the
        // complete new one, never a half-written mix.
        LogWriter snapshot;
        snapshot.open(tmp, config_.schemaVersion, -1);
        for (const auto& r : records) snapshot.append(r.key, r.payload);
        snapshot.flush();
    }
    writer_.close();
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        // Put the appender back on the old log so the store stays usable.
        writer_.open(path, config_.schemaVersion,
                     static_cast<std::int64_t>(fs::file_size(path)));
        throw SimError(SimErrorReason::IoError, "store::CharStore",
                       "compaction rename failed: " + ec.message());
    }
    // The rename replaced the directory entry; make that durable before
    // acknowledging the compaction.
    syncDirectory(config_.dir);
    writer_.open(path, config_.schemaVersion,
                 static_cast<std::int64_t>(fs::file_size(path)));
}

std::int64_t CharStore::appendedRecords() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return appended_;
}

std::int64_t CharStore::logBytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return writer_.isOpen() ? writer_.fileBytes() : 0;
}

StoreHandle::StoreHandle(const StoreConfig& config, const Apply& apply) {
    status_.attached = true;
    status_.readOnly = config.readOnly;
    try {
        auto store = std::make_unique<CharStore>(config);
        apply(store->load());
        status_.load = store->loadStats();
        store_ = std::move(store);
    } catch (const SimError& e) {
        degrade(e);
    }
}

void StoreHandle::degrade(const SimError& e) {
    status_.degraded = true;
    status_.errorReason = e.reason();
    status_.error = e.what();
    store_.reset();
    if (obs::enabled()) obs::counter("store.degraded").add();
}

void StoreHandle::append(std::string_view key, std::string_view payload) {
    if (!writable()) return;
    try {
        store_->append(key, payload);
        ++status_.appended;
    } catch (const SimError& e) {
        degrade(e);
    }
}

void StoreHandle::flush() {
    if (!writable()) return;
    try {
        store_->flush();
    } catch (const SimError& e) {
        degrade(e);
    }
}

bool StoreHandle::compact(const std::vector<Record>& records) {
    if (!writable()) return false;
    try {
        store_->compact(records);
        return true;
    } catch (const SimError& e) {
        degrade(e);
        return false;
    }
}

}  // namespace fetcam::store
