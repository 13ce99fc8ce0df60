// QueryEngine: the serving half of the characterize-then-serve split.
//
// Separates what a production TCAM service actually does per query —
// *functional* ternary match over the stored words (exact, per the F9
// golden-model cross-checks) — from *electrical costing* (energy / delay /
// margin), which comes from the characterization cache and is charged
// analytically per query without ever touching the solver.
//
// Two layouts, deliberately decoupled:
//   * the *priced* geometry mirrors the hardware (and the F14 bank model):
//     entries shard across sub-array banks of `options.shard.rows` rows,
//     each with a local priority encoder feeding a global one. bank_,
//     shards(), rowsPerShard(), energyPerQuery() and report() describe it;
//   * the *software* layout is fixed kChunkRows-row chunks, whatever the
//     priced shard size: a chunk is the unit the engine scans and the unit
//     of copy-on-write. Chunks cover ascending row ranges, so the first
//     chunk to report a match holds the lowest matching row — the same
//     answer the two-level encoder gives — and every answer is independent
//     of shard.rows; only the energy accounting follows the priced shards.
// Incoming queries batch, and batches fan out across worker threads with
// numeric::parallelFor (deterministic for any jobs value). Each chunk is a
// tcam::TernaryPlanes: the 2FeFET cell's kill planes, the whole 1024-row
// chunk cleared per key bit (see tcam/bitplanes.hpp).
//
// Concurrency: mutations are safe while batches are in flight. The table is
// one published root — a shared_ptr to a vector of per-chunk plane
// snapshots. A search pins that root once per batch (under a leaf mutex held
// only for the pin) and scans a fully consistent version of every chunk.
// Mutations are serialized by a writer mutex and, like Arc::make_mut, copy
// only what a reader can see: while some reader is pinned, a mutation clones
// the affected chunk and swaps in a new root (counted in the
// serve.writes.chunk_copies obs counter); while none is, the current root is
// the only live one and the mutation writes the row in place, under the same
// leaf mutex so no reader can pin it half-written. Readers therefore wait at
// most for a pointer swap or a single-row write, never for a clone or a scan.
// The pin count is an atomic whose release decrement (after the reader has
// dropped its root) pairs with the writer's acquire load, so every scan of a
// chunk happens before an in-place write to it.
// Publishing the whole table through a single root — rather than one
// pointer per chunk — is what makes a cross-chunk search linearizable: with
// per-chunk pointers an ascending scan could mix chunk versions and report
// a result that was valid at no single point in the mutation order.
// Retired roots and chunks are reclaimed by shared_ptr refcounts once the
// last pinned batch drops them (RCU with reference counting standing in for
// grace periods). Lock order: mutMutex_ before statsMutex_ and tableMutex_;
// searches take only statsMutex_ and tableMutex_, a leaf lock held only for
// a pin, a pointer swap or a one-row write.
//
// Write costing: every effective mutation is charged its real program/erase
// cost — tcam::measureWriteEnergy per bit (served through the
// characterization cache, so it is persisted and replayed like search
// characterizations) scheduled across the word by tcam::planWordWrite, which
// models each technology's pulse parallelism (FeFET two word-parallel
// phases, ReRAM current-limited groups, CMOS single-cycle). Accumulated in
// EngineStats and the serve.writes.* / serve.write.energy obs metrics.
//
// Persistence: EngineOptions.store names a characterization-store directory;
// when set (and no shared cache is passed in) the engine builds on a
// store-backed cache, so a restarted service replays prior characterizations
// from disk instead of re-running the solver — bit-identical by the same
// provider contract that makes the in-memory cache invisible. With
// EngineOptions.persistEntries the same directory additionally carries an
// entry delta log (serve/delta_log.hpp) behind a store::StoreHandle, the
// same degrading handle the cache uses: every insert/erase appends a
// CRC-framed record, and a restarted engine replays the *mutated* table
// bit-identically before serving. A log that fails to open, or whose
// records do not fit this engine's geometry, degrades to memory-only
// entries with a typed error in tableLogStatus() — never a wrong table.
//
// Deadlines: submitBatch() takes a front-end's per-query deadlines and
// sheds the queries already past theirs before any entry is scanned;
// overload is bounded by the front-end (net::Server's maxPendingQueries).
//
// obs integration (when obs::enabled()): serve.queries / serve.hits /
// serve.batches counters, the serve.admission.queue_wait histogram and
// serve.admission.deadline_expired counter (names kept for CI and the
// end-to-end benchmark), serve.writes.inserts / serve.writes.erases /
// serve.writes.chunk_copies (mutations that cloned a chunk because a reader
// was pinned), a serve.write.energy gauge, serve.qps, a serve.batch.seconds
// histogram, serve.cache.* from the underlying cache, and store.* from its
// persistent backing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "array/bank.hpp"
#include "serve/char_cache.hpp"
#include "serve/match_backend.hpp"
#include "sim/mlc_model.hpp"
#include "sim/similarity.hpp"
#include "tcam/write_schedule.hpp"

namespace fetcam::serve {

struct EngineOptions {
    device::TechCard tech = device::TechCard::cmos45();
    /// Priced sub-array geometry; shard.rows is the shard size the bank
    /// model prices (storage is laid out in QueryEngine::kChunkRows chunks).
    array::ArrayConfig shard;
    /// Total words the engine must hold (rounded up to whole shards).
    std::int64_t capacity = 0;
    array::WorkloadProfile workload;
    /// Queries per fan-out tile: batches split into tiles of this many
    /// queries and tiles run across the worker team.
    int batchSize = 4096;
    /// Persistent characterization store (store.dir empty = memory-only).
    /// Only consulted when no shared cache is passed to the constructor.
    store::StoreConfig store;
    /// Also persist the entry table as a delta log in store.dir: mutations
    /// append insert/erase records and construction replays them, so a warm
    /// restart serves the mutated table (see tableLogStatus()). Requires
    /// store.dir; ignored without it.
    bool persistEntries = false;
    /// Not read by the engine: MatchBackendKind has one value, and the field
    /// stays only because the frozen end-to-end benchmark still sets it.
    MatchBackendKind backend = MatchBackendKind::BitPlane;
    /// Bits per FeFET cell the similarity queries are priced at (the MLC
    /// ladder; 1 = binary cells). Functional similarity results never
    /// depend on it — only energy/latency/margin accounting does. The MLC
    /// characterization is lazy: engines that never serve a similarity
    /// query never pay for it (and non-FeFET geometries only reject
    /// similarity queries, not construction).
    int simBitsPerCell = 2;
};

/// Per-query row sentinel: the query's deadline expired before the scan, so
/// it was shed without touching the entries (no scan work, no energy).
inline constexpr std::int64_t kRowDeadlineExpired = -2;

/// Result of one batched search. `rows[i]` is the globally lowest matching
/// row for keys[i], -1 when nothing matched — what the hardware priority
/// encoder would report — and kRowDeadlineExpired (-2) when the query's
/// deadline passed before simulation and it was shed unscanned.
struct BatchResult {
    std::vector<std::int64_t> rows;
    std::int64_t hits = 0;
    std::int64_t expired = 0;  ///< queries shed by their deadline (rows[i] == -2)
    double energy = 0.0;   ///< whole-batch search energy [J], executed queries only
    double latency = 0.0;  ///< per-query hardware latency [s]
};

/// Result of one batched similarity search. hits[i] holds keys[i]'s rows,
/// best-first by (distance, row) — see sim::SimilarityOptions for the two
/// query kinds and the ordering contract.
struct SimilarityBatchResult {
    std::vector<sim::SimilarityHits> hits;
    std::int64_t rowsReturned = 0;  ///< total hits across the batch
    double energy = 0.0;   ///< whole-batch MLC search energy [J]
    double latency = 0.0;  ///< per-query hardware latency [s]
};

struct EngineStats {
    std::int64_t queries = 0;
    std::int64_t hits = 0;
    std::int64_t batches = 0;
    double searchEnergy = 0.0;  ///< [J] accumulated
    std::int64_t deadlineExpired = 0;  ///< queries shed by their deadline
    // --- mutation accounting (each effective insert/erase is charged the
    // --- full word program/erase sequence from tcam::planWordWrite) ---
    std::int64_t inserts = 0;        ///< effective insert/insertAt mutations
    std::int64_t erases = 0;         ///< effective erases (occupied rows only)
    double writeEnergy = 0.0;        ///< [J] accumulated program/erase energy
    double writeLatency = 0.0;       ///< [s] accumulated write-sequence time
    std::int64_t writePulsePhases = 0;  ///< sequential pulse groups issued
    // --- similarity accounting (nearestK / thresholdMatch) ---
    std::int64_t simQueries = 0;  ///< similarity keys served
    std::int64_t simBatches = 0;  ///< similarityBatch calls
    std::int64_t simRows = 0;     ///< hit rows returned across all queries
    double simEnergy = 0.0;       ///< [J] accumulated MLC search energy
};

/// Whether a front-end ran a request or shed it (net::Server's overload and
/// drain replies carry it as a byte).
enum class BatchAdmission {
    Accepted,  ///< ran
    Shed,      ///< refused by the front-end's overload bound or drain
};

struct SubmitResult {
    BatchResult result;
};

/// Deadline / queueing context a front-end attaches to a submission. All
/// times are absolute obs::monotonicSeconds() values.
struct SubmitOptions {
    /// Per-query absolute deadlines aligned with `keys` (0 = no deadline for
    /// that query); queries whose deadline has already passed when the
    /// engine picks the batch up are shed *before* any entry is scanned
    /// (rows[i] = kRowDeadlineExpired) and charged no search energy.
    /// nullptr = no deadlines.
    const std::vector<double>* deadlines = nullptr;
    /// When the front-end first queued the batch's oldest query; > 0 feeds
    /// the serve.admission.queue_wait histogram when the engine picks the
    /// batch up.
    double enqueuedAt = 0.0;
};

class QueryEngine {
public:
    /// Functional storage ceiling. The bank model prices any capacity, but
    /// the engine materializes every row, so a larger table is refused with
    /// InvalidSpec instead of attempting a multi-GiB allocation.
    static constexpr std::int64_t kMaxCapacity = std::int64_t{1} << 28;

    /// Rows per storage chunk — the scan and copy-on-write unit, exactly one
    /// bit-plane group, independent of the priced shard.rows. A mutation
    /// clones at most one chunk; the last chunk holds the capacity's
    /// remainder.
    static constexpr std::int64_t kChunkRows = 64 * tcam::TernaryPlanes::kGroupBlocks;

    /// Characterizes the bank up front through `cache` (shared across
    /// engines to amortize; when omitted, a private cache is created —
    /// store-backed if options.store.dir is set). After construction,
    /// serving never runs the solver.
    explicit QueryEngine(EngineOptions options,
                         std::shared_ptr<CharacterizationCache> cache = {});

    // --- entry management (global row index = priority, lowest wins) ---
    // Safe to call while batches are in flight: a mutation that a pinned
    // search could see publishes a new table snapshot; searches keep
    // scanning the one they pinned.
    std::int64_t insert(const tcam::TernaryWord& word);  ///< first free row
    void insertAt(std::int64_t row, const tcam::TernaryWord& word);
    void erase(std::int64_t row);
    /// Entry at `row`, by value: a consistent snapshot read that stays valid
    /// however the table is mutated afterwards.
    std::optional<tcam::TernaryWord> entryAt(std::int64_t row) const;

    // --- serving ---
    /// Batched priority search across `jobs` workers (0 = process default).
    /// Results and accounting are bit-identical for any jobs value and for
    /// cold vs. warm caches. Concurrent mutations are safe: the whole batch
    /// sees one consistent table version.
    BatchResult searchBatch(const std::vector<tcam::TernaryWord>& keys, int jobs = 0);

    /// searchBatch, as the end-to-end benchmark calls it.
    SubmitResult submitBatch(const std::vector<tcam::TernaryWord>& keys, int jobs = 0);

    /// searchBatch with a front-end's deadline / queue-wait context: queries
    /// whose deadline expired before the scan are shed unscanned (see
    /// SubmitOptions), counted in stats().deadlineExpired and the
    /// serve.admission.deadline_expired counter. `opts.deadlines`, when set,
    /// must be keys.size() long.
    SubmitResult submitBatch(const std::vector<tcam::TernaryWord>& keys,
                             const SubmitOptions& opts, int jobs = 0);

    // --- similarity serving (the second product surface) ---
    /// Batched similarity search: every key gets its best-first hit list
    /// per `options` (NearestK or Threshold), computed over one consistent
    /// table snapshot with the bit-sliced mismatchCounts kernel. Same
    /// determinism contract as searchBatch — bit-identical for any jobs
    /// value, cold/warm cache, and across warm restarts.
    /// Requires an FeFET shard geometry (the MLC pricing);
    /// throws SimError(InvalidSpec) otherwise or on bad options/widths.
    SimilarityBatchResult similarityBatch(const std::vector<tcam::TernaryWord>& keys,
                                          const sim::SimilarityOptions& options,
                                          int jobs = 0);

    /// The k Hamming-nearest rows to `key`, best-first by (distance, row).
    /// Fewer than k hits when occupancy < k.
    sim::SimilarityHits nearestK(const tcam::TernaryWord& key, int k);

    /// Every row within `maxDistance` of `key`, best-first, capped at
    /// sim::SimilarityOptions{}.maxResults rows.
    sim::SimilarityHits thresholdMatch(const tcam::TernaryWord& key,
                                       std::size_t maxDistance);

    /// MLC characterization similarity queries are priced at
    /// (options.simBitsPerCell). Lazy, cached, served through the
    /// characterization cache — zero solver calls on a warm store.
    sim::MlcCharacterization simCost();

    // --- introspection ---
    std::int64_t capacity() const { return capacity_; }
    std::int64_t occupancy() const { return occupied_.load(std::memory_order_relaxed); }
    int wordBits() const { return options_.shard.wordBits; }
    std::int64_t shards() const { return bank_.subArrays; }
    std::int64_t rowsPerShard() const { return bank_.rowsPerArray; }
    const array::BankMetrics& hardware() const { return bank_; }
    double energyPerQuery() const { return bank_.totalPerSearch(); }
    double queryLatency() const { return bank_.searchDelay; }
    /// Price of one word mutation (program/erase sequence) on this
    /// geometry/technology — what each effective insert/erase is charged.
    /// Characterized lazily through the cache on first use.
    tcam::WordWriteResult writeCost();
    EngineStats stats() const;
    const std::shared_ptr<CharacterizationCache>& cache() const { return cache_; }
    /// Persistence health of the underlying cache (memory-only when the
    /// engine was built without a store).
    store::StoreStatus storeStatus() const { return cache_->storeStatus(); }

    // --- entry persistence (persistEntries) ---
    /// Delta records replayed into the table at construction (0 for a cold
    /// start, an empty log, or when persistence is off/degraded).
    std::int64_t restoredMutations() const { return restoredMutations_; }
    /// Health of the entry delta log: attached when persistEntries was
    /// requested with a store dir; load.startedFresh when no log existed.
    store::StoreStatus tableLogStatus() const;
    /// Push write-behind delta appends to disk (no-op without a log).
    void flushTable();
    /// Snapshot the occupied rows into a deduplicated delta log, atomically
    /// replacing the append history. False (doing nothing) without a
    /// writable log.
    bool compactTable();

    /// Deterministic text report: geometry, served-query accounting and the
    /// per-query hardware price. Identical for cold/warm caches and any
    /// jobs value (cache and wall-clock stats deliberately excluded).
    std::string report() const;

private:
    /// The published table: one chunk per kChunkRows rows. Readers see it
    /// only through a pinned TableSnapshot; writers (under mutMutex_) read
    /// table_ directly and write a chunk in place or clone it
    /// (publishMutationLocked).
    using Table = std::vector<std::shared_ptr<tcam::TernaryPlanes>>;

    /// A reader's pin on one root: counted in the engine's reader count for
    /// as long as it lives, so a writer knows whether any reader can see a
    /// chunk. Made only by loadTable(), under tableMutex_, which orders the
    /// relaxed increment against a writer's check of the count.
    class TableSnapshot {
    public:
        TableSnapshot(std::shared_ptr<const Table> root, std::atomic<std::int64_t>& readers)
            : root_(std::move(root)), readers_(readers) {
            readers_.fetch_add(1, std::memory_order_relaxed);
        }
        TableSnapshot(const TableSnapshot&) = delete;
        TableSnapshot& operator=(const TableSnapshot&) = delete;
        /// Drops the root first, then unpins with release: a writer that
        /// reads the count as 0 (acquire) sees every scan as finished.
        ~TableSnapshot() {
            root_.reset();
            readers_.fetch_sub(1, std::memory_order_release);
        }
        const Table& operator*() const { return *root_; }

    private:
        std::shared_ptr<const Table> root_;
        std::atomic<std::int64_t>& readers_;
    };

    /// The chunk holding global `row` (its local row is row % kChunkRows).
    static const tcam::TernaryPlanes& chunkOf(const Table& table, std::int64_t row) {
        return *table[static_cast<std::size_t>(row / kChunkRows)];
    }

    void checkRow(std::int64_t row) const;
    /// Pin the current root (a reader's one pin per batch).
    TableSnapshot loadTable() const;
    /// Whether `row` holds an entry. Caller holds mutMutex_ (writers read
    /// table_ unpinned: only they replace it).
    bool occupiedLocked(std::int64_t row) const {
        return chunkOf(*table_, row).occupied(row % kChunkRows);
    }
    /// Swap in a new root; the retired one is released outside tableMutex_.
    void publishTable(std::shared_ptr<const Table> next);
    /// searchBatch with an optional per-query skip mask (expired deadlines):
    /// masked queries get kRowDeadlineExpired without being scanned.
    BatchResult searchBatchMasked(const std::vector<tcam::TernaryWord>& keys,
                                  const std::vector<char>* expired, int jobs);
    /// Apply one row mutation: in place when no reader is pinned, else
    /// clone the affected chunk and publish a new root. Caller holds
    /// mutMutex_. `word` null = clear the row.
    void publishMutationLocked(std::int64_t row, const tcam::TernaryWord* word);
    /// Charge one effective mutation: write cost into stats_ + obs, delta
    /// record into the table log. Caller holds mutMutex_. `word` null = erase.
    void recordMutationLocked(std::int64_t row, const tcam::TernaryWord* word);
    tcam::WordWriteResult writeCostLocked();
    sim::MlcCharacterization simCostLocked();
    /// Open the delta log and replay it into the pre-publication chunks.
    /// Constructor-only (no concurrency yet).
    void attachTableLog(std::vector<std::unique_ptr<tcam::TernaryPlanes>>& chunks);

    EngineOptions options_;
    std::shared_ptr<CharacterizationCache> cache_;
    array::BankMetrics bank_;
    std::int64_t capacity_ = 0;  ///< bank_.totalEntries
    /// Entry storage root. Readers: one loadTable() pin per batch. Writers:
    /// an in-place row write, or a clone and publishTable() swap, under
    /// mutMutex_.
    std::shared_ptr<const Table> table_;
    /// Guards table_ for a pin, a pointer swap or an in-place row write (a
    /// leaf lock: nothing else is taken while it is held).
    mutable std::mutex tableMutex_;
    /// Live TableSnapshots. Incremented under tableMutex_, decremented with
    /// release after the snapshot drops its root.
    mutable std::atomic<std::int64_t> readers_{0};
    std::atomic<std::int64_t> occupied_{0};
    mutable std::mutex mutMutex_;  ///< serializes writers (and the fields below)
    /// First-free-row search hint: every row < freeHint_ is occupied.
    /// insert() scans from here instead of row 0 (erase lowers it), which
    /// keeps row assignment identical to a scan-from-0 while making a full
    /// table's Nth insert O(1) instead of O(capacity).
    std::int64_t freeHint_ = 0;
    std::optional<tcam::WordWriteResult> writeCost_;  ///< lazy, cached
    std::optional<sim::MlcCharacterization> simCost_;  ///< lazy, cached
    store::StoreHandle tableLog_;  ///< detached when not persisting
    std::int64_t restoredMutations_ = 0;  ///< set at construction only
    mutable std::mutex statsMutex_;  ///< guards stats_
    EngineStats stats_;
};

}  // namespace fetcam::serve
