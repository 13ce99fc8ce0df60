#include "serve/query_engine.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "core/report.hpp"
#include "numeric/parallel.hpp"
#include "obs/obs.hpp"
#include "recover/sim_error.hpp"
#include "serve/delta_log.hpp"

namespace fetcam::serve {

namespace {

std::shared_ptr<CharacterizationCache> makeCache(const EngineOptions& options) {
    if (options.store.enabled())
        return std::make_shared<CharacterizationCache>(options.store);
    return std::make_shared<CharacterizationCache>();
}

}  // namespace

QueryEngine::QueryEngine(EngineOptions options, std::shared_ptr<CharacterizationCache> cache)
    : options_(std::move(options)),
      cache_(cache ? std::move(cache) : makeCache(options_)) {
    if (options_.capacity < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "QueryEngine",
                                "capacity must be >= 1");
    if (options_.capacity > kMaxCapacity)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "QueryEngine",
                                "capacity exceeds functional storage limit (2^28 words)");
    if (options_.batchSize < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "QueryEngine",
                                "batchSize must be >= 1");
    obs::SpanGuard span("serve.engine.build",
                        {{"capacity", static_cast<long long>(options_.capacity)},
                         {"wordBits", options_.shard.wordBits}});
    bank_ = evaluateBank(options_.tech, options_.shard, options_.capacity, options_.workload,
                         array::PriorityEncoderModel{}, recover::FailurePolicy::Strict,
                         cache_->provider());
    if (bank_.totalEntries > kMaxCapacity)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "QueryEngine",
                                "provisioned capacity exceeds functional storage limit");
    capacity_ = bank_.totalEntries;

    // One plane set per kChunkRows chunk, so a mutation clones one chunk,
    // not the table; the last chunk holds the remainder.
    std::vector<std::unique_ptr<tcam::TernaryPlanes>> chunks;
    for (std::int64_t begin = 0; begin < capacity_; begin += kChunkRows)
        chunks.push_back(makeMatchBackend(MatchBackendKind::BitPlane,
                                          std::min(kChunkRows, capacity_ - begin),
                                          options_.shard.wordBits));

    // Replay any persisted entry deltas into the still-private chunks, then
    // freeze them into the first published snapshot.
    attachTableLog(chunks);

    auto table = std::make_shared<Table>();
    table->reserve(chunks.size());
    for (auto& c : chunks) table->push_back(std::move(c));
    publishTable(std::move(table));
}

void QueryEngine::attachTableLog(std::vector<std::unique_ptr<tcam::TernaryPlanes>>& chunks) {
    if (!options_.persistEntries || !options_.store.enabled()) return;
    store::StoreConfig cfg = options_.store;
    cfg.schemaVersion = kTableSchemaVersion;
    cfg.logName = store::CharStore::kTableLogName;
    cfg.lockName = store::CharStore::kTableLockName;
    tableLog_ = store::StoreHandle(cfg, [&](const std::vector<store::Record>& records) {
        // Validate the whole history against this engine's geometry before
        // applying anything: a log from a different table shape degrades
        // cleanly instead of replaying a half-fitting prefix.
        std::vector<DeltaRecord> deltas;
        deltas.reserve(records.size());
        for (const auto& rec : records) {
            deltas.push_back(unpackDelta(rec, options_.shard.wordBits));
            if (deltas.back().row >= capacity_)
                throw recover::SimError(recover::SimErrorReason::CorruptData,
                                        "QueryEngine",
                                        "table delta row out of range for this geometry");
        }
        std::int64_t occupied = 0;
        for (const auto& d : deltas) {
            auto& chunk = chunks[static_cast<std::size_t>(d.row / kChunkRows)];
            const std::int64_t local = d.row % kChunkRows;
            if (d.word) {
                if (!chunk->occupied(local)) ++occupied;
                chunk->set(local, *d.word);
            } else if (chunk->occupied(local)) {
                chunk->clear(local);
                --occupied;
            }
        }
        occupied_.store(occupied, std::memory_order_relaxed);
        restoredMutations_ = static_cast<std::int64_t>(deltas.size());
    });
}

void QueryEngine::checkRow(std::int64_t row) const {
    if (row < 0 || row >= capacity())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "QueryEngine",
                                "row out of range");
}

tcam::WordWriteResult QueryEngine::writeCostLocked() {
    if (!writeCost_) {
        const auto perBit = cache_->characterizeWrite(options_.shard.cell, options_.tech);
        writeCost_ =
            tcam::planWordWrite(options_.shard.cell, perBit, options_.shard.wordBits);
    }
    return *writeCost_;
}

tcam::WordWriteResult QueryEngine::writeCost() {
    std::lock_guard<std::mutex> lock(mutMutex_);
    return writeCostLocked();
}

sim::MlcCharacterization QueryEngine::simCostLocked() {
    if (!simCost_) {
        sim::MlcOptions mlc;
        mlc.bitsPerCell = options_.simBitsPerCell;
        mlc.workload = options_.workload;
        // The two calibration word sims route through the cache provider,
        // so the characterization is bit-identical cold/warm and replays
        // from the store with zero solver calls on a warm restart.
        simCost_ = sim::characterizeMlc(options_.tech, options_.shard, mlc,
                                        cache_->provider());
    }
    return *simCost_;
}

sim::MlcCharacterization QueryEngine::simCost() {
    std::lock_guard<std::mutex> lock(mutMutex_);
    return simCostLocked();
}

QueryEngine::TableSnapshot QueryEngine::loadTable() const {
    std::lock_guard<std::mutex> lock(tableMutex_);
    return TableSnapshot(table_, readers_);
}

void QueryEngine::publishTable(std::shared_ptr<const Table> next) {
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        table_.swap(next);
    }
    // `next` now holds the retired root; dropping it (possibly the last
    // reference) happens outside the lock.
}

void QueryEngine::publishMutationLocked(std::int64_t row, const tcam::TernaryWord* word) {
    const auto chunk = static_cast<std::size_t>(row / kChunkRows);
    const std::int64_t local = row % kChunkRows;
    const auto apply = [&](tcam::TernaryPlanes& target) {
        if (word)
            target.set(local, *word);
        else
            target.clear(local);
    };
    {
        std::lock_guard<std::mutex> lock(tableMutex_);
        // No pinned reader: every earlier scan happened before this acquire
        // load (each unpin is a release), no new reader can pin while the
        // lock is held, and no root but table_ is still alive — so the chunk
        // has no other user and is written in place.
        if (readers_.load(std::memory_order_acquire) == 0) {
            apply(*(*table_)[chunk]);
            return;
        }
    }
    // A reader may be scanning the chunk: clone it and publish a new root.
    auto next = std::make_shared<Table>(*table_);
    auto clone = (*table_)[chunk]->clone();
    apply(*clone);
    (*next)[chunk] = std::move(clone);
    publishTable(std::move(next));
    if (obs::enabled()) {
        static obs::Counter& copies = obs::counter("serve.writes.chunk_copies");
        copies.add();
    }
}

void QueryEngine::recordMutationLocked(std::int64_t row, const tcam::TernaryWord* word) {
    const bool isInsert = word != nullptr;
    const tcam::WordWriteResult cost = writeCostLocked();
    double accumulated = 0.0;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        if (isInsert)
            ++stats_.inserts;
        else
            ++stats_.erases;
        stats_.writeEnergy += cost.energy;
        stats_.writeLatency += cost.latency;
        stats_.writePulsePhases += cost.pulsePhases;
        accumulated = stats_.writeEnergy;
    }
    if (obs::enabled()) {
        static obs::Counter& inserts = obs::counter("serve.writes.inserts");
        static obs::Counter& erases = obs::counter("serve.writes.erases");
        (isInsert ? inserts : erases).add();
        obs::gauge("serve.write.energy").set(accumulated);
    }
    if (tableLog_.writable()) {
        const store::Record rec = packDelta(row, word);
        tableLog_.append(rec.key, rec.payload);
    }
}

std::int64_t QueryEngine::insert(const tcam::TernaryWord& word) {
    if (static_cast<int>(word.size()) != options_.shard.wordBits)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                "QueryEngine::insert", "word width mismatch");
    std::lock_guard<std::mutex> lock(mutMutex_);
    // Every row below freeHint_ is occupied (erase lowers the hint), so
    // starting the scan there assigns exactly the row a scan from 0 would.
    for (std::int64_t r = freeHint_; r < capacity_; ++r) {
        if (occupiedLocked(r)) continue;
        publishMutationLocked(r, &word);
        occupied_.fetch_add(1, std::memory_order_relaxed);
        freeHint_ = r + 1;
        recordMutationLocked(r, &word);
        return r;
    }
    throw std::length_error("QueryEngine::insert: engine full");
}

void QueryEngine::insertAt(std::int64_t row, const tcam::TernaryWord& word) {
    checkRow(row);
    if (static_cast<int>(word.size()) != options_.shard.wordBits)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                "QueryEngine::insertAt", "word width mismatch");
    std::lock_guard<std::mutex> lock(mutMutex_);
    const bool wasEmpty = !occupiedLocked(row);
    publishMutationLocked(row, &word);
    if (wasEmpty) occupied_.fetch_add(1, std::memory_order_relaxed);
    // Overwriting an occupied row is still a full word program — charge it.
    recordMutationLocked(row, &word);
}

void QueryEngine::erase(std::int64_t row) {
    checkRow(row);
    std::lock_guard<std::mutex> lock(mutMutex_);
    if (!occupiedLocked(row))
        return;  // no-op: nothing stored, nothing charged, nothing logged
    publishMutationLocked(row, nullptr);
    occupied_.fetch_sub(1, std::memory_order_relaxed);
    freeHint_ = std::min(freeHint_, row);
    recordMutationLocked(row, nullptr);
}

std::optional<tcam::TernaryWord> QueryEngine::entryAt(std::int64_t row) const {
    checkRow(row);
    const auto table = loadTable();
    return chunkOf(*table, row).at(row % kChunkRows);
}

template <class Step>
void QueryEngine::walk(const std::vector<tcam::TernaryWord>& keys, int jobs,
                       const Step& step) const {
    // One root pin per batch: every tile and every chunk scan below sees
    // the same table version, however many mutations land meanwhile — the
    // result is always valid at a single point in the mutation order.
    const TableSnapshot table = loadTable();
    const Table& chunks = *table;

    const auto n = static_cast<std::int64_t>(keys.size());
    const std::int64_t tileSize = options_.batchSize;
    const auto tiles = static_cast<int>((n + tileSize - 1) / tileSize);

    // Fan the tiles out across the team. A step writes only its own key's
    // slots, and each tile visits the chunks in ascending row order, so the
    // result never depends on the schedule.
    numeric::parallelFor(jobs, tiles, [&](int tile) {
        const std::int64_t lo = static_cast<std::int64_t>(tile) * tileSize;
        const std::int64_t hi = std::min(lo + tileSize, n);
        // Each key is decomposed once per tile (the caller checked widths)
        // and the prepared form is reused across every chunk.
        std::vector<tcam::KeySlices> prepared;
        prepared.reserve(static_cast<std::size_t>(hi - lo));
        for (std::int64_t i = lo; i < hi; ++i)
            prepared.push_back(tcam::TernaryPlanes::prepare(keys[static_cast<std::size_t>(i)]));
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            // Chunk c holds global rows [c * kChunkRows, ...) locally.
            const auto begin = static_cast<std::int64_t>(c) * kChunkRows;
            for (std::int64_t i = lo; i < hi; ++i)
                step(static_cast<std::size_t>(i), prepared[static_cast<std::size_t>(i - lo)],
                     *chunks[c], begin);
        }
    });
}

BatchResult QueryEngine::searchBatch(const std::vector<tcam::TernaryWord>& keys, int jobs,
                                     const SubmitOptions& opts) {
    if (opts.deadlines && opts.deadlines->size() != keys.size())
        throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                "QueryEngine::searchBatch", "deadlines must align with keys");
    // Validate every key up front so a bad key fails before any accounting.
    for (const auto& key : keys)
        if (static_cast<int>(key.size()) != options_.shard.wordBits)
            throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                    "QueryEngine::searchBatch", "key width mismatch");

    const bool obsOn = obs::enabled();
    const double now = obsOn || opts.deadlines ? obs::monotonicSeconds() : 0.0;
    // How long the front-end's oldest query queued before the engine picked
    // the batch up — the satellite metric CI diffs under load.
    if (obsOn && opts.enqueuedAt > 0.0) {
        static obs::Histogram& queueWait = obs::histogram("serve.admission.queue_wait");
        queueWait.observe(std::max(0.0, now - opts.enqueuedAt));
    }

    BatchResult out;
    out.rows.assign(keys.size(), -1);
    // Deadlines are evaluated once, here: a query already past its deadline
    // is marked shed, and the walk below never scans it.
    if (opts.deadlines)
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const double d = (*opts.deadlines)[i];
            if (d > 0.0 && now >= d) out.rows[i] = kRowDeadlineExpired;
        }

    walk(keys, jobs, [&](std::size_t i, const tcam::KeySlices& key,
                         const tcam::TernaryPlanes& chunk, std::int64_t begin) {
        // Chunks come in ascending row order, so the first chunk to report a
        // match holds the global winner (the priority encoder): a key that
        // has a row, or was shed, is skipped by every later chunk.
        auto& best = out.rows[i];
        if (best != -1) return;
        const std::int64_t local = chunk.findFirst(0, chunk.rows(), key);
        if (local >= 0) best = begin + local;
    });

    const auto n = static_cast<std::int64_t>(keys.size());
    for (const auto r : out.rows) {
        out.hits += r >= 0;
        out.expired += r == kRowDeadlineExpired;
    }
    // Expired queries were shed before simulation, so they draw no energy.
    out.energy = bank_.totalPerSearch() * static_cast<double>(n - out.expired);
    out.latency = bank_.searchDelay;

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.queries += n;
        stats_.hits += out.hits;
        stats_.batches += 1;
        stats_.searchEnergy += out.energy;
        stats_.deadlineExpired += out.expired;
    }

    if (obsOn) {
        static obs::Counter& queries = obs::counter("serve.queries");
        static obs::Counter& hits = obs::counter("serve.hits");
        static obs::Counter& batches = obs::counter("serve.batches");
        static obs::Histogram& batchSeconds = obs::histogram("serve.batch.seconds");
        queries.add(static_cast<long long>(n));
        hits.add(static_cast<long long>(out.hits));
        batches.add();
        if (out.expired > 0) {
            static obs::Counter& deadlineExpired =
                obs::counter("serve.admission.deadline_expired");
            deadlineExpired.add(static_cast<long long>(out.expired));
        }
        const double dt = obs::monotonicSeconds() - now;
        batchSeconds.observe(dt);
        if (dt > 0.0) obs::gauge("serve.qps").set(static_cast<double>(n) / dt);
    }
    return out;
}

SimilarityBatchResult QueryEngine::similarityBatch(
    const std::vector<tcam::TernaryWord>& keys, const sim::SimilarityOptions& options,
    int jobs) {
    sim::validateSimilarityOptions(options);
    for (const auto& key : keys)
        if (static_cast<int>(key.size()) != options_.shard.wordBits)
            throw recover::SimError(recover::SimErrorReason::InvalidSpec,
                                    "QueryEngine::similarityBatch", "key width mismatch");
    // Price the batch up front (validates the FeFET geometry too): the MLC
    // characterization is deterministic and cache-served, so doing it before
    // the fan-out keeps the parallel region free of cache traffic.
    const sim::MlcCharacterization cost = simCost();

    const bool obsOn = obs::enabled();
    const double t0 = obsOn ? obs::monotonicSeconds() : 0.0;

    // Unlike the priority search there is no early-out: a nearer row can
    // live in any chunk, so every chunk offers its occupied rows. The
    // selector's (distance, row) order is total, so the result does not
    // depend on the order rows arrive in.
    std::vector<sim::TopSelector> selectors;
    selectors.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) selectors.emplace_back(options);
    walk(keys, jobs, [&](std::size_t i, const tcam::KeySlices& key,
                         const tcam::TernaryPlanes& chunk, std::int64_t begin) {
        std::array<std::size_t, kChunkRows> counts;
        chunk.mismatchCounts(key, counts.data());
        auto& selector = selectors[i];
        for (std::int64_t r = 0; r < chunk.rows(); ++r) {
            const std::size_t d = counts[static_cast<std::size_t>(r)];
            if (d == tcam::kNoEntry) continue;  // empty row
            selector.consider(begin + r, d);
        }
    });

    SimilarityBatchResult out;
    out.hits.reserve(keys.size());
    for (auto& selector : selectors) {
        out.hits.push_back(selector.take());
        out.rowsReturned += static_cast<std::int64_t>(out.hits.back().size());
    }
    const auto n = static_cast<std::int64_t>(keys.size());
    out.energy = cost.energyPerSearchJ * static_cast<double>(n);
    out.latency = cost.searchDelay;

    double accumulated = 0.0;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.simQueries += n;
        stats_.simBatches += 1;
        stats_.simRows += out.rowsReturned;
        stats_.simEnergy += out.energy;
        accumulated = stats_.simEnergy;
    }
    if (obsOn) {
        static obs::Counter& queries = obs::counter("serve.sim.queries");
        static obs::Counter& batches = obs::counter("serve.sim.batches");
        static obs::Counter& rows = obs::counter("serve.sim.rows");
        static obs::Histogram& batchSeconds = obs::histogram("serve.sim.batch.seconds");
        queries.add(static_cast<long long>(n));
        batches.add();
        rows.add(static_cast<long long>(out.rowsReturned));
        obs::gauge("serve.sim.energy").set(accumulated);
        batchSeconds.observe(obs::monotonicSeconds() - t0);
    }
    return out;
}

sim::SimilarityHits QueryEngine::nearestK(const tcam::TernaryWord& key, int k) {
    sim::SimilarityOptions options;
    options.kind = sim::SimilarityKind::NearestK;
    options.k = k;
    if (k > 0 && static_cast<std::size_t>(k) > options.maxResults)
        options.maxResults = static_cast<std::size_t>(k);
    return similarityBatch({key}, options).hits[0];
}

sim::SimilarityHits QueryEngine::thresholdMatch(const tcam::TernaryWord& key,
                                                std::size_t maxDistance) {
    sim::SimilarityOptions options;
    options.kind = sim::SimilarityKind::Threshold;
    options.maxDistance = maxDistance;
    return similarityBatch({key}, options).hits[0];
}

store::StoreStatus QueryEngine::tableLogStatus() const {
    std::lock_guard<std::mutex> lock(mutMutex_);
    return tableLog_.status();
}

void QueryEngine::flushTable() {
    std::lock_guard<std::mutex> lock(mutMutex_);
    tableLog_.flush();
}

bool QueryEngine::compactTable() {
    std::lock_guard<std::mutex> lock(mutMutex_);
    if (!tableLog_.writable()) return false;
    std::vector<store::Record> records;
    records.reserve(static_cast<std::size_t>(occupied_.load(std::memory_order_relaxed)));
    for (std::int64_t row = 0; row < capacity_; ++row)
        if (const auto entry = chunkOf(*table_, row).at(row % kChunkRows))
            records.push_back(packDelta(row, &*entry));
    return tableLog_.compact(records);
}

EngineStats QueryEngine::stats() const {
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

std::string QueryEngine::report() const {
    const EngineStats s = stats();
    std::ostringstream os;
    os << "serve::QueryEngine " << capacity() << " words (" << shards() << " shards x "
       << rowsPerShard() << " rows, " << wordBits() << "b, bitplane backend)\n";
    os << "  occupancy      " << occupancy() << "\n";
    os << "  queries        " << s.queries << " (" << s.hits << " hits, " << s.batches
       << " batches, " << s.deadlineExpired << " deadline-expired)\n";
    os << "  writes         " << s.inserts << " inserts / " << s.erases << " erases\n";
    os << "  similarity     " << s.simQueries << " queries (" << s.simRows << " rows, "
       << s.simBatches << " batches)\n";
    os << "  energy/query   " << core::engFormat(energyPerQuery(), "J") << "\n";
    os << "  query latency  " << core::engFormat(queryLatency(), "s") << "\n";
    os << "  search energy  " << core::engFormat(s.searchEnergy, "J") << "\n";
    os << "  write energy   " << core::engFormat(s.writeEnergy, "J") << "\n";
    return os.str();
}

}  // namespace fetcam::serve
