// Characterization cache: the simulate-once / serve-forever half of the
// characterize-then-serve split (see DESIGN.md).
//
// A TCAM deployment answers millions of queries, but only ever exercises a
// handful of distinct *electrical* situations: a cell design, its option
// flags, a stage width, a mismatch count, a supply and a temperature fully
// determine the transient the solver would run. The cache keys word-level
// simulations on exactly that tuple, lazily runs the real simulateWordSearch
// on the first miss, and replays the stored result — bit-identical, since
// the solver itself is deterministic — on every subsequent hit.
//
// The cache plugs into the analytic models through array::WordSimFn
// (evaluateArray / evaluateBank / characterizeMlc all accept a provider), so
// the cached and uncached paths share every line of scaling arithmetic.
//
// Persistence: constructed with a store::StoreConfig the cache becomes a
// warm-restartable service — prior characterizations load from the on-disk
// record log at build time, misses append write-behind, and flush()/
// compact() manage durability. The log sits behind a store::StoreHandle: a
// store that fails to open or validate (locked, corrupt, version drift), or
// a later append that fails, degrades the cache to memory-only with a typed
// error in storeStatus(): cold characterization is always correct, stale or
// torn bytes never are.
//
// Search and write characterizations share one record map keyed by the
// packed request and holding the packed store payload, so both kinds take
// the same lookup, simulate-on-miss and append path.
//
// Thread safety: characterize() may be called concurrently; a map mutex
// protects lookups/inserts (and the store handle) and misses simulate outside
// the lock. Two threads racing on the same cold key both simulate and insert
// identical results, so served values never depend on the schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "array/energy_model.hpp"
#include "store/char_store.hpp"
#include "tcam/write.hpp"

namespace fetcam::serve {

/// Layout version of the packed characterization schema: the cache key bytes
/// (every packed struct below keyOf) AND the packed WordSimResult payload.
/// It is the first byte of every key and the schemaVersion of every store
/// file. Bump it whenever TechCard / MosfetParams / FerroParams /
/// ArrayConfig / the key packing / the result packing change shape, so a
/// rebuilt binary can never read a stale store as current physics.
/// (Version 1 was the unversioned PR-4 in-memory-only key layout; version 2
/// was search-only; version 3 added write-energy records to the same log.)
inline constexpr std::uint8_t kCharSchemaVersion = 3;

/// Second key byte of a write-energy record. Search keys start with the
/// packed cell-kind int (first byte 0..2), so 'W' can never alias one.
inline constexpr char kWriteKeyTag = 'W';

struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;    ///< each miss paid one full word transient
    std::int64_t bypasses = 0;  ///< uncacheable requests (variations/waveforms)
    std::int64_t entries = 0;   ///< resident characterized points
    std::int64_t storeHits = 0;  ///< hits served by store-loaded entries
};

/// Pack a cacheable WordSimResult (no waveforms) into the fixed-layout store
/// payload. Throws SimError(InvalidSpec) if the result carries waveforms.
std::string packResult(const array::WordSimResult& result);

/// Inverse of packResult. nullopt when `bytes` is not a valid payload (e.g.
/// schema drift that slipped past the version gate).
std::optional<array::WordSimResult> unpackResult(std::string_view bytes);

/// Pack a per-bit write-energy measurement (the mutation-path analogue of
/// packResult; payload size differs from the search payload by design).
std::string packWriteResult(const tcam::WriteEnergyResult& result);

/// Inverse of packWriteResult.
std::optional<tcam::WriteEnergyResult> unpackWriteResult(std::string_view bytes);

class CharacterizationCache {
public:
    /// In-memory-only cache.
    CharacterizationCache() = default;

    /// Store-backed cache: opens `config.dir`, loads every persisted
    /// characterization, and write-behind-appends future misses (unless
    /// read-only). Never throws for store trouble — a store that cannot be
    /// used leaves the cache memory-only with the typed failure recorded in
    /// storeStatus().
    explicit CharacterizationCache(const store::StoreConfig& config);

    /// The cache key serialized from a request: one schema-version byte
    /// (kCharSchemaVersion), then cell kind, sense scheme and every design
    /// option, stage width, stored/key trits (which carry the mismatch
    /// count), search-cycle timing, and the full tech card (VDD,
    /// temperature, and every device parameter, so corner or re-derived
    /// cards can never alias). Exposed for tests.
    static std::string keyOf(const array::WordSimOptions& options);

    /// Whether a request is cacheable: per-cell Monte Carlo variations and
    /// waveform recording are pass-through (each trial is unique / waveforms
    /// are too big to pin), everything else is served from the cache.
    static bool cacheable(const array::WordSimOptions& options);

    /// The write-record key: version byte, kWriteKeyTag, cell kind, then the
    /// full tech card (measureWriteEnergy depends on nothing else). Exposed
    /// for tests.
    static std::string writeKeyOf(tcam::CellKind kind, const device::TechCard& tech);

    /// Serve a word simulation: cache hit, or run the real solver and
    /// remember the result. Bit-identical to simulateWordSearch(options).
    array::WordSimResult characterize(const array::WordSimOptions& options);

    /// Serve a per-bit write-energy measurement: cache hit, or run the real
    /// write-waveform transient (tcam::measureWriteEnergy) and remember it.
    /// Persisted next to the search records, so a warm restart prices
    /// mutations with zero solver calls. Counted in the same hit/miss stats.
    tcam::WriteEnergyResult characterizeWrite(tcam::CellKind kind,
                                              const device::TechCard& tech);

    /// Adapter for the evaluateArray/evaluateBank/characterizeMlc `sim` hook.
    /// The returned function references *this; keep the cache alive.
    array::WordSimFn provider();

    /// Push write-behind appends to disk (no-op without a writable store).
    void flush();

    /// Snapshot the resident entries into a deduplicated log, atomically
    /// replacing the append history. Returns false (doing nothing) without a
    /// writable store.
    bool compact();

    CacheStats stats() const;
    store::StoreStatus storeStatus() const;

private:
    struct Entry {
        std::string payload;  ///< packResult / packWriteResult bytes
        bool fromStore = false;
    };

    /// The payload under `key`: a hit, or `run()` on a miss (outside the
    /// lock), remembered and appended to the store.
    std::string lookupOrRun(std::string key, const std::function<std::string()>& run);

    mutable std::mutex mutex_;  ///< guards entries_, stats_ and store_
    std::map<std::string, Entry> entries_;
    CacheStats stats_;
    store::StoreHandle store_;
};

}  // namespace fetcam::serve
