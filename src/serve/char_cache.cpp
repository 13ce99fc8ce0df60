#include "serve/char_cache.hpp"

#include <cstring>

#include "obs/obs.hpp"

namespace fetcam::serve {

namespace {

void packBytes(std::string& key, const void* data, std::size_t size) {
    key.append(static_cast<const char*>(data), size);
}

void pack(std::string& key, double v) { packBytes(key, &v, sizeof v); }
void pack(std::string& key, int v) { packBytes(key, &v, sizeof v); }
void pack(std::string& key, bool v) { key.push_back(v ? '\1' : '\0'); }

void packMos(std::string& key, const device::MosfetParams& p) {
    pack(key, static_cast<int>(p.type));
    pack(key, p.w);
    pack(key, p.l);
    pack(key, p.vt0);
    pack(key, p.kp);
    pack(key, p.n);
    pack(key, p.lambda);
    pack(key, p.cox);
    pack(key, p.cOverlap);
    pack(key, p.cJunction);
    pack(key, p.ut);
}

void packFerro(std::string& key, const device::FerroParams& p) {
    pack(key, p.ps);
    pack(key, p.vcMean);
    pack(key, p.vcSigma);
    pack(key, p.tau0);
    pack(key, p.kMerz);
    pack(key, p.epsR);
    pack(key, p.thickness);
    pack(key, p.numHysterons);
    pack(key, p.tauRetention);
    pack(key, p.pristineFactor);
    pack(key, p.wakeupCycles);
    pack(key, p.fatigueOnsetCycles);
    pack(key, p.fatiguePerDecade);
    pack(key, p.fatigueFloor);
}

void packTech(std::string& key, const device::TechCard& t) {
    pack(key, t.vdd);
    pack(key, t.temperatureK);
    pack(key, t.vWriteFe);
    pack(key, t.tWriteFe);
    pack(key, t.vWriteReram);
    pack(key, t.tWriteReram);
    packMos(key, t.nmos);
    packMos(key, t.pmos);
    packMos(key, t.fefet.mos);
    packFerro(key, t.fefet.ferro);
    pack(key, t.fefet.deltaVt);
    pack(key, t.fefet.feArea);
    pack(key, t.reram.rOn);
    pack(key, t.reram.rOff);
    pack(key, t.reram.vSet);
    pack(key, t.reram.vReset);
    pack(key, t.reram.tauSet);
    pack(key, t.reram.tauReset);
    pack(key, t.reram.vAccel);
    pack(key, t.reram.cPar);
    pack(key, t.mlWireCapPerCell);
    pack(key, t.mlWireResPerCell);
    pack(key, t.slWireCapPerCell);
    pack(key, t.slDriverRes);
    pack(key, t.ctrlDriverRes);
}

void packConfig(std::string& key, const array::ArrayConfig& c) {
    pack(key, static_cast<int>(c.cell));
    pack(key, static_cast<int>(c.sense));
    pack(key, c.wordBits);
    // Note: c.rows deliberately not packed — a word simulation is one row;
    // the analytic scaling to the array happens outside the cache.
    pack(key, c.vSearch);
    pack(key, c.vPrecharge);
    pack(key, c.mlKeeper);
    pack(key, c.distributedMl);
    pack(key, c.mlSegments);
    pack(key, c.selectivePrecharge);
    pack(key, c.prefilterBits);
    pack(key, c.timing.tSetup);
    pack(key, c.timing.tEval);
    pack(key, c.timing.tGap);
    pack(key, c.timing.tPrecharge);
    pack(key, c.timing.tTail);
    pack(key, c.timing.slEdge);
    pack(key, c.timing.saStrobeDelay);
    pack(key, c.timing.saStrobeLen);
}

void packWord(std::string& key, const tcam::TernaryWord& w) {
    for (std::size_t i = 0; i < w.size(); ++i)
        key.push_back(static_cast<char>('0' + static_cast<int>(w[i])));
    key.push_back('|');
}

// --- packed WordSimResult payload (fixed layout, kCharSchemaVersion) ------

constexpr std::size_t kPackedDoubles = 9;
constexpr std::size_t kPackedResultSize = 1 + kPackedDoubles * sizeof(double);

// --- packed WriteEnergyResult payload (deliberately a different size) -----

constexpr std::size_t kPackedWriteDoubles = 5;
constexpr std::size_t kPackedWriteSize = 1 + kPackedWriteDoubles * sizeof(double);

}  // namespace

std::string packResult(const array::WordSimResult& r) {
    if (r.waveforms.size() != 0)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "serve::packResult",
                                "results carrying waveforms are not persistable");
    std::string out;
    out.reserve(kPackedResultSize);
    const char flags = static_cast<char>((r.expectedMatch ? 1 : 0) |
                                         (r.matchDetected ? 2 : 0) |
                                         (r.detectDelay.has_value() ? 4 : 0));
    out.push_back(flags);
    const double doubles[kPackedDoubles] = {
        r.detectDelay.value_or(0.0), r.mlAtSense, r.mlMin,
        r.vPrecharge, r.energyMl,    r.energySl,
        r.energySa,   r.energyStatic, r.energyTotal,
    };
    packBytes(out, doubles, sizeof doubles);
    return out;
}

std::optional<array::WordSimResult> unpackResult(std::string_view bytes) {
    if (bytes.size() != kPackedResultSize) return std::nullopt;
    const char flags = bytes[0];
    if (flags & ~0x7) return std::nullopt;
    double doubles[kPackedDoubles];
    std::memcpy(doubles, bytes.data() + 1, sizeof doubles);

    array::WordSimResult r;
    r.expectedMatch = flags & 1;
    r.matchDetected = flags & 2;
    if (flags & 4) r.detectDelay = doubles[0];
    r.mlAtSense = doubles[1];
    r.mlMin = doubles[2];
    r.vPrecharge = doubles[3];
    r.energyMl = doubles[4];
    r.energySl = doubles[5];
    r.energySa = doubles[6];
    r.energyStatic = doubles[7];
    r.energyTotal = doubles[8];
    return r;
}

std::string packWriteResult(const tcam::WriteEnergyResult& r) {
    std::string out;
    out.reserve(kPackedWriteSize);
    out.push_back(r.verified ? '\1' : '\0');
    const double doubles[kPackedWriteDoubles] = {
        r.energyPerBit, r.phase1Energy, r.phase2Energy, r.pulseWidth, r.writeLatency,
    };
    packBytes(out, doubles, sizeof doubles);
    return out;
}

std::optional<tcam::WriteEnergyResult> unpackWriteResult(std::string_view bytes) {
    if (bytes.size() != kPackedWriteSize) return std::nullopt;
    const char flags = bytes[0];
    if (flags & ~0x1) return std::nullopt;
    double doubles[kPackedWriteDoubles];
    std::memcpy(doubles, bytes.data() + 1, sizeof doubles);

    tcam::WriteEnergyResult r;
    r.verified = flags & 1;
    r.energyPerBit = doubles[0];
    r.phase1Energy = doubles[1];
    r.phase2Energy = doubles[2];
    r.pulseWidth = doubles[3];
    r.writeLatency = doubles[4];
    return r;
}

CharacterizationCache::CharacterizationCache(const store::StoreConfig& config) {
    store::StoreConfig cfg = config;
    cfg.schemaVersion = kCharSchemaVersion;
    // Constructor-only: no other thread can touch the cache yet.
    store_ = store::StoreHandle(cfg, [this](const std::vector<store::Record>& records) {
        std::map<std::string, Entry> loaded;
        for (const auto& rec : records) {
            const bool valid =
                !rec.key.empty() &&
                static_cast<std::uint8_t>(rec.key[0]) == kCharSchemaVersion &&
                (rec.key.size() > 1 && rec.key[1] == kWriteKeyTag
                     ? unpackWriteResult(rec.payload).has_value()
                     : unpackResult(rec.payload).has_value());
            if (!valid)
                throw recover::SimError(
                    recover::SimErrorReason::CorruptData, "serve::CharacterizationCache",
                    "store record failed to unpack despite schema gate");
            loaded.emplace(rec.key, Entry{rec.payload, /*fromStore=*/true});
        }
        entries_ = std::move(loaded);
        stats_.entries = static_cast<std::int64_t>(entries_.size());
    });
}

std::string CharacterizationCache::keyOf(const array::WordSimOptions& o) {
    std::string key;
    key.reserve(512);
    // Schema-version byte first: any change to the packed layouts below
    // bumps kCharSchemaVersion, so keys from different layouts can never
    // alias — in memory or on disk.
    key.push_back(static_cast<char>(kCharSchemaVersion));
    packConfig(key, o.config);
    packWord(key, o.stored);
    packWord(key, o.key);
    pack(key, static_cast<int>(o.stored.mismatchCount(o.key)));
    packTech(key, o.tech);
    return key;
}

bool CharacterizationCache::cacheable(const array::WordSimOptions& o) {
    return o.variations.empty() && !o.recordWaveforms;
}

std::string CharacterizationCache::writeKeyOf(tcam::CellKind kind,
                                              const device::TechCard& tech) {
    std::string key;
    key.reserve(512);
    key.push_back(static_cast<char>(kCharSchemaVersion));
    key.push_back(kWriteKeyTag);
    pack(key, static_cast<int>(kind));
    packTech(key, tech);
    return key;
}

std::string CharacterizationCache::lookupOrRun(std::string key,
                                               const std::function<std::string()>& run) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            const bool fromStore = it->second.fromStore;
            if (fromStore) ++stats_.storeHits;
            if (obs::enabled()) {
                static obs::Counter& hits = obs::counter("serve.cache.hits");
                hits.add();
                if (fromStore) {
                    static obs::Counter& storeHits = obs::counter("store.hits");
                    storeHits.add();
                    // Fraction of characterizations the warm restart avoided:
                    // without the store every storeHit's first touch would
                    // have been a solver miss.
                    obs::gauge("store.hit_rate_delta")
                        .set(static_cast<double>(stats_.storeHits) /
                             static_cast<double>(stats_.hits + stats_.misses));
                }
            }
            return it->second.payload;
        }
    }

    // Miss: pay the one real transient, outside the lock so concurrent
    // distinct keys characterize in parallel.
    std::string payload = run();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        // Racing insert: same key, same value; only the winner persists it.
        const auto [it, inserted] =
            entries_.emplace(std::move(key), Entry{payload, /*fromStore=*/false});
        stats_.entries = static_cast<std::int64_t>(entries_.size());
        if (inserted) store_.append(it->first, payload);
    }
    if (obs::enabled()) {
        static obs::Counter& misses = obs::counter("serve.cache.misses");
        misses.add();
    }
    return payload;
}

tcam::WriteEnergyResult CharacterizationCache::characterizeWrite(
    tcam::CellKind kind, const device::TechCard& tech) {
    return *unpackWriteResult(lookupOrRun(writeKeyOf(kind, tech), [&] {
        return packWriteResult(tcam::measureWriteEnergy(kind, tech));
    }));
}

array::WordSimResult CharacterizationCache::characterize(const array::WordSimOptions& o) {
    if (!cacheable(o)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.bypasses;
        }
        return array::simulateWordSearch(o);
    }
    return *unpackResult(
        lookupOrRun(keyOf(o), [&] { return packResult(array::simulateWordSearch(o)); }));
}

array::WordSimFn CharacterizationCache::provider() {
    return [this](const array::WordSimOptions& o) { return characterize(o); };
}

void CharacterizationCache::flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    store_.flush();
}

bool CharacterizationCache::compact() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!store_.writable()) return false;
    std::vector<store::Record> records;
    records.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) records.push_back({key, entry.payload});
    return store_.compact(records);
}

CacheStats CharacterizationCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

store::StoreStatus CharacterizationCache::storeStatus() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return store_.status();
}

}  // namespace fetcam::serve
