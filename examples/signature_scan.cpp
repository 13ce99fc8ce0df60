// Signature scanning end-to-end on a serve::QueryEngine: compile an
// HTTP-flavoured signature dictionary into ternary patterns, load them into
// the engine, stream text tokens through it as one batch, and read off hit
// statistics and accumulated energy — the deep-packet-inspection use case.
#include <cstdio>
#include <vector>

#include "core/fetcam.hpp"
#include "serve/query_engine.hpp"

using namespace fetcam;

int main() {
    constexpr std::size_t kWidth = 12;  // characters -> 96-bit words

    apps::Dictionary dict(kWidth);
    dict.add("GET /admin", 1);
    dict.add("GET /api/?", 2);
    dict.add("GET ?", 3);
    dict.add("POST /login", 4);
    dict.add("POST ?", 5);
    dict.add("DELETE ?", 6);
    dict.add("../", 7);          // path traversal signature
    dict.add("<script", 8);      // XSS signature

    // Load into an engine on the proposed energy-aware FeFET design.
    serve::EngineOptions options;
    options.tech = device::TechCard::cmos45();
    options.shard = core::proposedDesign(static_cast<int>(kWidth) * 8, 64).config;
    options.shard.selectivePrecharge = false;  // signatures often differ only mid-word
    options.capacity = 64;
    serve::QueryEngine engine(options);
    for (const auto& e : dict.entries()) engine.insert(apps::compileToken(e.token, kWidth));

    const char* stream[] = {
        "GET /admin/x",  "GET /api/user", "GET /index",   "POST /login",
        "POST /upload",  "PUT /file",     "../etc/passwd", "<script>aler",
        "DELETE /tmp",   "GET /api/keys", "HEAD /",        "POST /login",
    };
    std::vector<tcam::TernaryWord> keys;
    for (const char* s : stream) keys.push_back(apps::compileText(s, kWidth));
    const auto rows = engine.searchBatch(keys).rows;

    std::printf("%-16s %-10s %-10s\n", "input", "tcam row", "tag");
    int hits = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const char* s = stream[i];
        const std::int64_t row = rows[i];
        const auto tag = dict.match(s);
        // The engine's row order mirrors dictionary priority: verify agreement.
        if ((row >= 0) != tag.has_value()) {
            std::printf("MISMATCH between functional model and engine for '%s'\n", s);
            return 1;
        }
        hits += row >= 0;
        std::printf("%-16s %-10s %-10s\n", s, row >= 0 ? std::to_string(row).c_str() : "-",
                    tag ? std::to_string(*tag).c_str() : "-");
    }

    const auto st = engine.stats();
    std::printf("\n%lld signatures loaded, %lld scans, %d hits\n",
                static_cast<long long>(st.inserts), static_cast<long long>(st.queries), hits);
    std::printf("energy: %s total (%s searching at %s/scan, %s loading)\n",
                core::engFormat(st.searchEnergy + st.writeEnergy, "J").c_str(),
                core::engFormat(st.searchEnergy, "J").c_str(),
                core::engFormat(engine.energyPerQuery(), "J").c_str(),
                core::engFormat(st.writeEnergy, "J").c_str());
    std::printf("scan latency %s -> %s scans/s sustained\n",
                core::engFormat(engine.queryLatency(), "s").c_str(),
                core::engFormat(1.0 / engine.hardware().cycleTime, "").c_str());
    return 0;
}
