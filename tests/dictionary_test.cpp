// Dictionary tests: signature compilation, wildcard and prefix matching,
// priority and multi-hit semantics.
#include <gtest/gtest.h>

#include "apps/dictionary.hpp"

using namespace fetcam;
using apps::Dictionary;

TEST(Dictionary, CompileTokenLayout) {
    const auto w = apps::compileToken("A", 2);
    EXPECT_EQ(w.size(), 16u);
    // 'A' = 0x41 = 01000001.
    EXPECT_EQ(w.toString().substr(0, 8), "01000001");
    // Padding is wildcard: prefix-match semantics.
    EXPECT_EQ(w.toString().substr(8, 8), "XXXXXXXX");
    EXPECT_THROW(apps::compileToken("toolong", 2), std::invalid_argument);
}

TEST(Dictionary, WildcardCharacter) {
    const auto w = apps::compileToken("a?c", 3);
    EXPECT_EQ(w.toString().substr(8, 8), "XXXXXXXX");
    EXPECT_TRUE(w.matches(apps::compileText("abc", 3)));
    EXPECT_TRUE(w.matches(apps::compileText("azc", 3)));
    EXPECT_FALSE(w.matches(apps::compileText("abX", 3)));
}

TEST(Dictionary, PriorityAndMultiHit) {
    Dictionary d(8);
    d.add("GET ?", 1);    // any GET
    d.add("GET /a", 2);   // more specific but lower priority (added later)
    d.add("POST", 3);
    EXPECT_EQ(d.match("GET /abc"), 1);
    const auto all = d.matchAll("GET /abc");
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], 1);
    EXPECT_EQ(all[1], 2);
    EXPECT_EQ(d.match("POST /x"), 3);
    EXPECT_EQ(d.match("PUT /x"), std::nullopt);
    EXPECT_EQ(d.patterns().size(), 3u);
}

TEST(Dictionary, PrefixSemantics) {
    Dictionary d(8);
    d.add("cat", 7);
    EXPECT_EQ(d.match("cat"), 7);
    EXPECT_EQ(d.match("catalog"), 7);  // trailing wildcards: prefix signature
    EXPECT_EQ(d.match("dog"), std::nullopt);
}
