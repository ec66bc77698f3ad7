#include <gtest/gtest.h>

#include "grammar/regex.hpp"

namespace {

using namespace lpp::grammar;

TEST(Regex, SymbolBasics)
{
    auto r = Regex::symbol(3);
    EXPECT_EQ(r->kind(), Regex::Kind::Symbol);
    EXPECT_EQ(r->symbolId(), 3u);
    EXPECT_EQ(r->expandedLength(), 1u);
    EXPECT_EQ(r->toString(), "3");
}

TEST(Regex, RepeatOfOneCollapses)
{
    auto r = Regex::repeat(Regex::symbol(1), 1);
    EXPECT_EQ(r->kind(), Regex::Kind::Symbol);
}

TEST(Regex, NestedRepeatsMultiply)
{
    auto r = Regex::repeat(Regex::repeat(Regex::symbol(1), 3), 4);
    ASSERT_EQ(r->kind(), Regex::Kind::Repeat);
    EXPECT_EQ(r->count(), 12u);
    EXPECT_EQ(r->body()->kind(), Regex::Kind::Symbol);
}

TEST(Regex, ConcatMergesAdjacentSymbols)
{
    auto r = Regex::concat({Regex::symbol(1), Regex::symbol(1),
                            Regex::symbol(1)});
    ASSERT_EQ(r->kind(), Regex::Kind::Repeat);
    EXPECT_EQ(r->count(), 3u);
    EXPECT_EQ(r->toString(), "1^3");
}

TEST(Regex, ConcatMergesRepeatWithSymbol)
{
    auto r = Regex::concat({Regex::repeat(Regex::symbol(2), 4),
                            Regex::symbol(2)});
    ASSERT_EQ(r->kind(), Regex::Kind::Repeat);
    EXPECT_EQ(r->count(), 5u);
}

TEST(Regex, ConcatMergesTwoRepeats)
{
    auto ab = Regex::concat({Regex::symbol(1), Regex::symbol(2)});
    auto r = Regex::concat(
        {Regex::repeat(ab, 3), Regex::repeat(ab, 2)});
    ASSERT_EQ(r->kind(), Regex::Kind::Repeat);
    EXPECT_EQ(r->count(), 5u);
    EXPECT_EQ(r->expandedLength(), 10u);
}

TEST(Regex, ConcatFlattensNestedConcats)
{
    auto inner = Regex::concat({Regex::symbol(1), Regex::symbol(2)});
    auto r = Regex::concat({inner, Regex::symbol(3)});
    ASSERT_EQ(r->kind(), Regex::Kind::Concat);
    EXPECT_EQ(r->parts().size(), 3u);
}

TEST(Regex, ConcatDetectsWholePeriodicity)
{
    // a b a b does not merge pairwise but is (a b)^2.
    auto r = Regex::concat({Regex::symbol(1), Regex::symbol(2),
                            Regex::symbol(1), Regex::symbol(2)});
    ASSERT_EQ(r->kind(), Regex::Kind::Repeat);
    EXPECT_EQ(r->count(), 2u);
    EXPECT_EQ(r->toString(), "(1 2)^2");
}

TEST(Regex, SingleElementConcatCollapses)
{
    auto r = Regex::concat({Regex::symbol(9)});
    EXPECT_EQ(r->kind(), Regex::Kind::Symbol);
}

TEST(Regex, EmptyConcatIsNull)
{
    EXPECT_EQ(Regex::concat({}), nullptr);
}

TEST(Regex, EqualsStructural)
{
    auto a = Regex::concat({Regex::symbol(1), Regex::symbol(2)});
    auto b = Regex::concat({Regex::symbol(1), Regex::symbol(2)});
    auto c = Regex::concat({Regex::symbol(2), Regex::symbol(1)});
    EXPECT_TRUE(a->equals(*b));
    EXPECT_FALSE(a->equals(*c));
    EXPECT_FALSE(a->equals(*Regex::symbol(1)));
}

TEST(Regex, ExpandRoundTrip)
{
    auto step = Regex::concat({Regex::symbol(0), Regex::symbol(1),
                               Regex::symbol(2)});
    auto run = Regex::repeat(step, 3);
    std::vector<uint32_t> want = {0, 1, 2, 0, 1, 2, 0, 1, 2};
    EXPECT_EQ(run->expand(), want);
    EXPECT_EQ(run->expandedLength(), 9u);
}

TEST(Regex, ToStringComposite)
{
    auto step = Regex::concat({Regex::symbol(0), Regex::symbol(1)});
    auto run = Regex::repeat(step, 25);
    EXPECT_EQ(run->toString(), "(0 1)^25");
}

TEST(Regex, NodeCount)
{
    auto step = Regex::concat({Regex::symbol(0), Regex::symbol(1)});
    auto run = Regex::repeat(step, 2);
    // Repeat + Concat + 2 symbols
    EXPECT_EQ(run->nodeCountRecursive(), 4u);
}

TEST(RegexDeathTest, RepeatCountZeroPanics)
{
    EXPECT_DEATH(Regex::repeat(Regex::symbol(1), 0), "count");
}

} // namespace
