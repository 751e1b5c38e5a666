/**
 * @file
 * strCat/strAppend against a default std::ostringstream, whose spelling
 * they must reproduce; the stream lives only here, as the reference.
 * strExact is compared with printf's %.17g, over edge values and 100k
 * seeded random bit patterns (NaN payloads and subnormals included).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hpp"

namespace ftsim {
namespace {

template <typename... Args>
std::string
streamed(const Args&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

std::string
printedExact(double x)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    return buf;
}

template <typename T>
void
expectIntegerLimits()
{
    using L = std::numeric_limits<T>;
    for (T v : {L::min(), L::max(), T(0), T(1), T(L::max() / 3)})
        EXPECT_EQ(strCat(v), streamed(v)) << +v;
}

template <typename T>
std::vector<T>
floatEdges()
{
    using L = std::numeric_limits<T>;
    return {T(0),          -T(0),           T(1),
            T(-1.5),       T(0.1),          T(1e-7),
            T(123456789),  L::min(),        L::denorm_min(),
            -L::denorm_min(), L::min() / 4, L::max(),
            L::lowest(),   L::epsilon(),    L::infinity(),
            -L::infinity(), L::quiet_NaN(), -L::quiet_NaN()};
}

TEST(StrCat, IntegersMatchTheStreamAtTheirLimits)
{
    expectIntegerLimits<short>();
    expectIntegerLimits<unsigned short>();
    expectIntegerLimits<int>();
    expectIntegerLimits<unsigned>();
    expectIntegerLimits<long>();
    expectIntegerLimits<unsigned long>();
    expectIntegerLimits<long long>();
    expectIntegerLimits<unsigned long long>();
    expectIntegerLimits<std::int64_t>();
    expectIntegerLimits<std::uint64_t>();
    expectIntegerLimits<std::size_t>();
    expectIntegerLimits<std::ptrdiff_t>();
}

TEST(StrCat, BoolIsZeroOrOne)
{
    EXPECT_EQ(strCat(true, false), streamed(true, false));
    EXPECT_EQ(strCat(true, false), "10");
}

TEST(StrCat, CharactersArePushedNotNumbered)
{
    for (int c : {0x20, int('A'), int('|'), 0x7f}) {
        const char ch = static_cast<char>(c);
        const auto sch = static_cast<signed char>(c);
        const auto uch = static_cast<unsigned char>(c);
        EXPECT_EQ(strCat(ch, sch, uch), streamed(ch, sch, uch)) << c;
    }
    EXPECT_EQ(strCat('a', 'b'), "ab");
    // Bytes past ASCII and the NUL character pass through too.
    const auto high = static_cast<unsigned char>(0xe9);
    EXPECT_EQ(strCat(high), streamed(high));
    EXPECT_EQ(strCat('\0').size(), 1u);
}

TEST(StrCat, StringsAppendAsTheyAre)
{
    const char* cstr = "c-string";
    const std::string str = "std::string with\ttab";
    const std::string_view view = std::string_view("view-of-more", 7);
    char array[] = "array";
    EXPECT_EQ(strCat(cstr, '|', str, '|', view, '|', array, "|lit"),
              streamed(cstr, '|', str, '|', view, '|', array, "|lit"));
    EXPECT_EQ(strCat(std::string("with\0nul", 8)).size(), 8u);
    EXPECT_EQ(strCat(), "");
    EXPECT_EQ(strCat(""), "");
}

TEST(StrCat, FloatsAndDoublesKeepTheStreamsSixDigits)
{
    for (double d : floatEdges<double>())
        EXPECT_EQ(strCat(d), streamed(d)) << printedExact(d);
    for (float f : floatEdges<float>())
        EXPECT_EQ(strCat(f), streamed(f)) << printedExact(f);
    EXPECT_EQ(strCat(0.1 + 0.2), "0.3");
    EXPECT_EQ(strCat(-0.0), "-0");
}

TEST(StrCat, MixedArgumentsMatchTheStream)
{
    const std::size_t n = 148;
    EXPECT_EQ(strCat("batch size ", n, " exceeds ", -3, " at ", 2.5, ' ',
                     true, std::string(" ok")),
              streamed("batch size ", n, " exceeds ", -3, " at ", 2.5, ' ',
                       true, std::string(" ok")));
}

TEST(StrCat, AppendExtendsTheBufferItIsGiven)
{
    std::string out = "key";
    strAppend(out, '|', 7u, "|x=", Exact{0.1});
    EXPECT_EQ(out, "key|7|x=0.10000000000000001");
    strAppend(out);
    EXPECT_EQ(out, "key|7|x=0.10000000000000001");
}

TEST(StrCatExact, EdgeValuesMatchPrintf)
{
    for (double d : floatEdges<double>()) {
        EXPECT_EQ(strExact(d), printedExact(d));
        EXPECT_EQ(strCat(Exact{d}), printedExact(d));
    }
    for (float f : floatEdges<float>())
        EXPECT_EQ(strExact(f), printedExact(f));
    EXPECT_EQ(strExact(-0.0), "-0");
    EXPECT_EQ(strExact(0.4), "0.40000000000000002");
    // The longest spelling: sign, 17 digits, point, 5-char exponent.
    EXPECT_EQ(strExact(-2.2250738585072009e-308),
              "-2.2250738585072009e-308");
}

TEST(StrCatExact, RandomBitPatternsMatchPrintf)
{
    std::mt19937_64 rng(20261017);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof d);
        if (strExact(d) != printedExact(d) && ++mismatches <= 5)
            ADD_FAILURE() << "bits 0x" << std::hex << bits << ": "
                          << strExact(d) << " vs " << printedExact(d);
    }
    EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace ftsim
