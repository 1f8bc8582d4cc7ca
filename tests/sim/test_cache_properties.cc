/**
 * @file
 * Parameterized property sweeps over cache geometries: containment,
 * LRU, capacity, and flush invariants must hold for every (size,
 * associativity) combination, and seeded random operation streams
 * must behave exactly like a plain per-set LRU reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/cache.hh"

using namespace perspective::sim;

namespace
{

/**
 * The replacement contract written the slow, obvious way: line
 * number by division, set by modulo, an explicit valid bit, and the
 * victim chosen as the first invalid way, else the least recently
 * used (ties to the lowest way).
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : line_(p.line_bytes), assoc_(p.assoc),
          sets_(p.size_bytes / (p.line_bytes * p.assoc)),
          ways_(std::size_t{sets_} * assoc_)
    {
    }

    bool
    access(Addr a)
    {
        if (Way *w = find(a)) {
            w->lru = ++clock_;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    bool probe(Addr a) { return find(a) != nullptr; }

    /** Install @p a; returns the address of the line it evicted. */
    std::optional<Addr>
    fill(Addr a)
    {
        if (Way *w = find(a)) {
            w->lru = ++clock_;
            return std::nullopt;
        }
        Way *set = &ways_[(a / line_) % sets_ * assoc_];
        Way *victim = nullptr;
        for (unsigned i = 0; i < assoc_ && !victim; ++i)
            if (!set[i].valid)
                victim = &set[i];
        if (!victim) {
            victim = &set[0];
            for (unsigned i = 1; i < assoc_; ++i)
                if (set[i].lru < victim->lru)
                    victim = &set[i];
        }
        std::optional<Addr> evicted;
        if (victim->valid)
            evicted = victim->line * line_;
        *victim = {true, a / line_, ++clock_};
        ++gen;
        return evicted;
    }

    void
    flush(Addr a)
    {
        if (Way *w = find(a)) {
            w->valid = false;
            ++gen;
        }
    }

    void
    flushAll()
    {
        for (Way &w : ways_)
            w.valid = false;
        ++gen;
    }

    std::uint64_t hits = 0, misses = 0, gen = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint64_t lru = 0;
    };

    Way *
    find(Addr a)
    {
        Way *set = &ways_[(a / line_) % sets_ * assoc_];
        for (unsigned i = 0; i < assoc_; ++i)
            if (set[i].valid && set[i].line == a / line_)
                return &set[i];
        return nullptr;
    }

    Addr line_;
    unsigned assoc_;
    unsigned sets_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
};

struct CacheGeometry
    : ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
    CacheParams
    params() const
    {
        auto [size_kb, assoc] = GetParam();
        return {"p", size_kb * 1024, 64, assoc, 2};
    }
};

} // namespace

TEST_P(CacheGeometry, FillThenProbeAlwaysHits)
{
    Cache c(params());
    for (Addr a = 0; a < 64 * 1024; a += 4096) {
        c.fill(a);
        EXPECT_TRUE(c.probe(a)) << a;
    }
}

TEST_P(CacheGeometry, CapacityIsRespected)
{
    CacheParams p = params();
    Cache c(p);
    unsigned lines = p.size_bytes / p.line_bytes;
    // Fill twice the capacity with distinct lines...
    for (unsigned i = 0; i < 2 * lines; ++i)
        c.fill(Addr{i} * p.line_bytes);
    // ...then at most `lines` of them can be resident.
    unsigned resident = 0;
    for (unsigned i = 0; i < 2 * lines; ++i) {
        if (c.probe(Addr{i} * p.line_bytes))
            ++resident;
    }
    EXPECT_LE(resident, lines);
    EXPECT_GT(resident, lines / 2); // and not pathologically few
}

TEST_P(CacheGeometry, MostRecentLineSurvivesConflictPressure)
{
    CacheParams p = params();
    Cache c(p);
    unsigned sets = p.size_bytes / (p.line_bytes * p.assoc);
    Addr way_stride = Addr{sets} * p.line_bytes;
    // Touch assoc+2 conflicting lines; the most recent must survive.
    Addr last = 0;
    for (unsigned w = 0; w < p.assoc + 2; ++w) {
        last = Addr{w} * way_stride;
        c.fill(last);
    }
    EXPECT_TRUE(c.probe(last));
}

TEST_P(CacheGeometry, FlushAllEmptiesEverything)
{
    CacheParams p = params();
    Cache c(p);
    for (unsigned i = 0; i < 128; ++i)
        c.fill(Addr{i} * p.line_bytes);
    c.flushAll();
    for (unsigned i = 0; i < 128; ++i)
        EXPECT_FALSE(c.probe(Addr{i} * p.line_bytes));
}

TEST_P(CacheGeometry, AccessCountsAreConsistent)
{
    Cache c(params());
    std::uint64_t expected_hits = 0, expected_misses = 0;
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 8; ++i) {
            Addr a = Addr{i} * 64;
            bool hit = c.probe(a); // ground truth before access
            if (c.access(a)) {
                EXPECT_TRUE(hit);
                ++expected_hits;
            } else {
                EXPECT_FALSE(hit);
                ++expected_misses;
                c.fill(a);
            }
        }
    }
    EXPECT_EQ(c.hits(), expected_hits);
    EXPECT_EQ(c.misses(), expected_misses);
}

TEST_P(CacheGeometry, RandomStreamsMatchReferenceLru)
{
    CacheParams p = params();
    unsigned sets = p.size_bytes / (p.line_bytes * p.assoc);
    auto [size_kb, assoc] = GetParam();
    std::mt19937_64 rng(0x5eedcafe + size_kb * 131 + assoc);
    // Four sets' worth of lines, assoc + 3 per set: enough to force
    // evictions, few enough that every line is revisited.
    std::vector<Addr> pool;
    for (unsigned s = 0; s < 4; ++s)
        for (unsigned k = 0; k < p.assoc + 3; ++k)
            pool.push_back((Addr{s} * 5 + Addr{k} * sets) *
                           p.line_bytes);

    Cache c(p);
    RefCache ref(p);
    for (unsigned step = 0; step < 4000; ++step) {
        Addr a = pool[rng() % pool.size()] + rng() % p.line_bytes;
        unsigned op = rng() % 100;
        if (op < 35) {
            ASSERT_EQ(c.access(a), ref.access(a)) << "step " << step;
        } else if (op < 70) {
            std::optional<Addr> victim = ref.fill(a);
            c.fill(a);
            ASSERT_TRUE(c.probe(a)) << "step " << step;
            if (victim) {
                ASSERT_FALSE(c.probe(*victim)) << "step " << step;
            }
        } else if (op < 85) {
            ASSERT_EQ(c.probe(a), ref.probe(a)) << "step " << step;
        } else if (op < 99) {
            c.flush(a);
            ref.flush(a);
        } else {
            c.flushAll();
            ref.flushAll();
        }
        ASSERT_EQ(*c.contentGenPtr(), ref.gen) << "step " << step;
        // Whole-state check: every line the stream can name is
        // present in one exactly when it is present in the other.
        for (Addr line : pool) {
            ASSERT_EQ(c.probe(line), ref.probe(line))
                << "step " << step << " line " << line;
        }
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.misses, 0u);
}

TEST(CacheGeometryValidation, NonPowerOfTwoGeometryThrows)
{
    // 48 KB / (64 B x 8 ways) = 96 sets.
    EXPECT_THROW(Cache({"sets", 48 * 1024, 64, 8, 2}),
                 std::invalid_argument);
    EXPECT_THROW(Cache({"line", 48 * 1024, 48, 8, 2}),
                 std::invalid_argument);
    EXPECT_THROW(Cache({"byte", 1024, 1, 8, 2}), std::invalid_argument);
    EXPECT_THROW(Cache({"ragged", 1000, 64, 2, 2}),
                 std::invalid_argument);
    EXPECT_THROW(Cache({"ways", 1024, 64, 0, 2}), std::invalid_argument);
    EXPECT_THROW(Cache({"empty", 0, 64, 2, 2}), std::invalid_argument);
    // Non-power-of-two associativity is fine: only sets and lines
    // index by shift and mask.
    EXPECT_NO_THROW(Cache c({"3way", 3 * 64 * 16, 64, 3, 2}));
    EXPECT_NO_THROW(Cache c(defaultL2()));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(4u, 8u, 32u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));
