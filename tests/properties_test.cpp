/**
 * @file
 * Cross-module property tests: invariants of the pruning pass, the
 * transform application, and the generation pipeline under randomized
 * specifications — the "subtle interactions between concerns" the paper
 * emphasizes must never break structural invariants.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/accelerator.hpp"
#include "core/prune.hpp"
#include "dataflow/enumerate.hpp"
#include "dataflow/transform.hpp"
#include "func/library.hpp"
#include "rtl/generate.hpp"
#include "rtl/lint.hpp"
#include "sparsity/skip.hpp"
#include "testkit/oracles.hpp"
#include "util/rng.hpp"

namespace stellar::core
{
namespace
{

sparsity::SparsitySpec
randomSparsity(Rng &rng, const func::FunctionalSpec &spec)
{
    sparsity::SparsitySpec out;
    int A = spec.tensorIdByName("A");
    int B = spec.tensorIdByName("B");
    if (rng.nextBool(0.5)) {
        out.add(sparsity::skipWhenZero(
                0, A, {func::makeIndexExpr(0), func::makeIndexExpr(2)}));
    }
    if (rng.nextBool(0.5)) {
        out.add(sparsity::skipWhenZero(
                1, B, {func::makeIndexExpr(2), func::makeIndexExpr(1)}));
    }
    if (rng.nextBool(0.3)) {
        out.add(sparsity::optimisticSkip(
                2, A, {func::makeIndexExpr(0), func::makeIndexExpr(2)},
                int(rng.nextRange(2, 4))));
    }
    return out;
}

class PruneProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(PruneProperties, StructuralInvariants)
{
    Rng rng(std::uint64_t(GetParam()) * 1237 + 17);
    auto spec = func::matmulSpec();
    auto sparsity = randomSparsity(rng, spec);

    auto dense_space = elaborate(spec, {4, 4, 4});
    auto space = elaborate(spec, {4, 4, 4});
    auto decisions = applySparsity(space, sparsity);

    // (a) Conn classes are never created, only pruned or bundled.
    EXPECT_EQ(space.conns().size(), dense_space.conns().size());

    // (b) Sparsity never increases the alive conn count.
    EXPECT_LE(space.aliveConns().size(), dense_space.aliveConns().size());

    // (c) Every non-bundled decision corresponds to a pruned class and
    //     at least one per-point IOConn for that variable.
    for (const auto &decision : decisions) {
        if (decision.bundled)
            continue;
        EXPECT_EQ(space.aliveConnFor(decision.tensor), nullptr);
        bool has_io = false;
        for (const auto &io : space.ioConns())
            if (io.perPoint && io.tensor == decision.tensor)
                has_io = true;
        EXPECT_TRUE(has_io);
    }

    // (d) Idempotence: applying the same sparsity again changes nothing.
    auto before_alive = space.aliveConns().size();
    auto before_ios = space.ioConns().size();
    auto again = applySparsity(space, sparsity);
    EXPECT_TRUE(again.empty() ||
                space.aliveConns().size() == before_alive);
    EXPECT_EQ(space.ioConns().size(),
              before_ios + [&] {
                  std::size_t added = 0;
                  for (const auto &d : again)
                      if (!d.bundled)
                          added++;
                  return added;
              }());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneProperties, ::testing::Range(0, 12));

class TransformProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(TransformProperties, FoldingConservation)
{
    // For every enumerated dataflow: PEs <= points, folded points sum to
    // the point count, and the schedule is at least as long as the
    // deepest folding.
    auto spec = func::matmulSpec();
    dataflow::EnumerateOptions options;
    options.limit = 64;
    auto transforms = testkit::collectTransforms(spec, options);
    Rng rng(std::uint64_t(GetParam()) * 31 + 1);
    IntVec bounds = {rng.nextRange(2, 4), rng.nextRange(2, 4),
                     rng.nextRange(2, 4)};
    auto space = elaborate(spec, bounds);
    for (const auto &t : transforms) {
        auto array = applyTransform(space, t);
        EXPECT_LE(array.numPes(), space.numPoints()) << t.name();
        std::int64_t folded = 0;
        for (const auto &pe : array.pes())
            folded += pe.foldedPoints;
        EXPECT_EQ(folded, space.numPoints()) << t.name();
        EXPECT_GE(array.scheduleLength(), array.maxFolding()) << t.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperties,
                         ::testing::Range(0, 6));

class GenerationProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(GenerationProperties, SparsityNeverIncreasesWiresAndAlwaysLints)
{
    Rng rng(std::uint64_t(GetParam()) * 7907 + 5);
    auto functional = func::matmulSpec();

    AcceleratorSpec dense_spec;
    dense_spec.name = "prop_dense";
    dense_spec.functional = functional;
    dense_spec.transform = dataflow::dataflows::inputStationary();
    dense_spec.elaborationBounds = {4, 4, 4};
    auto dense = generate(dense_spec);

    AcceleratorSpec sparse_spec = dense_spec;
    sparse_spec.name = "prop_sparse";
    sparse_spec.sparsity = randomSparsity(rng, functional);
    auto sparse = generate(sparse_spec);

    // Bundled conns widen wires but never add instances.
    EXPECT_LE(sparse.array.totalWires(), dense.array.totalWires());
    EXPECT_GE(sparse.array.totalPorts(), dense.array.totalPorts());

    for (const auto *accel : {&dense, &sparse}) {
        auto design = rtl::lowerToVerilog(*accel);
        auto issues = rtl::lintAll(design);
        for (const auto &issue : issues)
            ADD_FAILURE() << issue.module << ": " << issue.message;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerationProperties,
                         ::testing::Range(0, 10));

} // namespace
} // namespace stellar::core
