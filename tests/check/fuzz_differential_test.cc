/**
 * @file
 * Differential fuzzing as a tier-1 test: bounded seeded campaigns of
 * the DifferentialFuzzer across every checker kind and stage count,
 * plus proof that the harness detects deliberately re-introduced
 * historical bugs (MMIO lock bypass, >64-SID blocking hole) and
 * minimizes them to replayable traces.
 *
 * The long-soak version of the same campaign is `siopmp_fuzz` /
 * `tools/run_bench.sh fuzz`; see docs/FUZZING.md.
 */

#include <gtest/gtest.h>

#include "check/fuzzer.hh"

namespace siopmp {
namespace check {
namespace {

struct KindStages {
    iopmp::CheckerKind kind;
    unsigned stages;
};

FuzzCaseConfig
smallConfig(iopmp::CheckerKind kind, unsigned stages)
{
    FuzzCaseConfig cfg;
    cfg.kind = kind;
    cfg.stages = stages;
    return cfg;
}

FuzzCaseConfig
wideConfig(iopmp::CheckerKind kind, unsigned stages)
{
    FuzzCaseConfig cfg;
    cfg.kind = kind;
    cfg.stages = stages;
    cfg.num_sids = 128; // multi-word SID blocking in play
    cfg.num_entries = 48;
    return cfg;
}

void
expectClean(const FuzzCaseConfig &cfg, unsigned cases,
            std::uint64_t seed = 0xf00d)
{
    DifferentialFuzzer fuzzer(cfg, seed);
    const FuzzReport report = fuzzer.run(cases);
    EXPECT_FALSE(report.diverged)
        << "case " << report.case_index << ": " << report.detail;
    EXPECT_EQ(report.cases_run, cases);
    EXPECT_GT(report.checks_run, 0u);
}

TEST(DifferentialFuzz, LinearClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::Linear, 1), 400);
}

TEST(DifferentialFuzz, TreeClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::Tree, 1), 400);
}

TEST(DifferentialFuzz, PipeLinearTwoStagesClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::PipelineLinear, 2), 300);
}

TEST(DifferentialFuzz, PipeLinearFourStagesClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::PipelineLinear, 4), 300);
}

TEST(DifferentialFuzz, PipeTreeTwoStagesClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::PipelineTree, 2), 300);
}

TEST(DifferentialFuzz, PipeTreeFourStagesClean)
{
    expectClean(smallConfig(iopmp::CheckerKind::PipelineTree, 4), 300);
}

TEST(DifferentialFuzz, WideSidConfigClean)
{
    expectClean(wideConfig(iopmp::CheckerKind::Linear, 1), 200);
    expectClean(wideConfig(iopmp::CheckerKind::PipelineTree, 4), 200);
}

/** Regression profile with the check-path accelerator forced ON: the
 * compiled plans must stay bit-identical to the oracle across every
 * checker kind, dense and 128-SID-wide. Named as the counterpart of
 * CacheForcedOffClean below. */
TEST(DifferentialFuzz, CacheForcedOnAllKindsClean)
{
    const KindStages kinds[] = {
        {iopmp::CheckerKind::Linear, 1u},
        {iopmp::CheckerKind::Tree, 1u},
        {iopmp::CheckerKind::PipelineLinear, 2u},
        {iopmp::CheckerKind::PipelineTree, 4u},
    };
    for (const auto &[kind, stages] : kinds) {
        FuzzCaseConfig dense = smallConfig(kind, stages);
        dense.accel = iopmp::AccelMode::Plans;
        expectClean(dense, 200);
        FuzzCaseConfig wide = wideConfig(kind, stages);
        wide.accel = iopmp::AccelMode::Plans;
        expectClean(wide, 100);
    }
}

/** Plans mode under a second campaign seed, so the accelerated path
 * sees op streams the all-kinds campaign above does not. */
TEST(DifferentialFuzz, PlansOnlyModeClean)
{
    FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    cfg.accel = iopmp::AccelMode::Plans;
    expectClean(cfg, 200, /*seed=*/0x5eed);
    FuzzCaseConfig wide = wideConfig(iopmp::CheckerKind::Tree, 1);
    wide.accel = iopmp::AccelMode::Plans;
    expectClean(wide, 100, /*seed=*/0x5eed);
}

/** And forced OFF: the escape-hatch path is the pure checker walk. */
TEST(DifferentialFuzz, CacheForcedOffClean)
{
    FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    cfg.accel = iopmp::AccelMode::Off;
    expectClean(cfg, 200);
    FuzzCaseConfig wide = wideConfig(iopmp::CheckerKind::Tree, 1);
    wide.accel = iopmp::AccelMode::Off;
    expectClean(wide, 100);
}

/**
 * Churn profile: continuous high-rate table mutation interleaved with
 * checks, with the accelerator on — every check runs against
 * freshly-dirtied plans, so any under-invalidation in the per-MD
 * incremental machinery diverges from the oracle. The replay-time listener audit additionally fails
 * the case if a table change escapes the dirty-set callbacks even
 * when no check happens to land on the stale state.
 */
TEST(DifferentialFuzz, ChurnProfileAccelClean)
{
    const KindStages kinds[] = {
        {iopmp::CheckerKind::Linear, 1u},
        {iopmp::CheckerKind::Tree, 1u},
        {iopmp::CheckerKind::PipelineTree, 4u},
    };
    for (const auto &[kind, stages] : kinds) {
        FuzzCaseConfig dense = smallConfig(kind, stages);
        dense.profile = FuzzProfile::Churn;
        dense.accel = iopmp::AccelMode::Plans;
        expectClean(dense, 200);
    }
    FuzzCaseConfig wide = wideConfig(iopmp::CheckerKind::Linear, 1);
    wide.profile = FuzzProfile::Churn;
    wide.accel = iopmp::AccelMode::Plans;
    expectClean(wide, 100);
}

/** The churn mix must actually churn: mutation write ops outnumber
 * checks, and checks still make up a meaningful share. */
TEST(DifferentialFuzz, ChurnProfileShiftsOpMix)
{
    FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    cfg.profile = FuzzProfile::Churn;
    cfg.ops_per_case = 4000;
    DifferentialFuzzer fuzzer(cfg, 99);
    const auto ops = fuzzer.generateCase(0);
    std::size_t writes = 0, checks = 0;
    for (const FuzzOp &op : ops) {
        if (op.kind == FuzzOp::Kind::Write)
            ++writes;
        else if (op.kind == FuzzOp::Kind::Check)
            ++checks;
    }
    EXPECT_GT(writes, checks * 2);
    EXPECT_GT(checks, ops.size() / 8);
}

TEST(DifferentialFuzz, GenerationIsDeterministic)
{
    const FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    DifferentialFuzzer a(cfg, 42);
    DifferentialFuzzer b(cfg, 42);
    const auto x = a.generateCase(7);
    const auto y = b.generateCase(7);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(x[i].toString(), y[i].toString()) << "op " << i;
    // A different seed produces a different stream.
    DifferentialFuzzer c(cfg, 43);
    const auto z = c.generateCase(7);
    bool different = z.size() != x.size();
    for (std::size_t i = 0; !different && i < x.size(); ++i)
        different = x[i].toString() != z[i].toString();
    EXPECT_TRUE(different);
}

/** Re-introducing the MMIO lock bypass (EntryTable::set's old
 * machine_mode=true default) must be caught and minimized. */
TEST(DifferentialFuzz, DetectsReintroducedLockBypass)
{
    const FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    DifferentialFuzzer fuzzer(cfg, /*seed=*/1);
    const FaultInjection injection = makeLockBypassInjection();
    fuzzer.setDutWriteHook(injection.hook, injection.reset);

    const FuzzReport report = fuzzer.run(2000);
    ASSERT_TRUE(report.diverged);
    ASSERT_FALSE(report.trace.empty());
    // The minimized trace still reproduces on a fresh replay and is a
    // genuine reduction of the original case.
    EXPECT_TRUE(fuzzer.replay(report.trace).has_value());
    EXPECT_LT(report.trace.size(), cfg.ops_per_case);
    EXPECT_FALSE(report.detail.empty());
}

/** Re-introducing the single-word block bitmap (SIDs >= 64 silently
 * unblockable) must be caught in a wide configuration. */
TEST(DifferentialFuzz, DetectsReintroducedBlockHole)
{
    const FuzzCaseConfig cfg = wideConfig(iopmp::CheckerKind::Linear, 1);
    DifferentialFuzzer fuzzer(cfg, /*seed=*/1);
    const FaultInjection injection = makeBlockHoleInjection();
    fuzzer.setDutWriteHook(injection.hook, injection.reset);

    const FuzzReport report = fuzzer.run(2000);
    ASSERT_TRUE(report.diverged);
    ASSERT_FALSE(report.trace.empty());
    EXPECT_TRUE(fuzzer.replay(report.trace).has_value());
    EXPECT_LT(report.trace.size(), cfg.ops_per_case);
}

/** Dropping destroy-class writes (CAM invalidates, eSID unmounts)
 * must be flagged by the residue oracle at the dropped op itself —
 * the report detail carries the audit message, not a downstream
 * read or check divergence. */
TEST(DifferentialFuzz, DetectsDroppedUnbindViaResidueOracle)
{
    const FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    DifferentialFuzzer fuzzer(cfg, /*seed=*/1);
    const FaultInjection injection = makeUnbindDropInjection();
    fuzzer.setDutWriteHook(injection.hook, injection.reset);

    const FuzzReport report = fuzzer.run(2000);
    ASSERT_TRUE(report.diverged);
    ASSERT_FALSE(report.trace.empty());
    EXPECT_TRUE(fuzzer.replay(report.trace).has_value());
    EXPECT_NE(report.detail.find("residue audit"), std::string::npos)
        << report.detail;
}

/** The fixed simulator must NOT diverge under the same seeds used by
 * the injection tests — the signal really is the injected bug. */
TEST(DifferentialFuzz, InjectionSeedsAreCleanWithoutInjection)
{
    DifferentialFuzzer small(smallConfig(iopmp::CheckerKind::Linear, 1), 1);
    EXPECT_FALSE(small.run(200).diverged);
    DifferentialFuzzer wide(wideConfig(iopmp::CheckerKind::Linear, 1), 1);
    EXPECT_FALSE(wide.run(200).diverged);
}

TEST(DifferentialFuzz, MinimizeIsNoOpOnCleanTrace)
{
    const FuzzCaseConfig cfg = smallConfig(iopmp::CheckerKind::Linear, 1);
    DifferentialFuzzer fuzzer(cfg, 5);
    auto ops = fuzzer.generateCase(0);
    const std::size_t n = ops.size();
    EXPECT_EQ(fuzzer.minimize(std::move(ops)).size(), n);
}

} // namespace
} // namespace check
} // namespace siopmp
