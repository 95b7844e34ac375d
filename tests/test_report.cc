/**
 * @file
 * Tests for the report views and the workload registry.
 */

#include <gtest/gtest.h>

#include "analysis/report.hh"
#include "tests/helpers.hh"
#include "tools/registry.hh"

namespace hbbp {
namespace {

struct ReportFixture : ::testing::Test
{
    void
    SetUp() override
    {
        workload = makeKernelBench();
        workload.max_instructions = 800'000;
        Profiler profiler(MachineConfig{}, CollectorConfig{},
                          AnalyzerOptions::kernelPatched());
        run = std::make_unique<ProfiledRun>(profiler.run(workload));
        analysis = std::make_unique<AnalysisResult>(
            profiler.analyze(workload, run->profile));
        mix = std::make_unique<InstructionMix>(analysis->hbbpMix());
        reporter = std::make_unique<Reporter>(*mix);
    }

    Workload workload;
    std::unique_ptr<ProfiledRun> run;
    std::unique_ptr<AnalysisResult> analysis;
    std::unique_ptr<InstructionMix> mix;
    std::unique_ptr<Reporter> reporter;
};

TEST_F(ReportFixture, TopFunctionsContainsHotFunctions)
{
    std::string out = reporter->topFunctions().render();
    EXPECT_NE(out.find(kKernelBenchUserFunc), std::string::npos);
    EXPECT_NE(out.find(kKernelBenchKernelFunc), std::string::npos);
    EXPECT_NE(out.find("hello.ko"), std::string::npos);
}

TEST_F(ReportFixture, TopMnemonicsLimitedAndShared)
{
    TextTable t = reporter->topMnemonics(5);
    EXPECT_EQ(t.rowCount(), 5u);
    std::string out = t.render();
    EXPECT_NE(out.find("share"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
}

TEST_F(ReportFixture, RingBreakdownHasBothRings)
{
    std::string out = reporter->ringBreakdown().render();
    EXPECT_NE(out.find("USER"), std::string::npos);
    EXPECT_NE(out.find("KERNEL"), std::string::npos);
}

TEST_F(ReportFixture, FamilyAndMemoryBreakdownsRender)
{
    EXPECT_GT(reporter->familyBreakdown().rowCount(), 3u);
    EXPECT_GE(reporter->memoryBreakdown().rowCount(), 2u);
}

TEST_F(ReportFixture, TaxonomyBreakdownCoversAllGroups)
{
    Taxonomy tax = Taxonomy::standard();
    TextTable t = reporter->taxonomyBreakdown(tax);
    EXPECT_EQ(t.rowCount(), tax.groupNames().size());
}

TEST_F(ReportFixture, AnnotatedDisassemblyListsInstructions)
{
    std::string listing =
        reporter->annotatedDisassembly(kKernelBenchKernelFunc);
    ASSERT_FALSE(listing.empty());
    EXPECT_NE(listing.find("IMUL"), std::string::npos);
    EXPECT_NE(listing.find("executed"), std::string::npos);
    // The kernel tracepoints appear as NOPs in the patched view.
    EXPECT_NE(listing.find("NOP"), std::string::npos);
    // Unknown functions yield an empty listing.
    EXPECT_TRUE(reporter->annotatedDisassembly("no_such_fn").empty());
}

TEST_F(ReportFixture, SummaryCombinesViews)
{
    std::string s = reporter->summary();
    EXPECT_NE(s.find("total executed instructions"), std::string::npos);
    EXPECT_NE(s.find("top functions"), std::string::npos);
    EXPECT_NE(s.find("ISA breakdown"), std::string::npos);
    EXPECT_NE(s.find("rings"), std::string::npos);
}

TEST(Registry, AllNamesGenerate)
{
    std::vector<std::string> names = workloadNames();
    EXPECT_GE(names.size(), 29u + 9u);
    for (const std::string &name : names) {
        std::optional<Workload> w = makeWorkloadByName(name);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_TRUE(w->program != nullptr);
    }
}

TEST(Registry, EveryNameResolvesToAWorkloadOfThatName)
{
    // The name is what collect/push stamp into profiles and manifests,
    // and what analyze/serve look up again: a workload named anything
    // but its key cannot be found on the way back.
    for (const std::string &name : workloadNames()) {
        std::optional<Workload> w = makeWorkloadByName(name);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_EQ(w->name, name);
    }
}

TEST(Registry, UnknownNameIsNullopt)
{
    EXPECT_FALSE(makeWorkloadByName("not_a_workload").has_value());
}

} // namespace
} // namespace hbbp
