/**
 * @file
 * Identity of the batched objective builder with the per-formula
 * oracle (objective_oracle.h): for every sketch of dcgan,
 * mobilenet_v2 and vit_b32 at batch 1, under every smoothing kernel
 * and with each rewrite stage on and off, rewrite::objectiveFormulas
 * must return the very same interned nodes, and the objective tapes
 * compiled from the two must be equal instruction for instruction
 * and constant for constant. No tolerance: the shared memos may only
 * change how often a subterm is rewritten, never what it becomes.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "expr/compiled.h"
#include "features/features.h"
#include "graph/graph.h"
#include "models/models.h"
#include "objective_oracle.h"
#include "optim/search.h"
#include "sketch/sketch.h"

namespace felix {
namespace {

using expr::Expr;

void
expectSameProgram(const expr::TapeProgram &a, const expr::TapeProgram &b,
                  const std::string &where)
{
    EXPECT_EQ(a.numVars, b.numVars) << where;
    EXPECT_EQ(a.forwardOnly, b.forwardOnly) << where;
    EXPECT_EQ(a.rawSize, b.rawSize) << where;
    ASSERT_EQ(a.constants.size(), b.constants.size()) << where;
    EXPECT_EQ(0, std::memcmp(a.constants.data(), b.constants.data(),
                             a.constants.size() * sizeof(double)))
        << where;
    ASSERT_EQ(a.instrs.size(), b.instrs.size()) << where;
    for (size_t i = 0; i < a.instrs.size(); ++i) {
        const expr::TapeInstr &x = a.instrs[i], &y = b.instrs[i];
        ASSERT_TRUE(x.op == y.op && x.a0 == y.a0 && x.a1 == y.a1 &&
                    x.a2 == y.a2)
            << where << " instr " << i;
    }
    EXPECT_EQ(a.outputSlots, b.outputSlots) << where;
}

graph::Graph
network(const std::string &name)
{
    if (name == "dcgan")
        return models::dcgan(1);
    if (name == "mobilenet_v2")
        return models::mobilenetV2(1);
    return models::vitB32(1);
}

class ObjectiveIdentity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ObjectiveIdentity, SameNodesAndTapesAsPerFormulaOracle)
{
    const rewrite::Kernel kernels[] = {rewrite::Kernel::Algebraic,
                                       rewrite::Kernel::Gaussian,
                                       rewrite::Kernel::Bump};
    const sketch::GenOptions genOptions =
        optim::GradSearchOptions().sketchOptions;
    size_t sketches = 0;
    for (const graph::Task &task : graph::partition(network(GetParam()))) {
        for (const auto &sched :
             sketch::generateSketches(task.subgraph, genOptions)) {
            ++sketches;
            std::vector<std::string> names;
            for (const auto &domain : sched.vars)
                names.push_back(domain.name);
            const auto raw = features::extractFeatures(sched.program);
            for (rewrite::Kernel kernel : kernels) {
                for (int mode = 0; mode < 4; ++mode) {
                    const bool smoothing = mode & 1, logExp = mode & 2;
                    const std::string where =
                        task.exampleLabel + " " + sched.desc + " " +
                        rewrite::kernelName(kernel) +
                        " smoothing=" + std::to_string(smoothing) +
                        " log_exp=" + std::to_string(logExp);
                    const auto batched = rewrite::objectiveFormulas(
                        raw, sched.constraints, names, kernel,
                        smoothing, logExp);
                    const auto oracle = rewrite::objectiveFormulasOracle(
                        raw, sched.constraints, names, kernel,
                        smoothing, logExp);
                    ASSERT_EQ(batched.size(), oracle.size()) << where;
                    for (size_t i = 0; i < batched.size(); ++i)
                        ASSERT_TRUE(batched[i].same(oracle[i]))
                            << where << " output " << i;
                    expectSameProgram(
                        expr::CompiledExprs(batched, names).program(),
                        expr::CompiledExprs(oracle, names).program(),
                        where);
                }
            }
        }
    }
    EXPECT_GT(sketches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Networks, ObjectiveIdentity,
                         ::testing::Values("dcgan", "mobilenet_v2",
                                           "vit_b32"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace felix
