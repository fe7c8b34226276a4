// Unit tests for bench::Figure, the harness every paper bench reports
// through: a failed shape check sets the exit status, rows serialize in the
// committed BENCH_*.json format, and a --json file that cannot be written
// fails the bench.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hpp"

namespace cbmpi::bench {
namespace {

Options no_args() {
  const char* argv[] = {"bench"};
  return Options(1, argv);
}

TEST(BenchFigure, FailedCheckMakesFinishReturnOne) {
  auto opts = no_args();
  Figure all_ok(opts, "t", "c");
  testing::internal::CaptureStdout();
  all_ok.check(true, "first claim");
  all_ok.check(true, "second claim");
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "[SHAPE-OK] first claim\n[SHAPE-OK] second claim\n");
  EXPECT_EQ(all_ok.finish(), 0);

  Figure one_bad(opts, "t", "c");
  testing::internal::CaptureStdout();
  one_bad.check(true, "holds");
  one_bad.check(false, "fails");
  one_bad.check(true, "holds again");
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "[SHAPE-OK] holds\n[SHAPE-MISMATCH] fails\n[SHAPE-OK] holds again\n");
  EXPECT_EQ(one_bad.finish(), 1);
}

TEST(BenchFigure, Fig08RowMatchesCommittedBaselineFormat) {
  auto opts = no_args();
  Figure fig(opts, "fig08_pt2pt_two_sided", "1 host x 2 containers x 2 procs", 42);
  fig.row("intra-socket/def/latency", 1, 1.181252632, 0.0);
  // The first row of BENCH_fig08_pt2pt.json.
  EXPECT_EQ(fig.json(),
            R"({"bench":"fig08_pt2pt_two_sided",)"
            R"("config":"1 host x 2 containers x 2 procs","seed":42,"rows":[)"
            R"({"label":"intra-socket/def/latency","bytes":1,)"
            R"("latency_us":1.181252632,"bandwidth_mbps":0}]})"
            "\n");
}

TEST(BenchFigure, ExtraFieldsKeepTheirOrder) {
  auto opts = no_args();
  Figure fig(opts, "ext_fault_recovery", "2 hosts x 8 cores, 6 jobs");
  fig.row("p0.2/i0", 0,
          {{"latency_us", 942.3396771}, {"crash_prob", 0.2}, {"crashes", 9},
           {"lost_work_us", 697.3829109}, {"makespan_us", 942.3396771}});
  fig.row("b", 4096, {{"zeta", 1}, {"alpha", 2.5}, {"mid", 0}});
  EXPECT_EQ(fig.json(),
            R"({"bench":"ext_fault_recovery","config":"2 hosts x 8 cores, 6 jobs",)"
            R"("seed":42,"rows":[)"
            R"({"label":"p0.2/i0","bytes":0,"latency_us":942.3396771,)"
            R"("crash_prob":0.2,"crashes":9,"lost_work_us":697.3829109,)"
            R"("makespan_us":942.3396771},)"
            R"({"label":"b","bytes":4096,"zeta":1,"alpha":2.5,"mid":0}]})"
            "\n");
}

TEST(BenchFigure, WritesTheJsonFileItWasAskedFor) {
  const std::string path = testing::TempDir() + "bench_harness_test.json";
  const char* argv[] = {"bench", "--json", path.c_str()};
  Options opts(3, argv);
  Figure fig(opts, "t", "c", 7);
  fig.row("x", 8, 1.5, 0.0);
  testing::internal::CaptureStdout();
  EXPECT_EQ(fig.finish(), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "results written to " + path + "\n");
  std::ifstream in(path, std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), fig.json());
}

TEST(BenchFigure, UnwritablePathFails) {
  const char* argv[] = {"bench", "--json", "/nonexistent/dir/x.json"};
  Options opts(3, argv);
  Figure fig(opts, "t", "c");
  testing::internal::CaptureStdout();
  fig.check(true, "fine");
  testing::internal::CaptureStderr();
  EXPECT_EQ(fig.finish(), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: cannot write /nonexistent/dir/x.json\n");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "[SHAPE-OK] fine\n");
}

}  // namespace
}  // namespace cbmpi::bench
