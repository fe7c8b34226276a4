// Tests for derived datatypes (strided vectors), persistent requests, the
// trace exporter's instant events, and the LU wavefront kernel.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/npb/npb.hpp"
#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"
#include "obs/report.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::LocalityPolicy;
using mpi::JobConfig;
using mpi::VectorLayout;

TEST(VectorLayout, ExtentAndElements) {
  const VectorLayout layout{4, 3, 10};
  EXPECT_EQ(layout.elements(), 12u);
  EXPECT_EQ(layout.extent(), 33u);
  EXPECT_EQ((VectorLayout{0, 3, 10}).extent(), 0u);
  EXPECT_THROW((VectorLayout{2, 5, 3}).validate(), Error);
}

TEST(VectorLayout, PackUnpackRoundTrip) {
  const VectorLayout layout{3, 2, 5};
  std::vector<int> source(layout.extent());
  std::iota(source.begin(), source.end(), 100);
  std::vector<int> packed(layout.elements());
  mpi::pack(std::span<const int>(source), layout, std::span<int>(packed));
  EXPECT_EQ(packed, (std::vector<int>{100, 101, 105, 106, 110, 111}));

  std::vector<int> restored(layout.extent(), -1);
  mpi::unpack(std::span<const int>(packed), layout, std::span<int>(restored));
  EXPECT_EQ(restored[0], 100);
  EXPECT_EQ(restored[6], 106);
  EXPECT_EQ(restored[11], 111);
  EXPECT_EQ(restored[2], -1);  // gaps untouched
}

TEST(Datatype, StridedSendRecvMovesColumn) {
  // Send column 2 of a 6x8 row-major matrix between ranks.
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::containers(1, 2, 2);
  cfg.policy = LocalityPolicy::ContainerAware;
  mpi::run_job(cfg, [](mpi::Process& p) {
    constexpr int kRows = 6, kCols = 8;
    const VectorLayout column{kRows, 1, kCols};
    if (p.rank() == 0) {
      std::vector<double> matrix(kRows * kCols);
      for (int i = 0; i < kRows; ++i)
        for (int j = 0; j < kCols; ++j)
          matrix[static_cast<std::size_t>(i * kCols + j)] = i * 10 + j;
      mpi::send_strided(p.world(),
                        std::span<const double>(matrix.data() + 2, matrix.size() - 2),
                        column, 1, 3);
    } else {
      std::vector<double> matrix(kRows * kCols, -1.0);
      mpi::recv_strided(p.world(),
                        std::span<double>(matrix.data() + 2, matrix.size() - 2),
                        column, 0, 3);
      for (int i = 0; i < kRows; ++i) {
        EXPECT_DOUBLE_EQ(matrix[static_cast<std::size_t>(i * kCols + 2)], i * 10 + 2);
        EXPECT_DOUBLE_EQ(matrix[static_cast<std::size_t>(i * kCols + 3)], -1.0);
      }
    }
  });
}

TEST(Datatype, StridedSizeMismatchThrows) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  EXPECT_THROW(
      mpi::run_job(cfg,
                   [](mpi::Process& p) {
                     if (p.rank() == 0) {
                       std::vector<int> four(4, 1);
                       p.world().send(std::span<const int>(four), 1, 9);
                     } else {
                       std::vector<int> buffer(100);
                       const VectorLayout expects_six{6, 1, 2};
                       mpi::recv_strided(p.world(), std::span<int>(buffer),
                                         expects_six, 0, 9);
                     }
                   }),
      Error);
}

TEST(Persistent, SendRecvReusedAcrossIterations) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::containers(1, 2, 2);
  cfg.policy = LocalityPolicy::ContainerAware;
  mpi::run_job(cfg, [](mpi::Process& p) {
    constexpr int kIters = 12;
    std::vector<int> buffer(64);
    if (p.rank() == 0) {
      auto plan = mpi::send_init(p.world(), std::span<const int>(buffer), 1, 5);
      for (int it = 0; it < kIters; ++it) {
        std::fill(buffer.begin(), buffer.end(), it);
        auto request = plan.start();
        p.world().wait(request);
      }
    } else {
      auto plan = mpi::recv_init(p.world(), std::span<int>(buffer), 0, 5);
      for (int it = 0; it < kIters; ++it) {
        auto request = plan.start();
        p.world().wait(request);
        EXPECT_EQ(buffer[32], it) << "iteration " << it;
      }
    }
  });
}

TEST(Persistent, RestartBeforeCompletionThrows) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  EXPECT_THROW(mpi::run_job(cfg,
                            [](mpi::Process& p) {
                              std::vector<int> buffer(8);
                              if (p.rank() == 1) {
                                auto plan = mpi::recv_init(
                                    p.world(), std::span<int>(buffer), 0, 5);
                                plan.start();
                                plan.start();  // previous not complete
                              } else {
                                p.world().barrier();
                              }
                            }),
               Error);
}

TEST(TraceExport, ProducesLoadableChromeJson) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  cfg.record_trace = true;
  const auto result = mpi::run_job(cfg, [](mpi::Process& p) {
    if (p.rank() == 0)
      p.world().send_value<int>(1, 1);
    else
      p.world().recv_value<int>(0);
    p.compute(100.0);
  });
  const std::string json = obs::to_perfetto(result.spans, result.trace);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("send-eager"), std::string::npos);
  EXPECT_NE(json.find("compute"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceExport, EmptyTraceIsValid) {
  const std::string json = obs::to_perfetto({}, {});
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
}

struct LuCase {
  int hosts;
  int containers;
  int procs_per_host;
};

class LuKernel : public testing::TestWithParam<LuCase> {};

TEST_P(LuKernel, WavefrontMatchesSerialReference) {
  const auto& c = GetParam();
  JobConfig cfg;
  cfg.deployment = c.containers == 0
                       ? DeploymentSpec::native_hosts(c.hosts, c.procs_per_host)
                       : DeploymentSpec::containers(c.hosts, c.containers,
                                                    c.procs_per_host);
  cfg.policy = LocalityPolicy::ContainerAware;
  mpi::run_job(cfg, [](mpi::Process& p) {
    apps::npb::LuParams params;
    params.grid = 32;
    params.sweeps = 2;
    const auto result = apps::npb::run_lu(p, params);
    EXPECT_TRUE(result.verified);
    EXPECT_GT(result.time, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Deployments, LuKernel,
                         testing::Values(LuCase{1, 0, 1}, LuCase{1, 0, 4},
                                         LuCase{1, 2, 4}, LuCase{2, 2, 4}));

TEST(LuKernel, PipelineGainsFromLocality) {
  // LU is latency-bound: the locality-aware runtime should beat the default
  // clearly when the pipeline crosses co-resident containers.
  auto run_with = [](LocalityPolicy policy) {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::containers(1, 4, 4);
    cfg.policy = policy;
    Micros t = 0.0;
    mpi::run_job(cfg, [&](mpi::Process& p) {
      apps::npb::LuParams params;
      params.grid = 32;
      params.sweeps = 2;
      const auto result = apps::npb::run_lu(p, params);
      if (p.rank() == 0) t = result.time;
    });
    return t;
  };
  EXPECT_LT(run_with(LocalityPolicy::ContainerAware),
            run_with(LocalityPolicy::HostnameBased) * 0.7);
}

}  // namespace
}  // namespace cbmpi
