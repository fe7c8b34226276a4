// Unit tests for the simulation primitives: virtual clocks and trace
// recording.
#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/trace.hpp"

namespace cbmpi::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(Clock, AdvanceToNeverGoesBack) {
  VirtualClock clock;
  clock.advance(10.0);
  clock.advance_to(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.advance_to(12.0);
  EXPECT_DOUBLE_EQ(clock.now(), 12.0);
}

TEST(Clock, NegativeAdvanceThrows) {
  VirtualClock clock;
  EXPECT_THROW(clock.advance(-1.0), Error);
}

TEST(Clock, Reset) {
  VirtualClock clock;
  clock.advance(3.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(Trace, RecordsAndCounts) {
  TraceRecorder recorder;
  recorder.record({TraceKind::SendEager, 0, 1, 64, 1.0, "SHM"});
  recorder.record({TraceKind::SendRndvRts, 0, 1, 9000, 2.0, "CMA"});
  recorder.record({TraceKind::SendEager, 1, 0, 64, 3.0, "SHM"});
  EXPECT_EQ(recorder.count(TraceKind::SendEager), 2u);
  EXPECT_EQ(recorder.count(TraceKind::SendRndvRts), 1u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].size, 9000u);
  EXPECT_EQ(events[1].note, "CMA");
}

TEST(Trace, Clear) {
  TraceRecorder recorder;
  recorder.record({TraceKind::Put, 0, 1, 8, 0.0, ""});
  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
}

TEST(Trace, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::SendEager), "send-eager");
  EXPECT_STREQ(to_string(TraceKind::RecvComplete), "recv-complete");
}

}  // namespace
}  // namespace cbmpi::sim
