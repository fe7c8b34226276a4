// Unit tests for the simulation primitives: virtual clocks and trace event
// kinds.
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

TEST(Trace, KindNames) {
  EXPECT_STREQ(to_string(TraceKind::SendEager), "send-eager");
  EXPECT_STREQ(to_string(TraceKind::RecvComplete), "recv-complete");
}

}  // namespace
}  // namespace cbmpi::sim
