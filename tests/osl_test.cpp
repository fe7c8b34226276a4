// Unit tests for the simulated OS layer: namespaces, shared memory (with IPC
// namespace scoping), processes, CMA permission semantics.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "osl/cma.hpp"
#include "osl/machine.hpp"
#include "osl/process.hpp"
#include "topo/hardware.hpp"

namespace cbmpi::osl {
namespace {

Machine make_machine(int hosts = 2) {
  return Machine(topo::ClusterBuilder().hosts(hosts).build());
}

TEST(Namespaces, RootNamespacesDifferAcrossHosts) {
  auto machine = make_machine();
  const auto& a = machine.host_os(0).root_namespaces();
  const auto& b = machine.host_os(1).root_namespaces();
  EXPECT_FALSE(a.shares(NamespaceType::Ipc, b));
  EXPECT_FALSE(a.shares(NamespaceType::Pid, b));
}

TEST(Namespaces, SetAndShare) {
  NamespaceSet a, b;
  a.set(NamespaceType::Ipc, {7});
  b.set(NamespaceType::Ipc, {7});
  b.set(NamespaceType::Pid, {9});
  EXPECT_TRUE(a.shares(NamespaceType::Ipc, b));
  EXPECT_FALSE(a.shares(NamespaceType::Pid, b));
}

TEST(Namespaces, Names) {
  EXPECT_STREQ(to_string(NamespaceType::Ipc), "ipc");
  EXPECT_STREQ(to_string(NamespaceType::Uts), "uts");
}

TEST(Shm, ByteStoresVisible) {
  ShmSegment segment(64);
  segment.store_byte(5, 42);
  EXPECT_EQ(segment.load_byte(5), 42);
  EXPECT_EQ(segment.load_byte(6), 0);
}

TEST(Shm, OutOfRangeThrows) {
  ShmSegment segment(16);
  EXPECT_THROW(segment.store_byte(16, 1), Error);
  EXPECT_THROW(segment.load_byte(99), Error);
}

TEST(Shm, FreshQueueSegmentReadsZero) {
  // The locality list reads a rank that never announced itself as 0 from
  // the lazily zeroed mapping; nothing clears it up front.
  constexpr Bytes kBytes = 128_KiB;
  ShmSegment segment(kBytes);
  int nonzero = 0;
  for (Bytes i = 0; i < kBytes; ++i)
    if (segment.load_byte(i) != 0) ++nonzero;
  EXPECT_EQ(nonzero, 0);
}

TEST(Shm, ConcurrentByteStoresAllVisible) {
  // The container-list protocol: every rank announces itself with one
  // lock-free byte store, concurrently with the others.
  constexpr int kThreads = 16;
  ShmSegment segment(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&segment, t] { segment.store_byte(static_cast<Bytes>(t), 1); });
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(segment.load_byte(static_cast<Bytes>(t)), 1) << "byte " << t;
}

TEST(Shm, OpenIsCreateOrAttach) {
  auto machine = make_machine(1);
  auto& shm = machine.host_os(0).shm();
  const NamespaceId ns{100};
  auto a = shm.open(ns, "seg", 64);
  a->store_byte(0, 7);
  auto b = shm.open(ns, "seg", 64);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->load_byte(0), 7);
  EXPECT_EQ(shm.segment_count(), 1u);
}

TEST(Shm, SegmentsScopedByIpcNamespace) {
  auto machine = make_machine(1);
  auto& shm = machine.host_os(0).shm();
  auto a = shm.open(NamespaceId{1}, "locality", 8);
  auto b = shm.open(NamespaceId{2}, "locality", 8);
  EXPECT_NE(a.get(), b.get());
  a->store_byte(0, 1);
  EXPECT_EQ(b->load_byte(0), 0);
  EXPECT_EQ(shm.find(NamespaceId{3}, "locality"), nullptr);
}

TEST(Shm, UnlinkRemovesName) {
  auto machine = make_machine(1);
  auto& shm = machine.host_os(0).shm();
  auto a = shm.open(NamespaceId{1}, "x", 8);
  shm.unlink(NamespaceId{1}, "x");
  EXPECT_EQ(shm.find(NamespaceId{1}, "x"), nullptr);
  a->store_byte(0, 5);  // existing handle still usable
  EXPECT_EQ(a->load_byte(0), 5);
}

TEST(Machine, HostnamesResolvePerUtsNamespace) {
  auto machine = make_machine(2);
  auto& host = machine.host_os(0);
  EXPECT_EQ(host.hostname(host.root_namespaces().get(NamespaceType::Uts)), "host0");
  const auto fresh = host.make_namespace(NamespaceType::Uts);
  host.set_hostname(fresh, "container-a");
  EXPECT_EQ(host.hostname(fresh), "container-a");
  EXPECT_THROW(host.hostname(NamespaceId{99999}), Error);
}

TEST(Machine, PidsAreUniquePerHost) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  const Pid a = host.allocate_pid();
  const Pid b = host.allocate_pid();
  EXPECT_NE(a, b);
}

TEST(Process, HostnameAndBindings) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  SimProcess proc(host, host.root_namespaces(), topo::CoreId{1, 3});
  EXPECT_EQ(proc.hostname(), "host0");
  EXPECT_EQ(proc.core().socket, 1);
  EXPECT_EQ(proc.core().core, 3);
}

TEST(Process, ComputeAdvancesClock) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  SimProcess proc(host, host.root_namespaces(), topo::CoreId{0, 0});
  proc.compute(machine.profile().compute_ops_per_micro * 5.0);
  EXPECT_DOUBLE_EQ(proc.clock().now(), 5.0);
}

TEST(Process, SameHostSameSocket) {
  auto machine = make_machine(2);
  auto& h0 = machine.host_os(0);
  auto& h1 = machine.host_os(1);
  SimProcess a(h0, h0.root_namespaces(), topo::CoreId{0, 0});
  SimProcess b(h0, h0.root_namespaces(), topo::CoreId{0, 5});
  SimProcess c(h0, h0.root_namespaces(), topo::CoreId{1, 0});
  SimProcess d(h1, h1.root_namespaces(), topo::CoreId{0, 0});
  EXPECT_TRUE(a.same_host(b));
  EXPECT_TRUE(a.same_socket(b));
  EXPECT_TRUE(a.same_host(c));
  EXPECT_FALSE(a.same_socket(c));
  EXPECT_FALSE(a.same_host(d));
  EXPECT_FALSE(a.same_socket(d));
}

TEST(Cma, AllowedWithinSharedPidNamespace) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  SimProcess a(host, host.root_namespaces(), topo::CoreId{0, 0});
  SimProcess b(host, host.root_namespaces(), topo::CoreId{0, 1});
  std::vector<std::byte> src(32, std::byte{9});
  std::vector<std::byte> dst(32);
  EXPECT_EQ(cma::read(a, b, dst, src), cma::Result::Ok);
  EXPECT_EQ(dst[31], std::byte{9});
}

TEST(Cma, DeniedAcrossPidNamespaces) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  NamespaceSet isolated = host.root_namespaces();
  isolated.set(NamespaceType::Pid, host.make_namespace(NamespaceType::Pid));
  SimProcess a(host, host.root_namespaces(), topo::CoreId{0, 0});
  SimProcess b(host, isolated, topo::CoreId{0, 1});
  std::vector<std::byte> buf(8);
  EXPECT_EQ(cma::check(a, b), cma::Result::PermissionDenied);
  EXPECT_EQ(cma::write(a, b, buf, buf), cma::Result::PermissionDenied);
}

TEST(Cma, RemoteHostRefused) {
  auto machine = make_machine(2);
  auto& h0 = machine.host_os(0);
  auto& h1 = machine.host_os(1);
  SimProcess a(h0, h0.root_namespaces(), topo::CoreId{0, 0});
  SimProcess b(h1, h1.root_namespaces(), topo::CoreId{0, 0});
  EXPECT_EQ(cma::check(a, b), cma::Result::RemoteHost);
}

TEST(Cma, WriteDirection) {
  auto machine = make_machine(1);
  auto& host = machine.host_os(0);
  SimProcess a(host, host.root_namespaces(), topo::CoreId{0, 0});
  SimProcess b(host, host.root_namespaces(), topo::CoreId{0, 1});
  std::vector<std::byte> src(4, std::byte{3});
  std::vector<std::byte> dst(4);
  EXPECT_EQ(cma::write(a, b, src, dst), cma::Result::Ok);
  EXPECT_EQ(dst[0], std::byte{3});
}

TEST(Cma, ResultNames) {
  EXPECT_STREQ(cma::to_string(cma::Result::Ok), "ok");
  EXPECT_NE(std::string(cma::to_string(cma::Result::PermissionDenied)).find("EPERM"),
            std::string::npos);
}

}  // namespace
}  // namespace cbmpi::osl
