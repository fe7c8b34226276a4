#include "mpi/locality.hpp"

#include "common/error.hpp"

namespace cbmpi::mpi {

ContainerLocalityDetector::ContainerLocalityDetector(std::string job_tag, int nranks)
    : segment_name_("locality_" + std::move(job_tag)), nranks_(nranks) {
  CBMPI_REQUIRE(nranks > 0, "detector needs at least one rank");
}

std::shared_ptr<osl::ShmSegment> ContainerLocalityDetector::list_for(
    const osl::SimProcess& proc) const {
  auto& shm = proc.host().shm();
  const auto ipc_ns = proc.namespaces().get(osl::NamespaceType::Ipc);
  return shm.open(ipc_ns, segment_name_, static_cast<Bytes>(nranks_));
}

void ContainerLocalityDetector::announce(const osl::SimProcess& proc, int rank) {
  CBMPI_REQUIRE(rank >= 0 && rank < nranks_, "rank out of range: ", rank);
  list_for(proc)->store_byte(static_cast<Bytes>(rank), 1);
}

int ContainerLocalityDetector::list_key(const osl::SimProcess& proc) const {
  auto list = list_for(proc);
  for (int j = 0; j < nranks_; ++j)
    if (list->load_byte(static_cast<Bytes>(j)) != 0) return j;
  return -1;
}

Micros ContainerLocalityDetector::detection_cost() const {
  // One byte store (~one cacheline write) + a linear scan of nranks bytes at
  // cached-read speed (~16 B/ns) + segment open bookkeeping.
  constexpr Micros kStore = 0.01;
  constexpr Micros kOpen = 0.5;
  const Micros scan = static_cast<double>(nranks_) / 16000.0;
  return kStore + kOpen + scan;
}

Micros ContainerLocalityDetector::fallback_cost() const {
  // Failed open + one retried open (each ~= the open bookkeeping cost) plus a
  // string compare per rank (~4x the byte-scan cost).
  constexpr Micros kFailedOpen = 0.5;
  constexpr Micros kRetriedOpen = 0.5;
  const Micros compares = static_cast<double>(nranks_) / 4000.0;
  return kFailedOpen + kRetriedOpen + compares;
}

}  // namespace cbmpi::mpi
