#include "mpi/communicator.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace cbmpi::mpi {

std::shared_ptr<const CommGroup> CommGroup::make(std::vector<int> world_ranks) {
  auto group = std::make_shared<CommGroup>();
  group->world_ranks = std::move(world_ranks);
  group->to_comm.reserve(group->world_ranks.size());
  for (std::size_t i = 0; i < group->world_ranks.size(); ++i) {
    const bool inserted =
        group->to_comm.emplace(group->world_ranks[i], static_cast<int>(i)).second;
    CBMPI_REQUIRE(inserted, "duplicate world rank in communicator group");
  }
  return group;
}

int position_of(const std::vector<int>& list, int rank) {
  const auto it = std::find(list.begin(), list.end(), rank);
  return it == list.end() ? -1 : static_cast<int>(it - list.begin());
}

Communicator::Communicator(Adi3Engine& engine, std::shared_ptr<const CommGroup> group,
                           std::uint64_t id)
    : engine_(&engine), group_(std::move(group)), id_(id) {
  const auto it = group_->to_comm.find(engine_->world_rank());
  CBMPI_REQUIRE(it != group_->to_comm.end(),
                "rank ", engine_->world_rank(), " is not in this communicator");
  my_rank_ = it->second;
}

int Communicator::to_world(int comm_rank) const {
  CBMPI_REQUIRE(comm_rank >= 0 && comm_rank < size(),
                "communicator rank out of range: ", comm_rank);
  return group_->world_ranks[static_cast<std::size_t>(comm_rank)];
}

int Communicator::from_world(int world_rank) const {
  const auto it = group_->to_comm.find(world_rank);
  CBMPI_REQUIRE(it != group_->to_comm.end(), "world rank ", world_rank,
                " not in communicator");
  return it->second;
}

namespace {
/// Ends a poll that found nothing: yields the rank's fiber, so a rank that
/// polls in a loop cannot hold its worker. Returns `found`.
template <typename Found>
Found yield_unless(Found found) {
  if (!found) RankScheduler::yield();
  return found;
}
}  // namespace

bool Communicator::test(const Request& request) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Test);
  return yield_unless(engine_->test(request));
}

Status Communicator::wait(const Request& request) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Wait);
  Status status = engine_->wait(request);
  if (request->kind == RequestState::Kind::Recv && status.source != kAnySource)
    status.source = from_world(status.source);
  return status;
}

void Communicator::wait_all(std::span<const Request> requests) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Wait);
  engine_->wait_all(requests);
}

std::size_t Communicator::wait_any(std::span<const Request> requests) {
  CBMPI_REQUIRE(!requests.empty(), "wait_any on an empty request set");
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Wait);
  std::size_t index = 0;
  engine_->block_until([&] {
    for (index = 0; index < requests.size(); ++index)
      if (engine_->test(requests[index])) return true;
    return false;
  });
  return index;
}

std::optional<std::size_t> Communicator::test_any(std::span<const Request> requests) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Test);
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (engine_->test(requests[i])) return i;
  return yield_unless(std::optional<std::size_t>());
}

bool Communicator::test_all(std::span<const Request> requests) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Test);
  bool all = true;
  for (const auto& request : requests)
    all = engine_->test(request) && all;
  return yield_unless(all);
}

Status Communicator::probe(int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Probe);
  const int src_world = src == kAnySource ? kAnySource : to_world(src);
  std::optional<Status> status;
  engine_->block_until([&] {
    status = engine_->iprobe(src_world, tag, id_);
    return status.has_value();
  });
  status->source = from_world(status->source);
  return *status;
}

std::optional<Status> Communicator::iprobe(int src, int tag) {
  const ProfiledCall prof_scope(*engine_, prof::CallKind::Probe);
  const int src_world = src == kAnySource ? kAnySource : to_world(src);
  auto status = engine_->iprobe(src_world, tag, id_);
  if (status) status->source = from_world(status->source);
  return yield_unless(status);
}

Request Communicator::raw_isend(CBytes data, int dst, int tag) {
  return engine_->start_send(data, to_world(dst), tag, id_);
}

Request Communicator::raw_irecv(WBytes buffer, int src, int tag) {
  const int src_world = src == kAnySource ? kAnySource : to_world(src);
  return engine_->post_recv(buffer, src_world, tag, id_);
}

int Communicator::begin_collective() {
  constexpr std::uint64_t kEpochs =
      (std::uint64_t{1} << 30) / static_cast<std::uint64_t>(kSubTags);
  const auto epoch = next_coll_seq_++ % kEpochs;
  return kCollectiveTagBase + static_cast<int>(epoch * kSubTags);
}

Communicator::Collective::Collective(Communicator& comm, const char* kind)
    : tag(comm.begin_collective()),
      scope_(*comm.engine_, {kind, comm.next_coll_seq_}) {}

std::vector<int> Communicator::all_ranks() const {
  std::vector<int> list(static_cast<std::size_t>(size()));
  std::iota(list.begin(), list.end(), 0);
  return list;
}

int Communicator::position_in(const std::vector<int>& list) const {
  const int pos = position_of(list, my_rank_);
  CBMPI_REQUIRE(pos >= 0, "rank ", my_rank_, " not in collective rank list");
  return pos;
}

const LocalityGroups& Communicator::locality_groups() {
  if (locality_) return *locality_;

  const int n = size();
  LocalityGroups groups;
  // leader_of[j] = smallest comm rank co-resident with j. With homogeneous
  // detection co-residency is transitive (same hostname / same container
  // list) and this is already a partition — but fault degradation can mix
  // container-aware and hostname-fallback ranks in one job, breaking
  // transitivity (j~k and k~i without j~i). Grouping must then still be a
  // partition that every rank derives identically, or ranks disagree about
  // who gathers whom and the collective deadlocks.
  groups.leader_of = engine_->job().selector->lowest_co_resident(group_->world_ranks);
  // Path-compress leader chains (leader_of[j] <= j, so chains strictly
  // descend and terminate) into that partition. Under a non-transitive
  // mix a member may reach its leader over a non-co-resident (HCA) link;
  // that costs time, never correctness.
  for (int j = 0; j < n; ++j) {
    int leader = groups.leader_of[static_cast<std::size_t>(j)];
    while (groups.leader_of[static_cast<std::size_t>(leader)] != leader)
      leader = groups.leader_of[static_cast<std::size_t>(leader)];
    groups.leader_of[static_cast<std::size_t>(j)] = leader;
  }

  const int mine = groups.leader_of[static_cast<std::size_t>(my_rank_)];
  for (int j = 0; j < n; ++j)
    if (groups.leader_of[static_cast<std::size_t>(j)] == mine)
      groups.my_group.push_back(j);
  groups.my_leader = mine;  // == my_group.front(): a leader leads itself
  groups.group_size = static_cast<int>(groups.my_group.size());

  std::vector<int> group_sizes(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    const int leader = groups.leader_of[static_cast<std::size_t>(j)];
    if (leader == j) groups.leaders.push_back(j);
    ++group_sizes[static_cast<std::size_t>(leader)];
  }
  for (const int size : group_sizes)
    groups.max_group_size = std::max(groups.max_group_size, size);

  groups.uniform = true;
  for (int leader : groups.leaders)
    if (group_sizes[static_cast<std::size_t>(leader)] !=
        group_sizes[static_cast<std::size_t>(groups.leaders.front())])
      groups.uniform = false;

  // Contiguity: each group occupies the rank range [leader, leader + size).
  groups.contiguous = true;
  for (int j = 0; j < n; ++j) {
    const int leader = groups.leader_of[static_cast<std::size_t>(j)];
    if (j - leader >= group_sizes[static_cast<std::size_t>(leader)])
      groups.contiguous = false;
  }

  locality_ = std::move(groups);
  return *locality_;
}

std::optional<Communicator> Communicator::split(int color, int key) {
  const Collective scope(*this, "split");
  const int tag = scope.tag;
  const std::uint64_t ordinal = next_child_ordinal_++;

  struct Triple {
    int color;
    int key;
    int comm_rank;
  };
  const Triple mine{color, key, my_rank_};
  std::vector<Triple> all(static_cast<std::size_t>(size()));
  allgather_over(all_ranks(), std::as_bytes(std::span<const Triple>(&mine, 1)),
                 std::as_writable_bytes(std::span<Triple>(all)), tag, coll::Algo::Ring);

  if (color < 0) return std::nullopt;

  std::vector<Triple> members;
  for (const auto& t : all)
    if (t.color == color) members.push_back(t);
  std::sort(members.begin(), members.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.key, a.comm_rank) < std::tie(b.key, b.comm_rank);
  });

  std::vector<int> world_ranks;
  world_ranks.reserve(members.size());
  for (const auto& t : members) world_ranks.push_back(to_world(t.comm_rank));

  std::uint64_t child_id = mix64(id_ ^ mix64(ordinal));
  child_id = mix64(child_id ^ static_cast<std::uint64_t>(color));
  return Communicator(*engine_, CommGroup::make(std::move(world_ranks)), child_id);
}

Communicator Communicator::dup() {
  const std::uint64_t ordinal = next_child_ordinal_++;
  // Collective by contract; no data exchange needed — the id derivation is
  // deterministic and identical on all ranks.
  const std::uint64_t child_id = mix64(id_ ^ mix64(ordinal ^ 0x5bd1e995ULL));
  return Communicator(*engine_, group_, child_id);
}

}  // namespace cbmpi::mpi
