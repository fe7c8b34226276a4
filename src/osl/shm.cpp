#include "osl/shm.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace cbmpi::osl {

namespace {

/// A private anonymous mapping: the kernel hands out zero-filled pages on
/// first touch, so nothing is zeroed up front.
std::uint8_t* map_zeroed(Bytes size) {
  CBMPI_REQUIRE(size > 0, "zero-sized shm segment");
  void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CBMPI_REQUIRE(mem != MAP_FAILED, "shm segment mapping of ", size,
                " bytes failed: ", std::strerror(errno));
  return static_cast<std::uint8_t*>(mem);
}

/// `n` bytes at `offset` fit a segment of `size` bytes (no wrap-around for
/// huge offsets).
bool fits(Bytes offset, std::size_t n, Bytes size) {
  return offset <= size && n <= size - offset;
}

}  // namespace

ShmSegment::ShmSegment(Bytes size) : size_(size), bytes_(map_zeroed(size)) {}

ShmSegment::~ShmSegment() { ::munmap(bytes_, size_); }

void ShmSegment::store_byte(Bytes offset, std::uint8_t value) {
  CBMPI_REQUIRE(offset < size(), "shm store out of range: ", offset, " >= ", size());
  std::atomic_ref<std::uint8_t>(bytes_[offset]).store(value, std::memory_order_release);
}

std::uint8_t ShmSegment::load_byte(Bytes offset) const {
  CBMPI_REQUIRE(offset < size(), "shm load out of range: ", offset, " >= ", size());
  return std::atomic_ref<std::uint8_t>(bytes_[offset]).load(std::memory_order_acquire);
}

void ShmSegment::write(Bytes offset, std::span<const std::byte> data) {
  CBMPI_REQUIRE(fits(offset, data.size(), size()), "shm bulk write out of range: ",
                data.size(), " bytes at ", offset, " in ", size());
  if (data.empty()) return;  // an empty span may hold a null pointer memcpy rejects
  const std::scoped_lock lock(bulk_mutex_);
  std::memcpy(bytes_ + offset, data.data(), data.size());
}

void ShmSegment::read(Bytes offset, std::span<std::byte> out) const {
  CBMPI_REQUIRE(fits(offset, out.size(), size()), "shm bulk read out of range: ",
                out.size(), " bytes at ", offset, " in ", size());
  if (out.empty()) return;  // see write()
  const std::scoped_lock lock(bulk_mutex_);
  std::memcpy(out.data(), bytes_ + offset, out.size());
}

std::shared_ptr<ShmSegment> SharedMemoryManager::open(NamespaceId ipc_ns,
                                                      const std::string& name,
                                                      Bytes size) {
  const std::scoped_lock lock(mutex_);
  const Key key{ipc_ns.value, name};
  auto it = segments_.find(key);
  if (it != segments_.end()) {
    CBMPI_REQUIRE(it->second->size() >= size, "existing segment '", name,
                  "' smaller than requested (", it->second->size(), " < ", size, ")");
    return it->second;
  }
  auto segment = std::make_shared<ShmSegment>(size);
  segments_.emplace(key, segment);
  return segment;
}

std::shared_ptr<ShmSegment> SharedMemoryManager::find(NamespaceId ipc_ns,
                                                      const std::string& name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = segments_.find(Key{ipc_ns.value, name});
  return it == segments_.end() ? nullptr : it->second;
}

void SharedMemoryManager::unlink(NamespaceId ipc_ns, const std::string& name) {
  const std::scoped_lock lock(mutex_);
  segments_.erase(Key{ipc_ns.value, name});
}

std::size_t SharedMemoryManager::segment_count() const {
  const std::scoped_lock lock(mutex_);
  return segments_.size();
}

}  // namespace cbmpi::osl
