// Per-host shared memory (/dev/shm emulation).
//
// Segments are keyed by (IPC namespace, name): a process can only open a
// segment created in its own IPC namespace, which is exactly why the paper's
// container list requires containers to share the host's IPC namespace.
//
// Each ShmSegment is backed by its own anonymous mapping, so like the tmpfs
// pages behind a real /dev/shm segment its memory exists only once touched:
// a fresh segment reads as all zeros, and a 128 KiB length queue that only
// ever stages eager messages costs the pages those messages reach. It offers
// two access granularities, used on different segments:
//   * lock-free byte ops — the container list protocol writes one byte per
//     rank concurrently with no locks ("the byte is the smallest granularity
//     of memory access without the lock", Sec. IV-B);
//   * bulk read/write — used by the SHM channel's length queue to stage real
//     payload bytes with memcpy; internally serialized (the channel protocol
//     provides its own ordering, the lock only keeps the simulation free of
//     data races). Bulk ops must not race with byte ops on the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/units.hpp"
#include "osl/namespaces.hpp"

namespace cbmpi::osl {

class ShmSegment {
 public:
  /// Maps `size` zero-filled bytes; throws cbmpi::Error if the mapping fails.
  explicit ShmSegment(Bytes size);
  ~ShmSegment();

  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  Bytes size() const { return size_; }

  /// Lock-free single-byte access (release/acquire so readers see writes
  /// published before a synchronisation point).
  void store_byte(Bytes offset, std::uint8_t value);
  std::uint8_t load_byte(Bytes offset) const;

  /// Bulk staging of payload bytes; offset+data must fit the segment.
  void write(Bytes offset, std::span<const std::byte> data);
  void read(Bytes offset, std::span<std::byte> out) const;

 private:
  Bytes size_;
  std::uint8_t* bytes_;  ///< owned mapping of size_ bytes
  mutable std::mutex bulk_mutex_;
};

/// One host's shared-memory registry.
class SharedMemoryManager {
 public:
  /// shm_open(O_CREAT) semantics: returns the existing segment if present
  /// (size must then be compatible, i.e. existing >= requested), otherwise
  /// creates it.
  std::shared_ptr<ShmSegment> open(NamespaceId ipc_ns, const std::string& name,
                                   Bytes size);

  /// Returns nullptr if the segment does not exist in this IPC namespace.
  std::shared_ptr<ShmSegment> find(NamespaceId ipc_ns, const std::string& name) const;

  /// shm_unlink semantics: removes the name; existing handles stay valid.
  void unlink(NamespaceId ipc_ns, const std::string& name);

  std::size_t segment_count() const;

 private:
  using Key = std::pair<std::uint64_t, std::string>;

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<ShmSegment>> segments_;
};

}  // namespace cbmpi::osl
