// Per-host shared memory (/dev/shm emulation).
//
// Segments are keyed by (IPC namespace, name): a process can only open a
// segment created in its own IPC namespace, which is exactly why the paper's
// container list requires containers to share the host's IPC namespace.
//
// Each ShmSegment is backed by its own anonymous mapping, so like the tmpfs
// pages behind a real /dev/shm segment its memory exists only once touched,
// and a fresh segment reads as all zeros. Its only access is lock-free byte
// ops: the container list protocol writes one byte per rank concurrently
// with no locks ("the byte is the smallest granularity of memory access
// without the lock", Sec. IV-B), and reads an unwritten byte as 0.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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

 private:
  Bytes size_;
  std::uint8_t* bytes_;  ///< owned mapping of size_ bytes
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
