// Runtime tuning parameters, named after their MVAPICH2 counterparts.
//
// The paper re-tunes three of these for container environments (Sec. IV-C/D):
//   SMP_EAGER_SIZE          = 8 K   (SHM eager / CMA rendezvous switch point)
//   SMPI_LENGTH_QUEUE       = 128 K (per-pair shared eager queue, as costed)
//   MV2_IBA_EAGER_THRESHOLD = 17 K  (HCA eager / rendezvous switch point)
#pragma once

#include "common/units.hpp"

namespace cbmpi::fabric {

struct TuningParams {
  /// Messages below this go through the SHM eager path; at or above it they
  /// use the rendezvous protocol (CMA single copy when available).
  Bytes smp_eager_size = 8_KiB;

  /// Size of the shared-memory eager queue between every pair of co-resident
  /// processes in the SHM cost model: cell count, cache derate and SHM
  /// rendezvous chunk. Only the model sees it; nothing of this size is
  /// allocated.
  Bytes smpi_length_queue = 128_KiB;

  /// HCA switch point between eager (receiver-side copy) and rendezvous
  /// (RTS/CTS handshake + zero-copy RDMA).
  Bytes iba_eager_threshold = 17_KiB;

  /// Enables the CMA channel for large intra-host messages.
  bool use_cma = true;

  /// Pin-down (memory-registration) model for the HCA rendezvous path. Off
  /// by default: buffer registration costs nothing, so HcaChannel::rndv_times
  /// runs with empty pin windows and the payload as one chunk (rndv_chunk
  /// and reg_cost_scale are then inert). When on, every rendezvous
  /// endpoint must have its buffer registered — reg/dereg costs come from
  /// the MachineProfile's hca_reg_* terms — and an LRU pin-down cache of
  /// `reg_cache_bytes` pinned capacity per rank amortizes them across
  /// reuses (mirrors MV2_USE_LAZY_MEM_UNREGISTER). Eager transfers stay
  /// copy-based and unregistered, so the eager threshold then trades copy
  /// cost against pin-down cost exactly as in the real stack.
  bool reg_model = false;

  /// Per-rank pinned-bytes capacity of the registration cache. 0 keeps the
  /// model on but caches nothing: every rendezvous registers and
  /// deregisters its buffer (the cold-cache baseline). Hosts that
  /// over-commit SR-IOV VFs shrink each rank's share by the fabric's
  /// vf_share weight.
  Bytes reg_cache_bytes = 64_MiB;

  /// Scale factor on the modeled reg/dereg costs (sensitivity sweeps).
  double reg_cost_scale = 1.0;

  /// Pipelined rendezvous chunk: registration of chunk k+1 overlaps the
  /// RDMA of chunk k (MV2_RNDV_CHUNK analogue). Set it at or above the
  /// message size to force serial register-then-send. Only consulted under
  /// the registration model.
  Bytes rndv_chunk = 512_KiB;
};

}  // namespace cbmpi::fabric
