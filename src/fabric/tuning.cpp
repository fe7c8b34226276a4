#include "fabric/tuning.hpp"

namespace cbmpi::fabric {
static_assert(TuningParams{}.smp_eager_size == 8_KiB);
static_assert(TuningParams{}.smpi_length_queue == 128_KiB);
static_assert(TuningParams{}.iba_eager_threshold == 17_KiB);
// The registration model defaults off: the HCA rendezvous then pins nothing
// and sends one chunk, which every committed baseline number was made with.
static_assert(!TuningParams{}.reg_model);
static_assert(TuningParams{}.rndv_chunk == 512_KiB);
}  // namespace cbmpi::fabric
