#ifndef ORION_PERFBENCH_FSYNC_ELIDE_H_
#define ORION_PERFBENCH_FSYNC_ELIDE_H_

#include <cstdint>

namespace orion::perfbench {

/// Turns fsync elision on or off for the whole process (see
/// fsync_elide.cc) and restarts the count below.
void SetFsyncElided(bool on);
/// fsync calls that returned without syncing since SetFsyncElided.
uint64_t ElidedFsyncs();

}  // namespace orion::perfbench

#endif  // ORION_PERFBENCH_FSYNC_ELIDE_H_
