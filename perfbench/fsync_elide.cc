// Link-time wrapper around fsync (the binary links with
// -Wl,--wrap=fsync): when elision is on, every fsync the engine issues —
// WAL group commits, snapshot and directory syncs — returns at once, as it
// does on tmpfs.  The write() calls before it still happen, so the log and
// snapshots are complete on disk and a restart replays them as usual.

#include "fsync_elide.h"

#include <atomic>

extern "C" int __real_fsync(int fd);

namespace orion::perfbench {
namespace {
std::atomic<bool> g_elide{false};
std::atomic<uint64_t> g_elided{0};
}  // namespace

void SetFsyncElided(bool on) {
  g_elided.store(0);
  g_elide.store(on);
}
uint64_t ElidedFsyncs() { return g_elided.load(); }

}  // namespace orion::perfbench

extern "C" int __wrap_fsync(int fd) {
  if (orion::perfbench::g_elide.load(std::memory_order_relaxed)) {
    orion::perfbench::g_elided.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return __real_fsync(fd);
}
