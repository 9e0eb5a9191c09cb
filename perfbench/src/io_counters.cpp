// fsync/fdatasync interposition.  Linked into each perfbench executable,
// these definitions win over libc's for every call the statically linked
// program makes, so durable writes are counted and timed without touching
// the program.  Each forwards to the system call itself.
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<std::uint64_t> g_fsyncNanos{0};

int timedSync(long call, int fd) {
  const auto start = std::chrono::steady_clock::now();
  const int rc = static_cast<int>(::syscall(call, fd));
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  g_fsyncNanos.fetch_add(static_cast<std::uint64_t>(nanos),
                         std::memory_order_relaxed);
  return rc;
}

}  // namespace

std::uint64_t fsyncCalls() { return g_fsyncs.load(std::memory_order_relaxed); }

double fsyncSeconds() {
  return static_cast<double>(g_fsyncNanos.load(std::memory_order_relaxed)) *
         1e-9;
}

}  // namespace perfbench

extern "C" int fsync(int fd) { return perfbench::timedSync(SYS_fsync, fd); }

extern "C" int fdatasync(int fd) {
  return perfbench::timedSync(SYS_fdatasync, fd);
}
