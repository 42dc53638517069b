// The shipped abenc_serve binary as a child process on TCP loopback.
// The child is killed with the benchmark (PR_SET_PDEATHSIG) and stopped
// and reaped by the destructor, so no exit path leaves an orphan server.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class ServeChild {
 public:
  /// Spawns `binary --endpoint tcp:127.0.0.1:0 <args...>` and waits for
  /// its "listening on" line. Throws std::runtime_error when the child
  /// does not come up within a few seconds (it is reaped first).
  ServeChild(const std::string& binary, const std::vector<std::string>& args);
  ~ServeChild();
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }

  /// User + system CPU seconds the child has used so far.
  double CpuSeconds() const;
  /// Peak resident memory (VmHWM) of the child, in MB.
  double PeakRssMb() const;

  /// SIGTERM, wait (SIGKILL after a deadline) and reap. Returns what the
  /// child printed after its listening line (its stop summary). Safe to
  /// call more than once.
  std::string Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string endpoint_;
  std::string pending_;  // stdout read past the listening line
};

/// Parses "N frames out" from abenc_serve's stop summary; -1 if absent.
long long FramesOut(const std::string& stop_summary);

}  // namespace perfbench
