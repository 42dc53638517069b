#include "serve_child.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"

namespace perfbench {
namespace {

constexpr const char* kListening = "listening on ";

/// Reads what is available within `timeout_ms`; false on EOF or timeout.
bool ReadSome(int fd, std::string& out, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
  char buffer[4096];
  const ssize_t n = ::read(fd, buffer, sizeof(buffer));
  if (n <= 0) return false;
  out.append(buffer, static_cast<std::size_t>(n));
  return true;
}

}  // namespace

ServeChild::ServeChild(const std::string& binary,
                       const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage = {binary, "--endpoint",
                                           "tcp:127.0.0.1:0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("abenc_serve: pipe failed");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("abenc_serve: fork failed");
  }
  if (pid_ == 0) {
    // Child: async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];

  std::string text;
  const std::int64_t deadline = NowNs() + 10'000'000'000LL;
  std::size_t newline = std::string::npos;
  while ((newline = text.find('\n')) == std::string::npos &&
         NowNs() < deadline) {
    if (!ReadSome(out_fd_, text, 100) && text.find('\n') == std::string::npos) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
    }
  }
  const std::string line =
      newline == std::string::npos ? text : text.substr(0, newline);
  const std::size_t at = line.find(kListening);
  if (at == std::string::npos) {
    Stop();
    throw std::runtime_error("abenc_serve did not start: '" + line + "'");
  }
  endpoint_ = line.substr(at + std::string(kListening).size());
  pending_ = text.substr(newline + 1);
}

ServeChild::~ServeChild() { Stop(); }

double ServeChild::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (rest >> field); ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServeChild::PeakRssMb() const {
  return perfbench::PeakRssMb(std::to_string(pid_));
}

std::string ServeChild::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = NowNs() + 5'000'000'000LL;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           NowNs() < deadline) {
      ReadSome(out_fd_, pending_, 10);
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    while (ReadSome(out_fd_, pending_, 50)) {
    }
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return pending_;
}

long long FramesOut(const std::string& stop_summary) {
  const std::size_t at = stop_summary.find(" frames out");
  if (at == std::string::npos) return -1;
  std::size_t begin = at;
  while (begin > 0 && stop_summary[begin - 1] >= '0' &&
         stop_summary[begin - 1] <= '9') {
    --begin;
  }
  if (begin == at) return -1;
  return std::stoll(stop_summary.substr(begin, at - begin));
}

}  // namespace perfbench
