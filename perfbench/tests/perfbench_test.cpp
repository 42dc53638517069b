// The benchmark's own tests: the p90 support rule, the span self-time
// arithmetic, a sabotaged oracle entry that must fail the run, the
// abenc_serve child being reaped on every exit path, and a traced run
// reporting every ledger row.
//
//   perfbench_test BUILD_DIR
//
// BUILD_DIR holds abenc_perfbench and abenc/net/abenc_serve (run.py
// --self-test passes its own build directory). Exit status 0 iff every
// check passed.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "ledger.h"
#include "serve_child.h"
#include "spans.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++g_failures;                                                  \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " \
                << #cond << "\n";                                    \
    }                                                                \
  } while (0)

std::string g_build;

std::string Serve() { return g_build + "/abenc/net/abenc_serve"; }

bool Alive(pid_t pid) { return ::kill(pid, 0) == 0 || errno != ESRCH; }

/// Pids of running abenc_serve processes started from this build.
std::vector<pid_t> ServePids() {
  std::vector<pid_t> pids;
  const std::string want = std::filesystem::canonical(Serve()).string();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink(entry.path() / "exe", ec);
    if (ec || exe.string() != want) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string pid, comm, state;
    stat >> pid >> comm >> state;
    if (state != "Z") pids.push_back(static_cast<pid_t>(std::stoi(name)));
  }
  return pids;
}

bool WaitGone(pid_t pid, int ms) {
  for (int waited = 0; waited < ms; waited += 10) {
    if (!Alive(pid)) return true;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string id, comm, state;
    stat >> id >> comm >> state;
    if (state == "Z" || state.empty()) return true;  // dead, awaiting reaper
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Runs a command, returns (exit status, stdout).
std::pair<int, std::string> Run(const std::string& command) {
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, out};
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string LastLine(const std::string& text) {
  const std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  const std::size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

void TestPercentileSupport() {
  CHECK(PercentileSupported(100, 0.9));   // rank 90, ten samples beyond
  CHECK(!PercentileSupported(99, 0.9));   // rank 90, nine beyond
  CHECK(PercentileSupported(1000, 0.9));
  CHECK(!PercentileSupported(0, 0.9));
  CHECK(PercentileSupported(20, 0.5));
  CHECK(!PercentileSupported(19, 0.5));
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  CHECK(Percentile(samples, 0.9) == 90.0);
  CHECK(Percentile(samples, 0.5) == 50.0);
  CHECK(Percentile({7.0}, 0.9) == 7.0);
  CHECK(Percentile({}, 0.5) == 0.0);
}

void TestBlockFigures() {
  // 500 jobs of 1 ms, one access each, back to back: five blocks of 100.
  // Slowing every job of one block tenfold moves no figure.
  PhaseResult phase;
  phase.start_ns = 0;
  std::int64_t now = 0;
  for (int j = 0; j < 500; ++j) {
    const std::int64_t ms = j >= 100 && j < 200 ? 10 : 1;
    phase.Record(now, now + ms * 1'000'000, 1, true);
    now += ms * 1'000'000;
  }
  const PhaseFigures figures = Figures(phase);
  CHECK(figures.blocks == 5);
  CHECK(figures.p50_ms == 1.0);
  CHECK(figures.p90_ms == 1.0);
  CHECK(figures.p90_supported);
  CHECK(figures.maccess_s > 0.000999 && figures.maccess_s < 0.001001);

  // Fewer than 5 x 100 jobs: one block, and p90 needs 100 of them.
  PhaseResult short_phase;
  for (int j = 0; j < 99; ++j) short_phase.Record(0, 1'000'000, 1, j != 0);
  const PhaseFigures few = Figures(short_phase);
  CHECK(few.blocks == 1);
  CHECK(!few.p90_supported);
  CHECK(short_phase.failed == 1 && short_phase.attempted == 99);
}

void TestSelfTime() {
  // Parent [0, 100]; children overlap, and one runs past the parent's end.
  std::vector<Span> spans(6);
  spans[0] = {"parent", 0, 100, -1, 1, 0};
  spans[1] = {"a", 10, 30, 0, 1, 0};
  spans[2] = {"b", 20, 50, 0, 1, 0};
  spans[3] = {"c", 60, 70, 0, 1, 0};
  spans[4] = {"d", 90, 120, 0, 1, 0};
  spans[5] = {"grandchild", 62, 68, 3, 1, 0};  // inside c, not the parent
  const std::vector<std::int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 100 - (40 + 10 + 10));
  CHECK(self[1] == 20);
  CHECK(self[3] == 10 - 6);
  CHECK(self[5] == 6);

  // The tracer nests what it records, and a disabled tracer records
  // nothing.
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 7);
    ScopedSpan inner(tracer, "inner", 7);
    inner.items = 3;
  }
  CHECK(tracer.spans().size() == 2);
  CHECK(tracer.spans()[1].parent == 0);
  CHECK(tracer.spans()[1].items == 3);
  CHECK(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
  const auto summary = Summarize(tracer.spans());
  CHECK(summary.at("outer").self_ns + summary.at("inner").total_ns ==
        summary.at("outer").total_ns);
  Tracer off(false);
  CHECK(off.Begin("x") == -1);
  off.End(-1);
  CHECK(off.spans().empty());
}

void TestSabotagedOracle() {
  for (const std::string workload : {"offline-paper", "wire-interactive"}) {
    const std::string base = g_build + "/abenc_perfbench --workload " +
                             workload + " --seed 3 --seconds 1 --trace 0" +
                             " --serve " + Serve() + " --work-dir " + g_build +
                             "/work-test";
    const auto clean = Run(base + " 2>/dev/null");
    CHECK(clean.first == 0);
    CHECK(LastLine(clean.second).find("\"failed\": 0,") != std::string::npos);
    const auto sabotaged = Run(base + " --sabotage-oracle 2>/dev/null");
    CHECK(sabotaged.first == 1);
    const std::string last = LastLine(sabotaged.second);
    CHECK(last.find("\"correct\": false") != std::string::npos);
    CHECK(last.find("\"failed\": 1,") != std::string::npos);
  }
  CHECK(ServePids().empty());
}

void TestTracedLedger() {
  const auto traced = Run(g_build + "/abenc_perfbench --workload "
                          "wire-interactive --seed 3 --seconds 1 --trace 1"
                          " --serve " + Serve() + " --work-dir " + g_build +
                          "/work-test 2>/dev/null");
  CHECK(traced.first == 0);
  const std::string last = LastLine(traced.second);
  CHECK(last.find("\"failed\": 0,") != std::string::npos);
  for (const LayerMetric& row : LayerMetrics()) {
    CHECK(last.find("\"" + std::string(row.name) + "\": {\"value\"") !=
          std::string::npos);
  }
  CHECK(ServePids().empty());
}

void TestServeChildIsReaped() {
  pid_t pid = -1;
  {
    ServeChild child(Serve(), {"--shards", "1"});
    pid = child.pid();
    CHECK(pid > 0 && Alive(pid));
    CHECK(child.endpoint().rfind("tcp:127.0.0.1:", 0) == 0);
  }
  CHECK(!Alive(pid));  // destructor: stopped and reaped, not a zombie

  try {
    ServeChild child(Serve(), {});
    pid = child.pid();
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  CHECK(!Alive(pid));  // unwinding reaps too

  bool threw = false;
  try {
    ServeChild child(Serve(), {"--no-such-flag"});  // exits at once
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD);

  // A benchmark killed outright takes its server with it.
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t bench = ::fork();
  if (bench == 0) {
    const std::string work = g_build + "/work-test";
    std::freopen("/dev/null", "w", stdout);
    ::execl((g_build + "/abenc_perfbench").c_str(), "abenc_perfbench",
            "--workload", "wire-interactive", "--seed", "1", "--seconds",
            "10", "--trace", "0", "--serve", Serve().c_str(), "--work-dir",
            work.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  std::vector<pid_t> servers;
  for (int waited = 0; waited < 20000 && servers.empty(); waited += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    servers = ServePids();
  }
  CHECK(!servers.empty());
  ::kill(bench, SIGKILL);
  ::waitpid(bench, nullptr, 0);
  for (const pid_t server : servers) CHECK(WaitGone(server, 5000));
  CHECK(ServePids().empty());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_test BUILD_DIR\n";
    return 2;
  }
  g_build = argv[1];
  std::filesystem::create_directories(g_build + "/work-test");
  const std::vector<std::pair<const char*, void (*)()>> tests = {
      {"percentile support", TestPercentileSupport},
      {"block figures", TestBlockFigures},
      {"span self time", TestSelfTime},
      {"serve child reaped", TestServeChildIsReaped},
      {"sabotaged oracle", TestSabotagedOracle},
      {"traced ledger", TestTracedLedger},
  };
  for (const auto& [name, test] : tests) {
    const int before = g_failures;
    test();
    std::cout << (g_failures == before ? "PASS " : "FAIL ") << name << "\n";
  }
  return g_failures == 0 ? 0 : 1;
}
