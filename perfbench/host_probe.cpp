// Host-speed probe for run.py, run alongside the timed repetitions.
//
// The shared host this benchmark runs on changes speed by 20-50% over
// seconds to minutes, in user time as much as in wall time. run.py starts this
// probe before the first timed repetition and lets it run on a spare CPU the
// whole time. The probe times one fixed single-thread kernel over and over: a
// dependent hash walk over a 4 KiB table, about 2 ms per pass on the host in
// README.md. It touches no memory beyond that table, so it hardly competes
// with the repetition it runs beside, and it touches no hcsim code, so a change
// to hcsim moves the scaled times exactly as it moves the wall times. run.py
// scales each repetition's times by (reference pass time / mean pass time
// during the repetition).
//
// Runs until its standard input closes, then prints one line per pass:
// "END_NS DUR_NS", the pass's end on the monotonic clock and its length, in
// nanoseconds. It dies with its parent and stops by itself after kMaxSeconds.
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRoundsPerPass = 200000;
constexpr int kMaxSeconds = 600;

volatile std::uint64_t sink;
std::atomic<bool> stop{false};

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

int main() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::thread reader([] {
    char buf[64];
    while (read(0, buf, sizeof buf) > 0) {
    }
    stop = true;
  });

  std::vector<std::uint32_t> table(1u << 10);
  std::uint64_t x = 88172645463325252ull;
  for (std::uint32_t& v : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::uint32_t>(x);
  }
  const auto mask = static_cast<std::uint32_t>(table.size() - 1);

  std::vector<std::pair<std::int64_t, std::int64_t>> passes;
  const Clock::time_point start = Clock::now();
  while (!stop && Clock::now() - start < std::chrono::seconds(kMaxSeconds)) {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t i = 0;
    std::uint64_t acc = 0;
    for (int r = 0; r < kRoundsPerPass; ++r) {
      const std::uint32_t v = table[i];
      acc += (v & 1) ? v * 0x9E3779B97F4A7C15ull : (acc >> 3) ^ v;
      table[i] = v + static_cast<std::uint32_t>(acc);
      i = (v ^ static_cast<std::uint32_t>(acc >> 17)) & mask;
    }
    sink = acc;
    const Clock::time_point t1 = Clock::now();
    passes.emplace_back(ns(t1), ns(t1) - ns(t0));
  }
  reader.join();
  for (const auto& [end, dur] : passes)
    std::printf("%lld %lld\n", static_cast<long long>(end), static_cast<long long>(dur));
  return 0;
}
