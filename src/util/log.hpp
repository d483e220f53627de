// hcsim — assertion and environment helpers.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace hcsim {

/// Print "hcsim fatal: file:line: msg" and abort. Cold and never inlined,
/// so an HCSIM_CHECK with a literal message costs its hot caller only a
/// compare and a call: no std::string is built on the inlined path.
[[noreturn, gnu::cold, gnu::noinline]] void fatal(const char* file, int line, const char* msg);

[[noreturn]] inline void fatal(const char* file, int line, const std::string& msg) {
  fatal(file, line, msg.c_str());
}

/// Simulator invariant check: enabled in all build types — a cycle-level
/// model that silently corrupts state produces plausible-looking wrong
/// numbers, which is worse than crashing.
#define HCSIM_CHECK(cond, msg)                              \
  do {                                                      \
    if (!(cond)) ::hcsim::fatal(__FILE__, __LINE__, (msg)); \
  } while (0)

/// One-shot stderr warning: the first call per `key` prints and returns
/// true, every later call is a silent no-op (returns false). Used for
/// diagnostics that would otherwise spam a sweep — e.g. the O(begin) cost of
/// a large forward-only stream seek (ROADMAP item 3) is reported once per
/// process instead of once per window. Thread-safe; the returned flag lets
/// tests observe the once-latch directly.
bool log_warn_once(const std::string& key, const std::string& msg);

/// Read an environment-variable override (used by benches and the sampling
/// layer to scale runs without recompiling). Malformed values are fatal:
/// an override that silently truncates ("100k" -> 100, "1e8" -> 1) or wraps
/// on overflow would quietly run the wrong experiment, which is worse than
/// stopping. Only plain non-negative decimal integers are accepted.
inline unsigned long long env_u64(const char* name, unsigned long long fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  // strtoull accepts leading whitespace, '+', '-' (negating modulo 2^64) and
  // base prefixes; reject everything but bare digits up front.
  for (const char* p = v; *p; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p)))
      fatal(__FILE__, __LINE__,
            std::string(name) + ": malformed value '" + v +
                "' (non-negative decimal integer required)");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno == ERANGE || end == v || *end != '\0')
    fatal(__FILE__, __LINE__,
          std::string(name) + ": value '" + v + "' does not fit in 64 bits");
  return parsed;
}

}  // namespace hcsim
