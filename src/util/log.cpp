#include "util/log.hpp"

#include <mutex>
#include <set>

namespace hcsim {

void fatal(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "hcsim fatal: %s:%d: %s\n", file, line, msg);
  std::abort();
}

bool log_warn_once(const std::string& key, const std::string& msg) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();  // leaked: process-lifetime
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen->insert(key).second) return false;
  }
  std::fprintf(stderr, "hcsim warning: %s\n", msg.c_str());
  return true;
}

}  // namespace hcsim
