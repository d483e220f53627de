// hcsim tests — set an environment variable for one scope.
//
// Knobs such as HCSIM_STREAM_THRESHOLD are re-read on every call, so a test
// can move them at run time; the destructor puts back the value (or the
// absence) the variable had, so later tests in the process see it unchanged.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace hcsim {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_)
      setenv(name_, saved_->c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace hcsim
