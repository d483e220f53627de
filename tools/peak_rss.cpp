// peak_rss — run a command and report its own peak resident set size.
//
// A parent's wait4() reads a child's ru_maxrss, and Linux keeps in that
// field the largest peak of every image the child had, the one it was
// forked from included: a sweep started from a 14 MB python3 reads at least
// 14 MB however little it uses itself. This launcher uses about 1 MB, less
// than any sweep, so the ru_maxrss it reads is the command's own peak (its
// VmHWM).
//
// Usage:
//   peak_rss COMMAND [ARG...]
//
// Runs COMMAND, then prints "peak RSS <MB> MB" to stderr and exits with its
// status: 128 + the signal when a signal ended it, 127 when it could not be
// started.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s COMMAND [ARG...]\n", argv[0]);
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    execvp(argv[1], argv + 1);
    std::perror(argv[1]);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return 1;
  }
  std::fprintf(stderr, "peak RSS %.1f MB\n", static_cast<double>(usage.ru_maxrss) / 1024.0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
