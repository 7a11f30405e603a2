// SIGPROF stack sampler for hosts without `perf`, preloaded into the
// profiled process:
//
//   BRISA_SAMPLE_OUT=/tmp/run LD_PRELOAD=./stack_sampler.so ./brisa_run ...
//   python3 scripts/stack_report.py /tmp/run.<pid>
//
// Every BRISA_SAMPLE_US microseconds of process CPU time (default 1000;
// the kernel may coarsen ITIMER_PROF to its tick, e.g. 4 ms) the handler
// records the interrupted program counter, the word at the stack pointer
// (the return address when the sample lands in a frameless leaf routine
// such as libc's memmove, which gprof reports without a caller), and the
// return addresses of the frame-pointer chain — so the target must be
// built with -fno-omit-frame-pointer. At exit it writes
// <BRISA_SAMPLE_OUT>.<pid> (native-endian uint64 words: dropped-sample
// count, then per sample a frame count and the frames), a copy of
// /proc/self/maps as <...>.maps, and the resolved entry points of a few
// libc and libm routines as <...>.syms, so scripts/stack_report.py can
// name code in stripped libraries. x86-64 Linux only; only the main
// thread's stack is walked.
// Build: c++ -O2 -shared -fPIC -o stack_sampler.so stack_sampler.cpp
#include <pthread.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr std::size_t kMaxFrames = 64;
// 64 MB of address space; pages are only touched as samples arrive.
constexpr std::size_t kBufferWords = std::size_t{1} << 23;

std::uint64_t g_buffer[kBufferWords];
std::size_t g_used = 0;
std::uint64_t g_dropped = 0;
std::uintptr_t g_stack_hi = 0;
const char* g_prefix = nullptr;

/// A frame pointer is followed only while it climbs the main thread's
/// stack, so a register that libc reused for data is never dereferenced.
bool plausible_frame(std::uintptr_t fp, std::uintptr_t floor) {
  return fp >= floor && fp % 8 == 0 && fp + 16 <= g_stack_hi;
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* raw) {
  if (g_used + kMaxFrames + 1 > kBufferWords) {
    ++g_dropped;
    return;
  }
  const auto* uc = static_cast<const ucontext_t*>(raw);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  std::uint64_t* record = g_buffer + g_used;
  std::size_t n = 0;
  record[1 + n++] = pc;
  record[1 + n++] = plausible_frame(sp, sp)
                        ? *reinterpret_cast<const std::uintptr_t*>(sp)
                        : 0;
  std::uintptr_t floor = sp;
  while (n < kMaxFrames && plausible_frame(fp, floor)) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    if (frame[1] == 0) break;
    record[1 + n++] = frame[1];
    floor = fp + 16;
    fp = frame[0];
  }
  record[0] = n;
  g_used += n + 1;
}

void copy_file(const char* from, const char* to) {
  FILE* in = std::fopen(from, "r");
  FILE* out = std::fopen(to, "w");
  if (in != nullptr && out != nullptr) {
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, in)) > 0) {
      std::fwrite(chunk, 1, got, out);
    }
  }
  if (in != nullptr) std::fclose(in);
  if (out != nullptr) std::fclose(out);
}

__attribute__((constructor)) void start_sampling() {
  g_prefix = std::getenv("BRISA_SAMPLE_OUT");
  if (g_prefix == nullptr || *g_prefix == '\0') return;
  pthread_attr_t attr;
  void* stack_lo = nullptr;
  std::size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &stack_lo, &stack_size);
  pthread_attr_destroy(&attr);
  g_stack_hi = reinterpret_cast<std::uintptr_t>(stack_lo) + stack_size;

  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  long period_us = 1000;
  if (const char* env = std::getenv("BRISA_SAMPLE_US")) {
    period_us = std::strtol(env, nullptr, 10);
    if (period_us <= 0) period_us = 1000;
  }
  itimerval timer{};
  timer.it_interval.tv_sec = period_us / 1'000'000;
  timer.it_interval.tv_usec = period_us % 1'000'000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void write_samples() {
  if (g_prefix == nullptr || *g_prefix == '\0' || g_stack_hi == 0) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[4096];
  std::snprintf(path, sizeof path, "%s.%ld", g_prefix,
                static_cast<long>(getpid()));
  if (FILE* out = std::fopen(path, "wb")) {
    std::fwrite(&g_dropped, sizeof g_dropped, 1, out);
    std::fwrite(g_buffer, sizeof g_buffer[0], g_used, out);
    std::fclose(out);
  }
  char maps[4200];
  std::snprintf(maps, sizeof maps, "%s.maps", path);
  copy_file("/proc/self/maps", maps);
  char syms[4200];
  std::snprintf(syms, sizeof syms, "%s.syms", path);
  if (FILE* out = std::fopen(syms, "w")) {
    // Through the GOT these are the implementations the IFUNC resolvers
    // picked (for memmove, e.g. __memmove_avx_unaligned_erms), which a
    // stripped libc names nowhere else.
    const struct {
      const char* name;
      const void* addr;
    } entries[] = {
        {"memmove", reinterpret_cast<const void*>(&memmove)},
        {"memcpy", reinterpret_cast<const void*>(&memcpy)},
        {"memset", reinterpret_cast<const void*>(&memset)},
        {"memcmp", reinterpret_cast<const void*>(&memcmp)},
        {"strlen", reinterpret_cast<const void*>(&strlen)},
        {"malloc", reinterpret_cast<const void*>(&malloc)},
        {"free", reinterpret_cast<const void*>(&free)},
        {"log", reinterpret_cast<const void*>(
                    static_cast<double (*)(double)>(&::log))},
        {"exp", reinterpret_cast<const void*>(
                    static_cast<double (*)(double)>(&::exp))},
        {"pow", reinterpret_cast<const void*>(
                    static_cast<double (*)(double, double)>(&::pow))},
    };
    for (const auto& entry : entries) {
      std::fprintf(out, "%lx %s\n",
                   static_cast<unsigned long>(
                       reinterpret_cast<std::uintptr_t>(entry.addr)),
                   entry.name);
    }
    std::fclose(out);
  }
}

}  // namespace
