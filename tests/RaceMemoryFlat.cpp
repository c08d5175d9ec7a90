//===- tests/RaceMemoryFlat.cpp - race memory stays flat ----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// `crd check` hands each race on (printed, or only counted under
/// --quiet) and forgets it, so its peak memory must not grow with the race
/// count. This test records two `crd record --stress` traces whose race
/// counts differ about 4.4× (4 producers, 64 objects, no locks; 25 000
/// and 100 000 events per producer), runs `crd check` over each — with
/// --quiet, and printing every race to /dev/null — under the sequential
/// detector and under `--detector=parallel --shards=2`, and reads each
/// run's peak RSS (ru_maxrss) with wait4(). The larger recording's peak
/// must stay within 4 MiB of the smaller one's.
///
/// Each reading is the least of five runs. The shard pipeline keeps up to
/// a ring's depth of 4096-event batches in flight, and how many it fills
/// depends on whether the shards or the producer lag — scheduling, not
/// the input — which moves one run's peak by up to ~8 MiB. That buffering
/// only ever adds to what a run needs; race memory that grew with the
/// race count would raise every run, the least one included.
///
/// A plain program rather than a gtest suite: a forked child's ru_maxrss
/// starts at the parent's RSS, so the parent is kept small.
///
///   race_memory_flat <path to crd> <scratch dir>
///
//===----------------------------------------------------------------------===//

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct RunResult {
  int Exit = -1;
  double PeakMiB = 0;
};

/// Runs \p Argv with stdout sent to \p OutPath and returns its exit code
/// and peak RSS.
RunResult spawn(const std::vector<std::string> &Argv,
                const std::string &OutPath) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (Pid == 0) {
    int Fd = ::open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd < 0 || ::dup2(Fd, STDOUT_FILENO) < 0)
      ::_exit(127);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  int Status = 0;
  rusage Usage{};
  if (::wait4(Pid, &Status, 0, &Usage) != Pid) {
    std::perror("wait4");
    std::exit(2);
  }
  RunResult R;
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  R.PeakMiB = static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
  return R;
}

/// The race count from a `crd check` summary line, or 0.
unsigned long racesIn(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  const std::string Key = "commutativity races: ";
  while (std::getline(In, Line)) {
    size_t At = Line.find(Key);
    if (At != std::string::npos)
      return std::stoul(Line.substr(At + Key.size()));
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: race_memory_flat <crd> <scratch dir>\n");
    return 2;
  }
  const std::string Crd = Argv[1];
  const std::string Dir = std::string(Argv[2]) + "/race_memory_flat." +
                          std::to_string(::getpid());
  if (::mkdir(Dir.c_str(), 0755) != 0) {
    std::perror("mkdir");
    return 2;
  }
  const std::string Log = Dir + "/out.txt";
  const char *Events[2] = {"25000", "100000"};
  std::string Traces[2];
  for (int I = 0; I != 2; ++I) {
    Traces[I] = Dir + "/stress" + Events[I] + ".crdb";
    RunResult R = spawn({Crd, "record", "--stress", "--producers=4",
                         "--objects=64", "--lock-every=0",
                         std::string("--events=") + Events[I],
                         "--detector=none", "--out=" + Traces[I]},
                        Log);
    if (R.Exit != 0) {
      std::fprintf(stderr, "crd record failed (exit %d)\n", R.Exit);
      return 1;
    }
  }

  struct Config {
    const char *Name;
    std::vector<std::string> Flags;
  };
  const Config Configs[] = {
      {"seq --quiet", {"--detector=seq", "--quiet"}},
      {"seq", {"--detector=seq"}},
      {"parallel --shards=2 --quiet",
       {"--detector=parallel", "--shards=2", "--quiet"}},
      {"parallel --shards=2", {"--detector=parallel", "--shards=2"}},
  };
  constexpr double BoundMiB = 4.0;
  constexpr int Rounds = 5;
  bool Ok = true;
  std::printf("%-30s %12s %12s %10s %10s\n", "crd check", "races small",
              "races large", "MiB small", "MiB large");
  for (const Config &C : Configs) {
    bool Quiet = C.Flags.back() == "--quiet";
    double Peak[2] = {1e9, 1e9};
    unsigned long Races[2] = {0, 0};
    for (int Round = 0; Round != Rounds; ++Round)
      for (int I = 0; I != 2; ++I) {
        std::vector<std::string> Cmd = {Crd, "check"};
        Cmd.insert(Cmd.end(), C.Flags.begin(), C.Flags.end());
        Cmd.push_back(Traces[I]);
        // Printed races go to /dev/null; the --quiet summary is parsed.
        RunResult R = spawn(Cmd, Quiet ? Log : "/dev/null");
        if (Quiet)
          Races[I] = racesIn(Log);
        if (R.Exit != 1) { // Racy input: exit 1 means findings.
          std::fprintf(stderr, "%s: crd check exit %d (want 1)\n", C.Name,
                       R.Exit);
          Ok = false;
        }
        Peak[I] = std::min(Peak[I], R.PeakMiB);
      }
    std::printf("%-30s %12lu %12lu %10.1f %10.1f\n", C.Name, Races[0],
                Races[1], Peak[0], Peak[1]);
    if (Quiet && Races[1] < 3 * Races[0]) {
      std::fprintf(stderr, "%s: recordings too alike (%lu vs %lu races)\n",
                   C.Name, Races[0], Races[1]);
      Ok = false;
    }
    if (Peak[1] > Peak[0] + BoundMiB) {
      std::fprintf(stderr,
                   "%s: peak RSS grew %.1f MiB with the race count "
                   "(bound %.1f MiB)\n",
                   C.Name, Peak[1] - Peak[0], BoundMiB);
      Ok = false;
    }
  }
  for (const std::string &T : Traces)
    ::unlink(T.c_str());
  ::unlink(Log.c_str());
  ::rmdir(Dir.c_str());
  return Ok ? 0 : 1;
}
