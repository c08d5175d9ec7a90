//===- bench/parallel_scaling.cpp - shard-scaling on the H2 workload ----------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures detector throughput (trace events/sec) on an H2-style workload
/// trace (the recorded ComplexConcurrency PolePosition circuit) across:
///
///   * seq/fullclock — sequential Algorithm 1 with the seed's always-full
///     VectorClock accumulated clocks (ablation baseline);
///   * seq/epoch     — sequential Algorithm 1 with epoch-compressed clocks
///     (the production CommutativityRaceDetector);
///   * parallel/shards=N[/batch=B] — the streaming shard pipeline at
///     2/4/8 shards, swept over the dispatch batch size (the canonical
///     per-shard entry uses the default batch). One shard is seq/epoch.
///
/// Every configuration is timed with one warmup run and the median of the
/// requested repetitions (bench/report.h), so committed numbers are stable
/// enough to diff across PRs. Emits a machine-readable BENCH_detector.json.
///
/// Usage: ./parallel_scaling [workers] [queries-per-worker] [reps] [json-path]
///
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"
#include "detect/ParallelDetector.h"
#include "report.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "workloads/PolePosition.h"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>

using namespace crd;

namespace {

/// Sequential Algorithm 1 over an arbitrary accumulated-clock
/// representation; mirrors CommutativityRaceDetector for the ablation.
template <typename ClockRep> struct SequentialDetector {
  VectorClockState VCState;
  BasicAlgorithm1Engine<ClockRep> Engine;
  size_t EventIndex = 0;

  void processTrace(const Trace &T) {
    for (const Event &E : T) {
      ++EventIndex;
      if (E.isInvoke())
        Engine.onAction(E.action(), E.thread(), VCState.clockOf(E.thread()),
                        EventIndex - 1);
      VCState.process(E);
    }
  }
};

/// Records the ComplexConcurrency circuit as a replayable trace.
Trace recordH2Trace(unsigned Workers, unsigned Queries) {
  SimRuntime RT(/*Seed=*/2014);
  MVStore Store(RT);
  CircuitConfig Config;
  Config.WorkerThreads = Workers;
  Config.QueriesPerWorker = Queries;
  Config.Seed = 2014;
  buildCircuit(Circuit::ComplexConcurrency, RT, Store, Config);
  TraceRecorder Recorder;
  RT.run(Recorder);
  return Recorder.take();
}

} // namespace

static unsigned parsePositive(const char *Arg, const char *Name) {
  char *End = nullptr;
  unsigned long V = std::strtoul(Arg, &End, 10);
  if (End == Arg || *End != '\0' || V == 0) {
    std::cerr << "invalid " << Name << " '" << Arg
              << "' (expected a positive integer)\n"
              << "usage: parallel_scaling [workers] [queries-per-worker] "
                 "[reps] [json-path]\n";
    std::exit(2);
  }
  return static_cast<unsigned>(V);
}

int main(int Argc, char **Argv) {
  unsigned Workers = Argc > 1 ? parsePositive(Argv[1], "workers") : 4;
  unsigned Queries = Argc > 2 ? parsePositive(Argv[2], "queries-per-worker") : 4000;
  unsigned Reps = Argc > 3 ? parsePositive(Argv[3], "reps") : 5;
  std::string JsonPath = Argc > 4 ? Argv[4] : "BENCH_detector.json";
  constexpr unsigned Warmup = 1;

  DiagnosticEngine Diags;
  auto Rep = translateSpec(dictionarySpec(), Diags);
  if (!Rep) {
    std::cerr << "spec translation failed:\n" << Diags.toString();
    return 1;
  }

  Trace T = recordH2Trace(Workers, Queries);
  std::cout << "H2 ComplexConcurrency trace: " << T.size() << " events ("
            << Workers << " workers x " << Queries
            << " queries), median of " << Reps << " reps after " << Warmup
            << " warmup\n\n";

  bench::BenchReport Report("parallel_scaling", "h2-complex-concurrency");
  // On a single-hardware-thread host the shard workers timeshare with the
  // pre-pass, so multi-shard configurations measure scheduling overhead,
  // not overlap; flag the artifact so downstream comparisons know the
  // parallel numbers carry no scaling signal.
  unsigned HostCpus = std::thread::hardware_concurrency();
  bool OverlapObservable = HostCpus > 1;
  Report.setFlag("parallel_overlap_observable", OverlapObservable);
  if (!OverlapObservable)
    std::cout << "warning: single-CPU host (" << HostCpus
              << " hardware thread); parallel configs cannot overlap and "
                 "their numbers measure overhead only\n\n";

  Report.add(bench::measureMedian("seq/fullclock", 0, T.size(), Warmup, Reps,
                                  [&] {
                                    SequentialDetector<FullClockRep> D;
                                    D.Engine.setDefaultProvider(Rep.get());
                                    D.processTrace(T);
                                    return D.Engine.races().size();
                                  }));
  Report.add(bench::measureMedian("seq/epoch", 0, T.size(), Warmup, Reps,
                                  [&] {
                                    CommutativityRaceDetector D;
                                    D.setDefaultProvider(Rep.get());
                                    D.processTrace(T);
                                    return D.races().size();
                                  }));
  // Shard sweep × dispatch batch size. The canonical "parallel/shards=N"
  // names keep the default batch so bench_compare.py can diff trajectories
  // across PRs; other batch sizes get an explicit suffix.
  for (unsigned Shards : {2u, 4u, 8u})
    for (size_t Batch : {size_t(1024), ParallelDetector::DefaultBatchSize,
                         size_t(16384)}) {
      std::string Name = "parallel/shards=" + std::to_string(Shards);
      if (Batch != ParallelDetector::DefaultBatchSize)
        Name += "/batch=" + std::to_string(Batch);
      Report.add(bench::measureMedian(Name, Shards, T.size(), Warmup, Reps,
                                      [&, Shards, Batch] {
                                        ParallelDetector D(Shards, Batch);
                                        D.setDefaultProvider(Rep.get());
                                        D.processTrace(T);
                                        return D.races().size();
                                      }));
    }

  const auto &Entries = Report.entries();
  double Baseline = Entries.front().EventsPerSec;
  std::cout << std::left << std::setw(30) << "config" << std::right
            << std::setw(14) << "events/sec" << std::setw(10) << "speedup"
            << std::setw(10) << "races" << '\n';
  for (const bench::BenchEntry &E : Entries)
    std::cout << std::left << std::setw(30) << E.Name << std::right
              << std::setw(14) << static_cast<uint64_t>(E.EventsPerSec)
              << std::setw(9) << std::fixed << std::setprecision(2)
              << (Baseline > 0 ? E.EventsPerSec / Baseline : 0.0) << "x"
              << std::setw(10) << E.Races << '\n';

  if (!Report.write(JsonPath)) {
    std::cerr << "failed to write " << JsonPath << '\n';
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << '\n';
  return 0;
}
