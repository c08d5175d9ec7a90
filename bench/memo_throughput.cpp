//===- bench/memo_throughput.cpp - chunk-memoized analysis throughput ---------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures analysis throughput over a chunk-repetitive trace (see
/// workloads/RepetitiveTrace.h — distinct bodies × many repetitions, each
/// body one byte-identical wire chunk) across the memoization modes:
///
///   * wire/decode          — WireReader draining the encoding (no cache);
///   * analyze/memo=off     — decode + sequential detection, cold path;
///   * analyze/memo=full    — repeated chunks replay detector summaries.
///
/// The acceptance bars for the memo layer: analyze/memo=full must beat
/// analyze/memo=off by ≥ 2× AND beat wire/decode (pure decode, no
/// detection at all) by ≥ 1.2× — i.e. memoized analysis is faster than
/// the trace can even be decoded. Races must be identical in every mode.
/// Emits a machine-readable BENCH_memo.json (see bench/report.h).
///
/// Usage: ./memo_throughput [bodies] [repetitions] [reps] [json-path]
///
//===----------------------------------------------------------------------===//

#include "report.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "wire/StreamPipeline.h"
#include "wire/WireReader.h"
#include "workloads/RepetitiveTrace.h"

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

void printRow(const bench::BenchEntry &E) {
  std::cout << "  " << std::left << std::setw(22) << E.Name << std::right
            << std::setw(12) << static_cast<uint64_t>(E.EventsPerSec)
            << " events/s  races=" << E.Races << "\n";
}

unsigned parsePositive(const char *Arg, const char *Name) {
  char *End = nullptr;
  unsigned long V = std::strtoul(Arg, &End, 10);
  if (End == Arg || *End != '\0' || V == 0) {
    std::cerr << "invalid " << Name << " '" << Arg
              << "' (expected a positive integer)\n"
              << "usage: memo_throughput [bodies] [repetitions] [reps] "
                 "[json-path]\n";
    std::exit(2);
  }
  return static_cast<unsigned>(V);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Bodies = Argc > 1 ? parsePositive(Argv[1], "bodies") : 64;
  unsigned Repetitions =
      Argc > 2 ? parsePositive(Argv[2], "repetitions") : 16;
  unsigned Reps = Argc > 3 ? parsePositive(Argv[3], "reps") : 3;
  std::string JsonPath = Argc > 4 ? Argv[4] : "BENCH_memo.json";

  DiagnosticEngine Diags;
  auto Rep = translateSpec(dictionarySpec(), Diags);
  if (!Rep) {
    std::cerr << "spec translation failed:\n" << Diags.toString();
    return 1;
  }

  RepetitiveTraceConfig Config;
  Config.DistinctBodies = Bodies;
  Config.Repetitions = Repetitions;
  std::ostringstream WireOS;
  size_t Events = writeRepetitiveTrace(WireOS, Config);
  std::string Wire = WireOS.str();

  std::cout << "repetitive trace: " << Events << " events, " << Bodies
            << " bodies x " << Repetitions << " repetitions, " << Wire.size()
            << " wire bytes, median of " << Reps << " reps\n\n";

  bench::BenchReport Report("memo_throughput", "repetitive-dictionary");

  auto analyze = [&](MemoMode Memo) {
    std::istringstream In(Wire);
    DiagnosticEngine D;
    BinaryStreamSource Source(In, D);
    PipelineOptions Opts;
    Opts.Memo = Memo;
    StreamPipeline P(Opts);
    P.setDefaultProvider(Rep.get());
    StreamSummary S = P.run(Source);
    if (Source.failed() || S.Events != Events)
      std::abort();
    return S.Races;
  };

  bench::BenchEntry Decode =
      bench::measureMedian("wire/decode", 0, Events, 1, Reps, [&] {
        std::istringstream In(Wire);
        DiagnosticEngine D;
        WireReader Reader(In, D);
        Event E = Event::txBegin(ThreadId(0));
        while (Reader.next(E))
          ;
        if (Reader.failed() || Reader.eventsRead() != Events)
          std::abort();
        return size_t(0);
      });
  Report.add(Decode);
  printRow(Decode);

  bench::BenchEntry Off = bench::measureMedian(
      "analyze/memo=off", 0, Events, 1, Reps,
      [&] { return analyze(MemoMode::Off); });
  Report.add(Off);
  printRow(Off);

  bench::BenchEntry Full = bench::measureMedian(
      "analyze/memo=full", 0, Events, 1, Reps,
      [&] { return analyze(MemoMode::Full); });
  Report.add(Full);
  printRow(Full);

  if (Off.Races != Full.Races) {
    std::cerr << "race count mismatch across memo modes (off=" << Off.Races
              << " full=" << Full.Races << ")\n";
    return 1;
  }

  double VsOff = Off.Seconds / Full.Seconds;
  double VsDecode = Decode.Seconds / Full.Seconds;
  std::cout << "\n  memo=full speedup over memo=off:    " << std::fixed
            << std::setprecision(2) << VsOff << "x"
            << (VsOff >= 2.0 ? "" : "  (below the 2x acceptance bar!)")
            << "\n  memo=full speedup over pure decode: " << VsDecode << "x"
            << (VsDecode >= 1.2 ? "" : "  (below the 1.2x acceptance bar!)")
            << "\n";

  if (!Report.write(JsonPath)) {
    std::cerr << "failed to write " << JsonPath << "\n";
    return 1;
  }
  std::cout << "\nwrote " << JsonPath << "\n";
  return (VsOff >= 2.0 && VsDecode >= 1.2) ? 0 : 1;
}
