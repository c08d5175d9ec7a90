//===- bench/micro_detector.cpp - detector throughput microbenchmarks ---------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/ParallelDetector.h"
#include "spec/Builtins.h"
#include "trace/TraceBuilder.h"
#include "translate/Translator.h"

#include <benchmark/benchmark.h>

using namespace crd;

namespace {

Trace mixedActionTrace(size_t N, unsigned Keys) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  for (size_t I = 0; I != N; ++I) {
    uint32_t Tid = static_cast<uint32_t>(I % 4);
    int64_t Key = static_cast<int64_t>((I * 7) % Keys);
    switch (I % 3) {
    case 0:
      TB.invoke(Tid, 1, "put", {Value::integer(Key), Value::integer(1)},
                Value::nil());
      break;
    case 1:
      TB.invoke(Tid, 1, "get", {Value::integer(Key)}, Value::integer(1));
      break;
    case 2:
      TB.invoke(Tid, 1, "size", {}, Value::integer(5));
      break;
    }
  }
  return TB.take();
}

Trace memoryTrace(size_t N, unsigned Vars) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  for (size_t I = 0; I != N; ++I) {
    uint32_t Tid = static_cast<uint32_t>(I % 4);
    uint32_t Var = static_cast<uint32_t>((I * 13) % Vars);
    if (I % 4 == 0)
      TB.write(Tid, Var);
    else
      TB.read(Tid, Var);
  }
  return TB.take();
}

const TranslatedRep &translatedDict() {
  static std::unique_ptr<TranslatedRep> Rep = [] {
    DiagnosticEngine Diags;
    auto R = translateSpec(dictionarySpec(), Diags);
    if (!R)
      abort();
    return R;
  }();
  return *Rep;
}

void BM_Algorithm1TranslatedRep(benchmark::State &State) {
  Trace T = mixedActionTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(&translatedDict());
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_Algorithm1HandWrittenRep(benchmark::State &State) {
  static DictionaryRep Hand;
  Trace T = mixedActionTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    CommutativityRaceDetector Detector;
    Detector.setDefaultProvider(&Hand);
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

/// Ablation baseline: Algorithm 1 with the seed's always-full VectorClock
/// accumulated clocks instead of epoch compression.
void BM_Algorithm1FullClockAblation(benchmark::State &State) {
  Trace T = mixedActionTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    VectorClockState VCState;
    BasicAlgorithm1Engine<FullClockRep> Engine;
    Engine.setDefaultProvider(&translatedDict());
    size_t Index = 0;
    for (const Event &E : T) {
      if (E.isInvoke())
        Engine.onAction(E.action(), E.thread(), VCState.clockOf(E.thread()),
                        Index);
      VCState.process(E);
      ++Index;
    }
    benchmark::DoNotOptimize(Engine.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

/// Object-sharded pipeline; range(1) = shard count (≥ 2). The mixed trace
/// is spread over 8 objects so shards receive balanced buckets.
void BM_ParallelDetector(benchmark::State &State) {
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2).fork(0, 3);
  size_t N = static_cast<size_t>(State.range(0));
  for (size_t I = 0; I != N; ++I) {
    uint32_t Tid = static_cast<uint32_t>(I % 4);
    uint32_t Obj = static_cast<uint32_t>(I % 8);
    int64_t Key = static_cast<int64_t>((I * 7) % 64);
    if (I % 3 == 0)
      TB.invoke(Tid, Obj, "put", {Value::integer(Key), Value::integer(1)},
                Value::nil());
    else
      TB.invoke(Tid, Obj, "get", {Value::integer(Key)}, Value::integer(1));
  }
  Trace T = TB.take();
  for (auto _ : State) {
    ParallelDetector Detector(static_cast<unsigned>(State.range(1)));
    Detector.setDefaultProvider(&translatedDict());
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_FastTrack(benchmark::State &State) {
  Trace T = memoryTrace(static_cast<size_t>(State.range(0)), 64);
  for (auto _ : State) {
    FastTrackDetector Detector;
    Detector.processTrace(T);
    benchmark::DoNotOptimize(Detector.races().size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

} // namespace

BENCHMARK(BM_Algorithm1TranslatedRep)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Algorithm1HandWrittenRep)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Algorithm1FullClockAblation)->Arg(1024)->Arg(8192);
BENCHMARK(BM_ParallelDetector)
    ->Args({8192, 2})
    ->Args({8192, 4})
    ->Args({8192, 8});
BENCHMARK(BM_FastTrack)->Arg(1024)->Arg(8192);

BENCHMARK_MAIN();
