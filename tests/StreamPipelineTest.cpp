//===- tests/StreamPipelineTest.cpp - streaming/batch equivalence -------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// The streaming pipeline must be a pure refactoring of the materialized
/// path: for every backend, running StreamPipeline over a binary-encoded
/// trace (decoded chunk-at-a-time, never materializing a Trace) reports
/// bit-identical results to running the corresponding detector over the
/// parsed text Trace — including the ParallelDetector backend at odd
/// batch sizes and every shard count, where batches split mid-trace.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/OnlineAtomicity.h"
#include "runtime/InstrumentedMap.h"
#include "runtime/SimRuntime.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceIO.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"
#include "RaceSink.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace crd;
using namespace crd::wire;

namespace {

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

std::string encodeWire(const Trace &T, size_t EventsPerChunk = 64) {
  std::ostringstream OS;
  WireWriter Writer(OS, EventsPerChunk);
  Writer.writeTrace(T);
  Writer.finish();
  return OS.str();
}

/// A finished pipeline plus every race it delivered (the pipeline itself
/// keeps none).
struct BinaryRun {
  std::unique_ptr<StreamPipeline> Pipeline;
  std::vector<CommutativityRace> Races;

  StreamPipeline *operator->() const { return Pipeline.get(); }
  StreamPipeline &operator*() const { return *Pipeline; }
  const std::vector<CommutativityRace> &races() const { return Races; }
};

/// Runs \p Opts over the binary encoding of \p T and returns the summary;
/// the pipeline and its races are returned through \p Out.
StreamSummary runBinary(const Trace &T, PipelineOptions Opts, BinaryRun &Out,
                        size_t EventsPerChunk = 64) {
  std::string Bytes = encodeWire(T, EventsPerChunk);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  Out.Pipeline = std::make_unique<StreamPipeline>(Opts);
  Out->setDefaultProvider(&dictRep());
  testgen::collectRaces(*Out, Out.Races);
  StreamSummary S = Out->run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  return S;
}

void expectRacesIdentical(const std::vector<CommutativityRace> &A,
                          const std::vector<CommutativityRace> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << "race " << I << ":\n  " << A[I].toString()
                              << "\n  " << B[I].toString();
}

/// A parallel request for one shard runs the sequential detector; two or
/// more run the shard pipeline. Returns true for the sequential route.
bool routedToSequential(const StreamPipeline &P, unsigned Shards) {
  if (Shards >= 2) {
    EXPECT_NE(P.parallelDetector(), nullptr);
    EXPECT_EQ(P.sequentialDetector(), nullptr);
    return false;
  }
  EXPECT_EQ(P.parallelDetector(), nullptr);
  EXPECT_NE(P.sequentialDetector(), nullptr);
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Sequential backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, SequentialBinaryMatchesMaterialized) {
  for (uint64_t Seed : {2u, 13u, 77u}) {
    Trace T = testgen::randomTrace(Seed, 4, 40, 6);

    CommutativityRaceDetector Reference;
    Reference.setDefaultProvider(&dictRep());
    Reference.processTrace(T);

    BinaryRun P;
    StreamSummary S = runBinary(T, {Backend::Sequential}, P);

    EXPECT_EQ(S.Events, T.size());
    EXPECT_EQ(S.Races, Reference.races().size());
    expectRacesIdentical(P.races(), Reference.races());
  }
}

TEST(StreamPipelineTest, TextSourceMatchesBinarySource) {
  Trace T = testgen::randomTrace(5, 3, 30, 5);

  std::string Text = traceToString(T);
  std::istringstream TextIn(Text);
  DiagnosticEngine Diags;
  TextStreamSource TextSource(TextIn, Diags);
  StreamPipeline TextP({Backend::Sequential});
  TextP.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> TextRaces;
  testgen::collectRaces(TextP, TextRaces);
  StreamSummary TextS = TextP.run(TextSource);
  EXPECT_FALSE(TextSource.failed()) << Diags.toString();

  BinaryRun BinP;
  StreamSummary BinS = runBinary(T, {Backend::Sequential}, BinP);

  EXPECT_EQ(TextS.Events, BinS.Events);
  EXPECT_EQ(TextS.Races, BinS.Races);
  expectRacesIdentical(TextRaces, BinP.races());
}

TEST(StreamPipelineTest, RaceCallbackFiresForEveryRace) {
  Trace T = testgen::randomTrace(21, 4, 40, 4);
  std::string Bytes = encodeWire(T);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);

  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> Seen;
  P.setRaceCallback([&Seen](const CommutativityRace &R) { Seen.push_back(R); });
  StreamSummary S = P.run(Source);

  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);
  EXPECT_EQ(Seen.size(), S.Races);
  expectRacesIdentical(Seen, Reference.races());
  EXPECT_GT(S.Races, 0u) << "seed produced no races; pick another seed";
}

//===----------------------------------------------------------------------===//
// Parallel backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, ParallelBackendBitIdenticalAcrossBatchesAndShards) {
  Trace T = testgen::randomTrace(9, 4, 50, 6);

  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  // Odd batch sizes force splits at arbitrary trace positions; the
  // sharded detector's state must carry across them.
  for (size_t Batch : {size_t(1), size_t(17), size_t(100), size_t(4096)}) {
    for (unsigned Shards = 1; Shards <= 4; ++Shards) {
      BinaryRun P;
      PipelineOptions Opts;
      Opts.TheBackend = Backend::Parallel;
      Opts.Shards = Shards;
      Opts.BatchSize = Batch;
      StreamSummary S = runBinary(T, Opts, P, /*EventsPerChunk=*/33);

      EXPECT_EQ(S.Events, T.size())
          << "batch=" << Batch << " shards=" << Shards;
      expectRacesIdentical(P.races(), Reference.races());
      routedToSequential(*P, Shards);
    }
  }
}

TEST(StreamPipelineTest, ParallelPushModeNeedsFinish) {
  Trace T = testgen::randomTrace(31, 3, 30, 4);

  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  PipelineOptions Opts;
  Opts.TheBackend = Backend::Parallel;
  Opts.Shards = 2;
  Opts.BatchSize = 64;
  StreamPipeline P(Opts);
  P.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> Races;
  testgen::collectRaces(P, Races);
  for (size_t I = 0; I != T.size(); ++I)
    P.onEvent(T[I]);
  P.finish();
  P.finish(); // Idempotent.

  EXPECT_EQ(P.eventsProcessed(), T.size());
  EXPECT_EQ(P.summary().Races, Reference.races().size());
  expectRacesIdentical(Races, Reference.races());
}

TEST(StreamPipelineTest, MetricsSnapshotAccountsForEveryEvent) {
  // The observability contract (docs/observability.md): on a quiesced
  // pipeline, per-shard routed-event totals sum to the trace's action
  // count, and total events match the trace size — across batch and shard
  // configurations, in every build (RoutedEvents stays live with
  // CRD_METRICS=OFF).
  Trace T = testgen::randomTrace(9, 4, 50, 6);
  size_t Actions = 0, Syncs = 0;
  for (const Event &E : T) {
    Actions += E.isInvoke();
    Syncs += E.isSync();
  }

  for (size_t Batch : {size_t(1), size_t(3), size_t(64)}) {
    for (unsigned Shards : {1u, 2u, 4u}) {
      BinaryRun P;
      PipelineOptions Opts;
      Opts.TheBackend = Backend::Parallel;
      Opts.Shards = Shards;
      Opts.BatchSize = Batch;
      StreamSummary S = runBinary(T, Opts, P, /*EventsPerChunk=*/17);
      SCOPED_TRACE(::testing::Message()
                   << "batch=" << Batch << " shards=" << Shards);

      EXPECT_EQ(S.Events, T.size());
      if (routedToSequential(*P, Shards)) {
        if (metrics::Enabled) {
          EXPECT_EQ(P->sequentialDetector()->engineStats().Actions, Actions);
        }
        continue;
      }
      ParallelMetrics M = P->parallelDetector()->metricsSnapshot();
      EXPECT_EQ(M.Events, T.size());
      EXPECT_EQ(S.Events, T.size());
      ASSERT_EQ(M.Shards.size(), Shards);
      uint64_t Routed = 0, MergedRaces = 0, Batches = 0;
      for (const ParallelShardMetrics &SM : M.Shards) {
        Routed += SM.RoutedEvents;
        MergedRaces += SM.MergedRaces;
        Batches += SM.Batches;
      }
      // Shard routing covers exactly the action events; everything else
      // stays on the pre-pass thread.
      EXPECT_EQ(Routed, Actions);
      EXPECT_EQ(M.Actions, Actions);
      EXPECT_EQ(M.Events - M.Actions, T.size() - Actions);
      // Per-shard merged races sum to the pipeline's race report.
      EXPECT_EQ(MergedRaces, S.Races);
      if (metrics::Enabled) {
        EXPECT_EQ(M.SyncEvents, Syncs);
        // Every routed action was executed in some batch, and no batch
        // can carry more than the configured size.
        EXPECT_GE(Batches, (Actions + Batch - 1) / Batch);
        for (const ParallelShardMetrics &SM : M.Shards)
          EXPECT_EQ(SM.Engine.Actions, SM.RoutedEvents);
      }
    }
  }
}

TEST(StreamPipelineTest, BatchSpansCoverEveryDispatchedBatch) {
  if (!metrics::Enabled)
    GTEST_SKIP() << "batch tracing needs a CRD_METRICS build";
  Trace T = testgen::randomTrace(9, 4, 50, 6);
  size_t Actions = 0;
  for (const Event &E : T)
    Actions += E.isInvoke();

  for (unsigned Shards : {1u, 3u}) {
    BinaryRun P;
    PipelineOptions Opts;
    Opts.TheBackend = Backend::Parallel;
    Opts.Shards = Shards;
    Opts.BatchSize = 8;
    Opts.TraceBatches = true;
    runBinary(T, Opts, P);
    SCOPED_TRACE(::testing::Message() << "shards=" << Shards);
    if (routedToSequential(*P, Shards))
      continue; // No batches, so no spans to cover.

    ParallelMetrics M = P->parallelDetector()->metricsSnapshot();
    uint64_t Batches = 0, SpanEvents = 0;
    for (const ParallelShardMetrics &SM : M.Shards)
      Batches += SM.Batches;
    EXPECT_EQ(M.Spans.size(), Batches);
    for (const BatchSpan &S : M.Spans) {
      EXPECT_LT(S.Shard, Shards);
      EXPECT_LE(S.EnqueueNs, S.BeginNs);
      EXPECT_LE(S.BeginNs, S.EndNs);
      SpanEvents += S.Events;
    }
    // Spans partition the routed actions.
    EXPECT_EQ(SpanEvents, Actions);

    // The Chrome-trace rendering contains one "X" slice per span (plus
    // queued slices) and is non-empty JSON.
    std::ostringstream TraceOS;
    writeChromeTrace(TraceOS, M);
    std::string Rendered = TraceOS.str();
    EXPECT_NE(Rendered.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(Rendered.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(Rendered.find("\"thread_name\""), std::string::npos);
  }
}

namespace {

/// Runs the parallel backend over \p T across shard/batch combinations and
/// expects bit-identical races to the sequential reference. Returns the
/// reference race count so callers can assert the trace was non-trivial.
size_t expectParallelMatchesReference(
    const Trace &T, std::initializer_list<unsigned> ShardCounts,
    std::initializer_list<size_t> BatchSizes, size_t EventsPerChunk = 7) {
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  for (unsigned Shards : ShardCounts)
    for (size_t Batch : BatchSizes) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << Shards << " batch=" << Batch);
      BinaryRun P;
      PipelineOptions Opts;
      Opts.TheBackend = Backend::Parallel;
      Opts.Shards = Shards;
      Opts.BatchSize = Batch;
      StreamSummary S = runBinary(T, Opts, P, EventsPerChunk);
      EXPECT_EQ(S.Events, T.size());
      expectRacesIdentical(P.races(), Reference.races());
    }
  return Reference.races().size();
}

} // namespace

TEST(StreamPipelineTest, SyncEventsAtBatchBoundaries) {
  // Hand-placed sync events at both edges of every batch-of-4: positions
  // 0/4/8/12 open a batch, 3/7/11 close one. The pre-pass must seed the
  // first run of a batch from clocks published by the previous batch and
  // publish boundary snapshots for the next one — an off-by-one in either
  // direction changes which clock an invoke observes and breaks the
  // bit-identical guarantee.
  Value K1 = Value::string("k1"), K2 = Value::string("k2");
  Trace T = TraceBuilder()
                .fork(0, 1)                                       // 0 sync
                .fork(0, 2)                                       // 1 sync
                .invoke(1, 7, "put", {K1, Value::integer(10)}, Value::nil())
                .acquire(1, 0)                                    // 3 sync
                .release(1, 0)                                    // 4 sync
                .invoke(2, 7, "put", {K1, Value::integer(20)}, Value::nil())
                .invoke(1, 7, "put", {K2, Value::integer(1)}, Value::nil())
                .acquire(2, 0)                                    // 7 sync
                .release(2, 0)                                    // 8 sync
                .invoke(2, 7, "put", {K2, Value::integer(2)}, Value::nil())
                .invoke(1, 8, "get", {K1}, Value::integer(10))
                .join(0, 1)                                       // 11 sync
                .join(0, 2)                                       // 12 sync
                .invoke(0, 7, "put", {K1, Value::integer(30)}, Value::nil())
                .invoke(0, 8, "get", {K1}, Value::integer(30))
                .take();

  // Batch 4 is the engineered alignment; the neighbors make sure the
  // result does not depend on it.
  size_t Races =
      expectParallelMatchesReference(T, {1u, 2u, 3u}, {1, 2, 4, 5, 64});
  EXPECT_GT(Races, 0u) << "boundary trace should race (put/put on k1, k2)";
}

TEST(StreamPipelineTest, BackToBackSyncEventsYieldEmptyRuns) {
  // Consecutive sync events produce zero-length runs between them; the
  // pre-pass must advance the clock machine through each one without
  // dispatching anything, and the snapshots the *last* sync published are
  // the ones the next invoke observes.
  Value K = Value::string("k");
  TraceBuilder TB;
  TB.fork(0, 1).fork(0, 2);
  TB.acquire(1, 0).release(1, 0).acquire(1, 0).release(1, 0); // 4 in a row.
  TB.invoke(1, 7, "put", {K, Value::integer(1)}, Value::nil());
  TB.invoke(2, 7, "put", {K, Value::integer(2)}, Value::nil());
  TB.acquire(2, 1).release(2, 1);
  TB.join(0, 1).join(0, 2);
  Trace T = TB.take();
  size_t Syncs = 0;
  for (const Event &E : T)
    Syncs += E.isSync();

  size_t Races = expectParallelMatchesReference(T, {1u, 2u}, {1, 3, 64});
  EXPECT_GT(Races, 0u);

  if (!metrics::Enabled)
    return;
  // The run accounting must see every sync and record the empty runs.
  BinaryRun P;
  PipelineOptions Opts;
  Opts.TheBackend = Backend::Parallel;
  Opts.Shards = 2;
  Opts.BatchSize = 64;
  runBinary(T, Opts, P);
  ParallelMetrics M = P->parallelDetector()->metricsSnapshot();
  EXPECT_EQ(M.SyncEvents, Syncs);
  EXPECT_EQ(M.PrepassEventsVisited, Syncs);
  // With every event in one batch, each sync opens a run and the batch
  // adds the trailing one; the back-to-back stretch makes several empty.
  EXPECT_EQ(M.Runs, Syncs + 1);
  EXPECT_GT(M.RunLengthPow2[0], 0u) << "no zero-length run recorded";
}

TEST(StreamPipelineTest, AllSyncTraceHasOnlyDegenerateRuns) {
  // The degenerate extreme of the run-based pre-pass: a trace of nothing
  // but synchronization. The caller thread visits every event, the shards
  // receive none, and every recorded run has length zero.
  TraceBuilder TB;
  TB.fork(0, 1);
  for (int I = 0; I != 9; ++I)
    TB.acquire(1, 0).release(1, 0);
  TB.join(0, 1);
  Trace T = TB.take();

  for (unsigned Shards : {1u, 2u}) {
    for (size_t Batch : {size_t(1), size_t(4), size_t(64)}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << Shards << " batch=" << Batch);
      BinaryRun P;
      PipelineOptions Opts;
      Opts.TheBackend = Backend::Parallel;
      Opts.Shards = Shards;
      Opts.BatchSize = Batch;
      StreamSummary S = runBinary(T, Opts, P, /*EventsPerChunk=*/5);

      EXPECT_EQ(S.Events, T.size());
      EXPECT_EQ(S.Races, 0u);
      if (routedToSequential(*P, Shards))
        continue;
      ParallelMetrics M = P->parallelDetector()->metricsSnapshot();
      EXPECT_EQ(M.Actions, 0u);
      uint64_t Routed = 0;
      for (const ParallelShardMetrics &SM : M.Shards)
        Routed += SM.RoutedEvents;
      EXPECT_EQ(Routed, 0u);
      if (metrics::Enabled) {
        EXPECT_EQ(M.SyncEvents, T.size());
        EXPECT_EQ(M.PrepassEventsVisited, T.size());
        EXPECT_EQ(M.RunLengthMax, 0u);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// FastTrack backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, FastTrackBinaryMatchesMaterialized) {
  Trace T = testgen::randomTrace(17, 4, 40, 4);

  FastTrackDetector Reference;
  Reference.processTrace(T);

  std::unique_ptr<StreamPipeline> P;
  size_t Callbacks = 0;
  std::string Bytes = encodeWire(T);
  std::istringstream In(Bytes);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  P = std::make_unique<StreamPipeline>(PipelineOptions{Backend::FastTrack});
  P->setMemoryRaceCallback([&Callbacks](const MemoryRace &) { ++Callbacks; });
  StreamSummary S = P->run(Source);

  EXPECT_EQ(S.MemoryRaces, Reference.races().size());
  EXPECT_EQ(Callbacks, Reference.races().size());
  ASSERT_EQ(P->memoryRaces().size(), Reference.races().size());
  for (size_t I = 0; I != Reference.races().size(); ++I) {
    const MemoryRace &A = P->memoryRaces()[I];
    const MemoryRace &B = Reference.races()[I];
    EXPECT_EQ(A.EventIndex, B.EventIndex) << "race " << I;
    EXPECT_EQ(A.Var, B.Var) << "race " << I;
    EXPECT_EQ(A.Access, B.Access) << "race " << I;
    EXPECT_EQ(A.PriorThread, B.PriorThread) << "race " << I;
    EXPECT_EQ(A.CurrentThread, B.CurrentThread) << "race " << I;
  }
}

//===----------------------------------------------------------------------===//
// Atomicity backend
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, AtomicityBinaryMatchesMaterialized) {
  // Wrap each worker op stream in transactions by hand: reuse the random
  // trace and inject TxBegin/TxEnd around every thread's whole run.
  Trace Base = testgen::randomTrace(8, 3, 25, 3);
  Trace T;
  std::set<uint32_t> Started;
  for (size_t I = 0; I != Base.size(); ++I) {
    const Event &E = Base[I];
    if (E.kind() == EventKind::Invoke &&
        Started.insert(E.thread().index()).second)
      T.append(Event::txBegin(E.thread()));
    T.append(E);
  }
  for (uint32_t Tid : Started)
    T.append(Event::txEnd(ThreadId(Tid)));

  OnlineAtomicityChecker Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  BinaryRun P;
  StreamSummary S = runBinary(T, {Backend::Atomicity}, P);

  EXPECT_EQ(S.Violations, Reference.violations().size());
  ASSERT_EQ(P->violations().size(), Reference.violations().size());
  for (size_t I = 0; I != Reference.violations().size(); ++I) {
    EXPECT_EQ(P->violations()[I].Thread, Reference.violations()[I].Thread);
    EXPECT_EQ(P->violations()[I].BeginEvent,
              Reference.violations()[I].BeginEvent);
    EXPECT_EQ(P->violations()[I].EndEvent, Reference.violations()[I].EndEvent);
  }
}

//===----------------------------------------------------------------------===//
// Live push from a SimRuntime
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, LiveRuntimePushMatchesRecordedTrace) {
  // Drive the same deterministic execution twice: once recording a Trace
  // for the reference detector, once pushing straight into the pipeline.
  auto runInto = [](EventSink &Sink) {
    SimRuntime RT(4242);
    InstrumentedMap Map(RT);
    ThreadId Main = RT.addInitialThread();
    RT.schedule(Main, [&](SimThread &T) {
      ThreadId A = T.fork([&Map](SimThread &T2) {
        Map.put(T2, Value::integer(1), Value::integer(10));
        Map.size(T2);
      });
      ThreadId B = T.fork([&Map](SimThread &T2) {
        Map.put(T2, Value::integer(1), Value::integer(20));
      });
      T.defer([A](SimThread &T3) { T3.join(A); });
      T.defer([B](SimThread &T3) { T3.join(B); });
      T.defer([&Map](SimThread &T3) { Map.get(T3, Value::integer(1)); });
    });
    RT.run(Sink);
  };

  TraceRecorder Recorder;
  runInto(Recorder);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(Recorder.trace());

  StreamPipeline P({Backend::Sequential});
  P.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> Races;
  testgen::collectRaces(P, Races);
  runInto(P);
  P.finish();

  EXPECT_EQ(P.eventsProcessed(), Recorder.trace().size());
  expectRacesIdentical(Races, Reference.races());
  EXPECT_GT(Races.size(), 0u) << "expected a put/put race";
}

//===----------------------------------------------------------------------===//
// Races as a bounded stream
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, DeliveredRacesAreNotKept) {
  // After each batch the pipeline hands its races to the callback (or,
  // without one, only counts them) and drops them: at the end no backend
  // holds a race, the summary still counts every one, and the most races
  // ever held at once is one batch's worth, not the run's total.
  Trace T = testgen::randomTrace(9, 4, 200, 3);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);
  ASSERT_GT(Reference.races().size(), 20u);

  for (unsigned Shards : {1u, 2u, 3u}) {
    for (bool Quiet : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << Shards << " quiet=" << Quiet);
      std::string Bytes = encodeWire(T, 16);
      std::istringstream In(Bytes);
      DiagnosticEngine Diags;
      BinaryStreamSource Source(In, Diags);
      PipelineOptions Opts;
      Opts.TheBackend = Backend::Parallel;
      Opts.Shards = Shards;
      Opts.BatchSize = 32;
      StreamPipeline P(Opts);
      P.setDefaultProvider(&dictRep());
      std::vector<CommutativityRace> Seen;
      if (!Quiet)
        testgen::collectRaces(P, Seen);
      StreamSummary S = P.run(Source);

      EXPECT_EQ(S.Races, Reference.races().size());
      EXPECT_EQ(S.DistinctRacyObjects, Reference.distinctRacyObjects());
      if (!Quiet)
        expectRacesIdentical(Seen, Reference.races());
      if (const CommutativityRaceDetector *Seq = P.sequentialDetector()) {
        EXPECT_TRUE(Seq->races().empty());
        EXPECT_EQ(Seq->raceCount(), S.Races);
        EXPECT_GT(Seq->racesHeldMax(), 0u);
        EXPECT_LT(Seq->racesHeldMax(), S.Races);
      } else {
        const ParallelDetector *Par = P.parallelDetector();
        ASSERT_NE(Par, nullptr);
        EXPECT_TRUE(Par->races().empty());
        EXPECT_EQ(Par->raceCount(), S.Races);
        for (const ParallelShardMetrics &SM : Par->metricsSnapshot().Shards)
          EXPECT_LE(SM.RacesHeldMax, SM.MergedRaces);
      }
      std::ostringstream Json;
      P.writeMetricsJson(Json, &Source);
      EXPECT_NE(Json.str().find("\"races_held_max\""), std::string::npos);
    }
  }
}

TEST(StreamPipelineTest, ParallelRacesStreamBeforeFinish) {
  // The producer merges a batch's races as soon as every shard has
  // finished it. A shard cannot fall more than a ring's depth behind (the
  // producer blocks on a full ring), so on a long racy feed most races
  // reach the callback before finish() — in event order, bit-identical
  // to the sequential detector.
  Trace T = testgen::randomTrace(9, 4, 400, 3);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);

  PipelineOptions Opts;
  Opts.TheBackend = Backend::Parallel;
  Opts.Shards = 2;
  Opts.BatchSize = 8;
  StreamPipeline P(Opts);
  P.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> Seen;
  testgen::collectRaces(P, Seen);
  EventBatch B;
  for (size_t I = 0; I != T.size(); ++I) {
    B.append(T[I]);
    if (B.size() == 8) {
      B.finalizeSyncIndex();
      P.processBatch(B);
    }
  }
  B.finalizeSyncIndex();
  P.processBatch(B);
  // Batches older than the last 2 * RingDepth + 2 fed are merged already.
  size_t Fed = T.size() - 8 * (2 * ParallelDetector::RingDepth + 2);
  size_t Expected = 0;
  while (Expected != Reference.races().size() &&
         Reference.races()[Expected].EventIndex < Fed)
    ++Expected;
  ASSERT_GT(Expected, 0u) << "trace too tame";
  EXPECT_GE(Seen.size(), Expected);
  P.finish();
  expectRacesIdentical(Seen, Reference.races());
}

//===----------------------------------------------------------------------===//
// Summary bookkeeping
//===----------------------------------------------------------------------===//

TEST(StreamPipelineTest, SummaryCountsDistinctObjects) {
  Trace T = testgen::randomTrace(2, 4, 40, 6);
  BinaryRun P;
  StreamSummary S = runBinary(T, {Backend::Sequential}, P);

  std::set<uint32_t> Objects;
  for (const CommutativityRace &R : P.races())
    Objects.insert(R.Current.object().index());
  EXPECT_EQ(S.DistinctRacyObjects, Objects.size());
  EXPECT_EQ(S.clean(), P.races().empty());
}
