//===- tests/ParallelDetectorTest.cpp - sequential/parallel equivalence -------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Equivalence suite for the object-sharded parallel pipeline: on random
/// traces (the PropertyTest generator) and hand-built scenarios, the
/// ParallelDetector must report bit-identical races to the sequential
/// CommutativityRaceDetector at every shard count — same race records in
/// the same order, same conflict-check totals, same distinct-object and
/// active-point counts.
///
//===----------------------------------------------------------------------===//

#include "access/DictionaryRep.h"
#include "detect/CommutativityDetector.h"
#include "detect/ParallelDetector.h"
#include "spec/Builtins.h"
#include "trace/TraceBuilder.h"
#include "translate/Translator.h"
#include "TraceGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace crd;

namespace {

using testgen::randomTrace;

const DictionaryRep &dictRep() {
  static DictionaryRep Rep;
  return Rep;
}

const TranslatedRep &translatedDict() {
  static std::unique_ptr<TranslatedRep> Rep = [] {
    DiagnosticEngine Diags;
    auto R = translateSpec(dictionarySpec(), Diags);
    EXPECT_TRUE(R) << Diags.toString();
    return R;
  }();
  return *Rep;
}

/// Asserts the parallel detector's observable state matches \p Sequential.
void expectMatchesSequential(const CommutativityRaceDetector &Sequential,
                             ParallelDetector &Parallel, unsigned Shards) {
  ASSERT_EQ(Parallel.shards(), Shards);
  ASSERT_EQ(Parallel.races().size(), Sequential.races().size())
      << "shards=" << Shards << " batch=" << Parallel.batchSize();
  for (size_t I = 0; I != Sequential.races().size(); ++I)
    EXPECT_EQ(Parallel.races()[I], Sequential.races()[I])
        << "race " << I << " diverges at shards=" << Shards
        << " batch=" << Parallel.batchSize() << ":\n  seq "
        << Sequential.races()[I] << "\n  par " << Parallel.races()[I];
  EXPECT_EQ(Parallel.distinctRacyObjects(), Sequential.distinctRacyObjects());
  EXPECT_EQ(Parallel.conflictChecks(), Sequential.conflictChecks());
  EXPECT_EQ(Parallel.activePointCount(), Sequential.activePointCount());
  EXPECT_EQ(Parallel.eventsProcessed(), Sequential.eventsProcessed());
}

/// Asserts full observable equivalence of the two detectors on \p T.
void expectEquivalent(const Trace &T, const AccessPointProvider &Provider,
                      unsigned Shards,
                      size_t Batch = ParallelDetector::DefaultBatchSize) {
  CommutativityRaceDetector Sequential;
  Sequential.setDefaultProvider(&Provider);
  Sequential.processTrace(T);

  ParallelDetector Parallel(Shards, Batch);
  Parallel.setDefaultProvider(&Provider);
  Parallel.processTrace(T);
  expectMatchesSequential(Sequential, Parallel, Shards);

  // The streaming feed (event-at-a-time, payloads copied into the
  // pipeline) must be indistinguishable from whole-trace processing.
  ParallelDetector Streaming(Shards, Batch);
  Streaming.setDefaultProvider(&Provider);
  for (const Event &E : T)
    Streaming.processEvent(E);
  Streaming.flush();
  expectMatchesSequential(Sequential, Streaming, Shards);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalenceTest, RandomTracesAllShardCounts) {
  // Maps=4 spreads the actions over four objects so every shard count up
  // to 4 actually distributes work.
  Trace T = randomTrace(GetParam(), /*Workers=*/4, /*OpsPerWorker=*/40,
                        /*Keys=*/4, /*Maps=*/4);
  for (unsigned Shards : {2u, 4u, 8u}) {
    expectEquivalent(T, dictRep(), Shards);
    expectEquivalent(T, translatedDict(), Shards);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

TEST(ParallelDetectorTest, Fig3ScenarioMatchesSequential) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .fork(0, 2)
                .invoke(2, 1, "put", {Value::string("a.com"), Value::integer(10)},
                        Value::nil())
                .invoke(1, 1, "put", {Value::string("a.com"), Value::integer(20)},
                        Value::integer(10))
                .join(0, 1)
                .join(0, 2)
                .invoke(0, 1, "size", {}, Value::integer(1))
                .take();
  for (unsigned Shards : {2u, 4u})
    expectEquivalent(T, dictRep(), Shards);
}

TEST(ParallelDetectorTest, ManyObjectsSpreadAcrossShards) {
  // 64 objects, one concurrent put pair each: every object races once, and
  // the races must come back ordered by event index regardless of which
  // shard found them.
  TraceBuilder TB;
  TB.fork(0, 1);
  const unsigned Objects = 64;
  for (unsigned O = 0; O != Objects; ++O) {
    TB.invoke(0, O, "put", {Value::integer(1), Value::integer(1)},
              Value::nil());
    TB.invoke(1, O, "put", {Value::integer(1), Value::integer(2)},
              Value::integer(1));
  }
  Trace T = TB.take();
  for (unsigned Shards : {2u, 4u, 8u})
    expectEquivalent(T, dictRep(), Shards);

  ParallelDetector Parallel(4);
  Parallel.setDefaultProvider(&dictRep());
  Parallel.processTrace(T);
  EXPECT_EQ(Parallel.races().size(), Objects);
  EXPECT_EQ(Parallel.distinctRacyObjects(), Objects);
  for (size_t I = 1; I != Parallel.races().size(); ++I)
    EXPECT_LT(Parallel.races()[I - 1].EventIndex,
              Parallel.races()[I].EventIndex);
}

TEST(ParallelDetectorTest, PerObjectBindingsAreHonored) {
  ParallelDetector Parallel(4);
  Parallel.bind(ObjectId(0), &dictRep());
  Parallel.bind(ObjectId(1), &translatedDict());
  Trace T = TraceBuilder()
                .fork(0, 1)
                .invoke(0, 0, "put", {Value::integer(1), Value::integer(1)},
                        Value::nil())
                .invoke(1, 0, "put", {Value::integer(1), Value::integer(2)},
                        Value::integer(1))
                .invoke(0, 1, "put", {Value::integer(1), Value::integer(1)},
                        Value::nil())
                .invoke(1, 1, "put", {Value::integer(1), Value::integer(2)},
                        Value::integer(1))
                .take();
  Parallel.processTrace(T);
  EXPECT_EQ(Parallel.races().size(), 2u);
  EXPECT_EQ(Parallel.distinctRacyObjects(), 2u);
}

TEST(ParallelDetectorTest, IncrementalTraceFeedingAccumulates) {
  // Splitting a trace into two processTrace calls must behave like one
  // call: carried-over per-object state still races against later events.
  TraceBuilder TB1, TB2;
  TB1.fork(0, 1);
  TB1.invoke(0, 0, "put", {Value::integer(1), Value::integer(1)},
             Value::nil());
  TB2.invoke(1, 0, "put", {Value::integer(1), Value::integer(2)},
             Value::integer(1));

  ParallelDetector Parallel(2);
  Parallel.setDefaultProvider(&dictRep());
  Parallel.processTrace(TB1.take());
  EXPECT_TRUE(Parallel.races().empty());
  Parallel.processTrace(TB2.take());
  ASSERT_EQ(Parallel.races().size(), 1u);
  EXPECT_EQ(Parallel.races()[0].EventIndex, 2u); // Global event numbering.
  EXPECT_EQ(Parallel.eventsProcessed(), 3u);
}

TEST(ParallelDetectorTest, ObjectDiedReclaimsShardState) {
  ParallelDetector Parallel(4);
  Parallel.setDefaultProvider(&dictRep());
  TraceBuilder TB;
  TB.fork(0, 1);
  for (unsigned O = 0; O != 8; ++O)
    TB.invoke(0, O, "put", {Value::integer(1), Value::integer(1)},
              Value::nil());
  Parallel.processTrace(TB.take());
  size_t Before = Parallel.activePointCount();
  EXPECT_GE(Before, 8u);
  for (unsigned O = 0; O != 8; O += 2)
    Parallel.objectDied(ObjectId(O));
  EXPECT_LE(Parallel.activePointCount(), Before / 2);
  // A concurrent access to a dead object afterwards reports nothing.
  Parallel.processTrace(
      TraceBuilder()
          .invoke(1, 0, "put", {Value::integer(1), Value::integer(2)},
                  Value::integer(1))
          .take());
  EXPECT_TRUE(Parallel.races().empty());
}

TEST(ParallelDetectorTest, TinyBatchesMatchSequentialAllShardCounts) {
  // Batch size 1 dispatches every action immediately; odd sizes leave
  // partial batches for flush() to sweep. All must stay bit-identical.
  Trace T = randomTrace(/*Seed=*/7, /*Workers=*/4, /*OpsPerWorker=*/40,
                        /*Keys=*/4, /*Maps=*/4);
  for (unsigned Shards : {2u, 4u})
    for (size_t Batch : {size_t(1), size_t(3), size_t(17), size_t(4096)})
      expectEquivalent(T, dictRep(), Shards, Batch);
}

TEST(ParallelDetectorTest, StridedObjectIdsSpreadAcrossShards) {
  // Object ids 0, 4, 8, ... — with raw modulo sharding all of them land on
  // shard 0 of 4; the mixed shard hash must keep the load spread out.
  constexpr unsigned Objects = 64;
  TraceBuilder TB;
  TB.fork(0, 1);
  for (unsigned O = 0; O != Objects; ++O)
    TB.invoke(0, O * 4, "put", {Value::integer(1), Value::integer(1)},
              Value::nil());
  Trace T = TB.take();
  expectEquivalent(T, dictRep(), 4);

  ParallelDetector Parallel(4);
  Parallel.setDefaultProvider(&dictRep());
  Parallel.processTrace(T);
  std::vector<size_t> Loads = Parallel.shardLoads();
  ASSERT_EQ(Loads.size(), 4u);
  size_t Total = 0, Max = 0, NonEmpty = 0;
  for (size_t L : Loads) {
    Total += L;
    Max = std::max(Max, L);
    NonEmpty += L != 0;
  }
  EXPECT_EQ(Total, size_t(Objects));
  EXPECT_LT(Max, Total) << "all strided objects landed on one shard";
  EXPECT_GE(NonEmpty, 3u) << "strided ids use too few shards";
}

TEST(ParallelDetectorTest, ObjectDiedMidStreamDrainsInFlightEvents) {
  // objectDied between streamed events must land *after* every earlier
  // event on the object (they may still be queued in the shard pipeline)
  // and reclaim the state before later events arrive.
  ParallelDetector Parallel(4, /*BatchSize=*/2);
  Parallel.setDefaultProvider(&dictRep());
  Trace Prefix = TraceBuilder()
                     .fork(0, 1)
                     .invoke(0, 0, "put",
                             {Value::integer(1), Value::integer(1)},
                             Value::nil())
                     .take();
  for (const Event &E : Prefix)
    Parallel.processEvent(E);
  Parallel.objectDied(ObjectId(0));
  // The concurrent partner arrives after the death: no prior state, no race.
  Trace Suffix = TraceBuilder()
                     .invoke(1, 0, "put",
                             {Value::integer(1), Value::integer(2)},
                             Value::integer(1))
                     .take();
  for (const Event &E : Suffix)
    Parallel.processEvent(E);
  Parallel.flush();
  EXPECT_TRUE(Parallel.races().empty());
  EXPECT_EQ(Parallel.eventsProcessed(), 3u);
}

TEST(ParallelDetectorTest, CrossCallCarryOverAllBatchAndShardCombos) {
  // Splitting one trace into per-call chunks must be invisible: carried
  // per-object state races against later chunks, with global numbering,
  // at every shard × batch combination.
  Trace Whole = randomTrace(/*Seed=*/21, /*Workers=*/4, /*OpsPerWorker=*/30,
                            /*Keys=*/4, /*Maps=*/4);
  CommutativityRaceDetector Sequential;
  Sequential.setDefaultProvider(&dictRep());
  Sequential.processTrace(Whole);

  for (unsigned Shards : {2u, 4u})
    for (size_t Batch : {size_t(1), size_t(5), size_t(64), size_t(4096)}) {
      ParallelDetector Parallel(Shards, Batch);
      Parallel.setDefaultProvider(&dictRep());
      constexpr size_t Chunk = 37;
      for (size_t Begin = 0; Begin < Whole.size(); Begin += Chunk) {
        Trace Part;
        for (size_t I = Begin; I != std::min(Begin + Chunk, Whole.size());
             ++I)
          Part.append(Whole[I]);
        Parallel.processTrace(Part);
      }
      expectMatchesSequential(Sequential, Parallel, Shards);
    }
}

TEST(ParallelDetectorTest, MoreShardsThanObjectsIsFine) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .invoke(0, 0, "put", {Value::integer(1), Value::integer(1)},
                        Value::nil())
                .invoke(1, 0, "put", {Value::integer(1), Value::integer(2)},
                        Value::integer(1))
                .take();
  expectEquivalent(T, dictRep(), 16);
}

TEST(ParallelDetectorTest, DrainingWhileStreamingMatchesSequential) {
  // The sequential detector drained after every event, the parallel one
  // handing merged races to a consumer: the concatenated deliveries equal
  // the undrained sequential race list record for record, the detectors
  // end up holding nothing, and the totals survive.
  Trace T = randomTrace(/*Seed=*/5, /*Workers=*/4, /*OpsPerWorker=*/60,
                        /*Keys=*/3, /*Maps=*/4);
  CommutativityRaceDetector Reference;
  Reference.setDefaultProvider(&dictRep());
  Reference.processTrace(T);
  ASSERT_FALSE(Reference.races().empty());

  auto Collect = [](std::vector<CommutativityRace> &Into) {
    return [&Into](const CommutativityRace &R) { Into.push_back(R); };
  };
  CommutativityRaceDetector Sequential;
  Sequential.setDefaultProvider(&dictRep());
  std::vector<CommutativityRace> SeqSeen;
  for (const Event &E : T) {
    Sequential.process(E);
    Sequential.drainRaces(Collect(SeqSeen));
  }
  EXPECT_EQ(SeqSeen, Reference.races());
  EXPECT_TRUE(Sequential.races().empty());
  EXPECT_EQ(Sequential.raceCount(), Reference.races().size());
  EXPECT_EQ(Sequential.distinctRacyObjects(),
            Reference.distinctRacyObjects());
  // Drained after every event: it held one event's races at most.
  EXPECT_LT(Sequential.racesHeldMax(), Reference.races().size());

  for (unsigned Shards : {2u, 4u})
    for (size_t Batch : {size_t(1), size_t(7), size_t(64)}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << Shards << " batch=" << Batch);
      ParallelDetector Parallel(Shards, Batch);
      Parallel.setDefaultProvider(&dictRep());
      std::vector<CommutativityRace> ParSeen;
      Parallel.setRaceConsumer(Collect(ParSeen));
      for (const Event &E : T)
        Parallel.processEvent(E);
      Parallel.flush();
      EXPECT_EQ(ParSeen, Reference.races());
      EXPECT_TRUE(Parallel.races().empty());
      EXPECT_EQ(Parallel.raceCount(), Reference.races().size());
      EXPECT_EQ(Parallel.distinctRacyObjects(),
                Reference.distinctRacyObjects());
      uint64_t Merged = 0;
      for (const ParallelShardMetrics &SM : Parallel.metricsSnapshot().Shards)
        Merged += SM.MergedRaces;
      EXPECT_EQ(Merged, Reference.races().size());
    }
}

TEST(ParallelDetectorTest, EmptyAndActionFreeTraces) {
  ParallelDetector Parallel(4);
  Parallel.setDefaultProvider(&dictRep());
  Parallel.processTrace(Trace());
  EXPECT_TRUE(Parallel.races().empty());
  Parallel.processTrace(TraceBuilder().fork(0, 1).join(0, 1).take());
  EXPECT_TRUE(Parallel.races().empty());
  EXPECT_EQ(Parallel.eventsProcessed(), 2u);
  EXPECT_EQ(Parallel.activePointCount(), 0u);
}

} // namespace
