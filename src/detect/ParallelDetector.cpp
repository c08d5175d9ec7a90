//===- detect/ParallelDetector.cpp - Object-sharded Algorithm 1 --------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/ParallelDetector.h"

#include "support/Hashing.h"
#include "support/KindScan.h"
#include "support/SpscRing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <ostream>
#include <string>
#include <thread>

using namespace crd;

namespace {

/// Mixed hash + fastrange: raw `index % shards` collapses strided object
/// ids onto few shards; splitmix64 spreads every input bit first, and the
/// multiply-shift maps the mixed value uniformly onto [0, #shards). A free
/// function because shard workers compute routing locally — every shard
/// evaluates the same hash and claims exactly its own objects, so no
/// pre-routing pass is needed.
unsigned shardIndex(ObjectId Obj, size_t NumShards) {
  uint32_t H = static_cast<uint32_t>(hashMix64(Obj.index()));
  return static_cast<unsigned>((uint64_t(H) * NumShards) >> 32);
}

/// Resolves the clock for \p Thread against a run's clock map. Threads the
/// clock machine never touched (nullptr / out-of-range entries) get a
/// shard-local synthesized inc_τ(⊥) = {τ:1} — bit-identical to the lazy
/// initialization the sequential VectorClockState would have performed,
/// but without mutating any shared state. \p Synth is the shard's own
/// synthesized-clock table (indexed by thread), written only by that
/// shard's executing thread.
const VectorClock *resolveClock(const std::vector<const VectorClock *> &Map,
                                ThreadId Thread,
                                std::vector<VectorClock> &Synth) {
  size_t I = Thread.index();
  if (I < Map.size() && Map[I])
    return Map[I];
  if (I >= Synth.size())
    Synth.resize(I + 1);
  VectorClock &C = Synth[I];
  if (C.isBottom())
    C.increment(Thread); // inc_τ(⊥): never bottom again, computed once.
  return &C;
}

} // namespace

/// A broadcast unit of shard work: one raw event batch plus its runs. The
/// same RunBatch pointer is pushed to EVERY shard's ring; each worker
/// walks the runs, claims the actions it owns (shardIndex), and stamps
/// them with the run's shared clock map. Pending counts shards still
/// reading; once it drops to zero the producer merges the races the shards
/// handed back in Out and reclaims the batch.
///
/// Event storage is either Owned (streaming feeds — payloads pinned in the
/// batch's own arena) or external (whole-trace feeds — Evs points into the
/// caller's Trace, which outlives the flush).
struct ParallelDetector::RunBatch {
  struct Run {
    uint32_t Begin; ///< First event of the run (inclusive, batch-relative).
    uint32_t End;   ///< One past the last event (the next sync position).
    const ClockMap *Map; ///< Shared clock snapshot for the whole run.
  };

  EventBatch Owned;
  const Event *Evs = nullptr;
  size_t N = 0;
  uint64_t BaseIndex = 0; ///< Global event index of Evs[0].
  std::vector<Run> Runs;
  /// Ascending positions of the batch's invoke events — the pre-pass
  /// publishes this once (one SIMD kind scan) so every shard worker walks
  /// only the actions, slicing per-run subranges straight into the batched
  /// onRun() kernel instead of re-scanning raw events.
  std::vector<uint32_t> InvokePos;
  /// Batch-owned clock snapshots and run maps. Every pointer a run
  /// publishes targets this batch's own storage, so reclaiming the batch
  /// reclaims them — no cross-batch reference tracking, and recycling just
  /// rewinds the used counters while the deques (stable under growth) keep
  /// their slots warm: the steady state materializes snapshots into
  /// existing capacity and never allocates.
  std::deque<VectorClock> Clocks;
  size_t ClocksUsed = 0;
  std::deque<ClockMap> Maps;
  size_t MapsUsed = 0;
  /// What each shard found in this batch, indexed by shard and written
  /// only by that shard's worker before it releases Pending: its races in
  /// event order (compact ShardRace records the merge completes from this
  /// batch's events and clock maps), and its distinct racy objects so
  /// far. The merge frees the lists.
  struct ShardOutput {
    std::vector<ShardRace> Races;
    size_t RacyObjects = 0;
  };
  std::vector<ShardOutput> Out;
  uint64_t Seq = 0;       ///< Global dispatch sequence (observability).
  uint64_t EnqueueNs = 0; ///< Producer's broadcast timestamp.
  std::atomic<uint32_t> Pending{0}; ///< Shards still executing this batch.

  VectorClock &nextClock() {
    if (ClocksUsed == Clocks.size())
      Clocks.emplace_back();
    return Clocks[ClocksUsed++];
  }
  ClockMap &nextMap() {
    if (MapsUsed == Maps.size())
      Maps.emplace_back();
    return Maps[MapsUsed++];
  }
  /// Drops the contents but keeps every buffer for the next round.
  void recycle() {
    Owned.clear();
    Runs.clear();
    InvokePos.clear();
    Evs = nullptr;
    N = 0;
    ClocksUsed = 0;
    MapsUsed = 0;
  }
};

/// Per-shard pipeline state. The worker thread is declared last so it is
/// destroyed (joined) before the state it references; the detector closes
/// the ring first, which ends the worker loop after draining.
struct ParallelDetector::Shard {
  Shard() : Ring(RingDepth) {}

  SpscRing<RunBatch *> Ring;
  std::atomic<uint64_t> Completed{0};
  uint64_t Enqueued = 0; ///< Producer-side only.
  BasicAlgorithm1Engine<EpochClock, ShardRace> Engine;
  /// Synthesized inc_τ(⊥) clocks for threads absent from a run's clock
  /// map; written only by this shard's worker.
  std::vector<VectorClock> Synth;
  /// Actions this shard claimed and executed. Written by the worker, read
  /// after quiescence (shardLoads/metricsSnapshot) — live in every build,
  /// like the engine's own counters.
  size_t RoutedEvents = 0;
  /// Races this shard contributed to merges so far. Producer-written and
  /// structural like RoutedEvents (one add per merged batch, not per
  /// event), so it stays live — and the accounting invariant checkable —
  /// with CRD_METRICS=0.
  uint64_t MergedRaces = 0;
  /// Largest per-batch race list this shard handed back: the most races
  /// it held undelivered at once. Producer-written like MergedRaces.
  uint64_t RacesHeldMax = 0;

  /// Producer-written observability (the feeding thread; merge too — same
  /// thread). Inert when CRD_METRICS=0.
  metrics::Counter RingFullStalls;
  metrics::Counter StallNs;
  metrics::LinearHistogram<RingDepth + 2> Occupancy;
  metrics::LinearHistogram<11> FillDeciles;
  /// Worker-written observability. Counter's cache-line alignment keeps
  /// these off the producer-written lines above; Spans is appended only by
  /// the worker and read only after quiescence.
  metrics::Counter WorkerNs;
  metrics::Counter Batches;
  std::vector<BatchSpan> Spans;

  std::jthread Worker;
};

ParallelDetector::ParallelDetector(unsigned NumShards, size_t BatchSize,
                                   bool TraceBatches)
    : BatchSizeVal(std::max<size_t>(1, BatchSize)),
      TraceBatches(metrics::Enabled && TraceBatches) {
  assert(NumShards >= 2 && "one shard is the sequential detector");
  ShardRacyObjects.assign(NumShards, 0);
  ShardList.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    ShardList.push_back(std::make_unique<Shard>());
  // Each shard gets a persistent worker consuming its ring so shard work
  // overlaps the sequential sync-only pre-pass. Everything the lambda needs
  // is captured by value or reachable through its own Shard / the
  // producer-owned batch pool (which outlives the workers by declaration
  // order): it must not read detector members that may be torn down while
  // it drains.
  for (unsigned I = 0; I != NumShards; ++I) {
    Shard &S = *ShardList[I];
    S.Worker = std::jthread([&S, NumShards, ShardIdx = I,
                             Tracing = this->TraceBatches] {
      RunBatch *RB = nullptr;
      while (S.Ring.pop(RB)) {
        uint64_t Begin = metrics::nowNs();
        uint64_t Mine = 0;
        // Locally computed routing: every shard claims exactly its own
        // objects through the same hash.
        auto Filter = [NumShards, ShardIdx](const Action &A) {
          return shardIndex(A.object(), NumShards) == ShardIdx;
        };
        // Runs and invoke positions are both ascending, so one cursor
        // over the batch's invoke index slices each run's actions; the
        // batched kernel never touches the raw non-invoke events.
        const std::vector<uint32_t> &Inv = RB->InvokePos;
        size_t Cursor = 0;
        for (const RunBatch::Run &R : RB->Runs) {
          while (Cursor < Inv.size() && Inv[Cursor] < R.Begin)
            ++Cursor;
          size_t First = Cursor;
          while (Cursor < Inv.size() && Inv[Cursor] < R.End)
            ++Cursor;
          if (Cursor == First)
            continue;
          auto Resolve = [&R, &S](ThreadId T) -> const VectorClock & {
            return *resolveClock(*R.Map, T, S.Synth);
          };
          Mine += S.Engine.onRun(RB->Evs, Inv.data() + First,
                                 Cursor - First, RB->BaseIndex, Resolve,
                                 Filter);
        }
        uint64_t End = metrics::nowNs();
        S.WorkerNs.add(End - Begin);
        S.Batches.inc();
        S.RoutedEvents += Mine;
        // Hand the batch's races back with it, in a list of exactly their
        // size: the producer merges and frees it once every shard is done
        // with the batch, so race memory in flight is what the unmerged
        // batches found, not the largest list each pooled batch ever held.
        RunBatch::ShardOutput &Found = RB->Out[ShardIdx];
        Found.Races.reserve(S.Engine.races().size());
        S.Engine.drainRaces(
            [&Found](const ShardRace &R) { Found.Races.push_back(R); });
        Found.RacyObjects = S.Engine.distinctRacyObjects();
        // Span recorded before the Completed signal so a quiesced
        // pipeline always observes every span.
        if (Tracing)
          S.Spans.push_back(
              {ShardIdx, RB->Seq, Mine, RB->EnqueueNs, Begin, End});
        // Release the batch refcount only after the last read of it,
        // then signal completion: quiescence implies every Pending
        // decrement is visible to the producer.
        RB->Pending.fetch_sub(1, std::memory_order_release);
        S.Completed.fetch_add(1, std::memory_order_release);
        S.Completed.notify_one();
      }
    });
  }
}

ParallelDetector::~ParallelDetector() {
  for (std::unique_ptr<Shard> &S : ShardList)
    S->Ring.close();
  // Shard destructors join the workers (Worker is the last member); the
  // batch pool outlives them by declaration order.
}

unsigned ParallelDetector::shardOf(ObjectId Obj) const {
  return shardIndex(Obj, ShardList.size());
}

size_t ParallelDetector::conflictChecks() const {
  size_t Sum = 0;
  for (const std::unique_ptr<Shard> &S : ShardList)
    Sum += S->Engine.conflictChecks();
  return Sum;
}

size_t ParallelDetector::activePointCount() const {
  size_t Sum = 0;
  for (const std::unique_ptr<Shard> &S : ShardList)
    Sum += S->Engine.activePointCount();
  return Sum;
}

size_t ParallelDetector::distinctRacyObjects() const {
  size_t Sum = 0;
  for (size_t N : ShardRacyObjects)
    Sum += N;
  return Sum;
}

std::vector<size_t> ParallelDetector::shardLoads() const {
  std::vector<size_t> Loads;
  Loads.reserve(ShardList.size());
  for (const std::unique_ptr<Shard> &S : ShardList)
    Loads.push_back(S->RoutedEvents);
  return Loads;
}

void ParallelDetector::bind(ObjectId Obj, const AccessPointProvider *Provider) {
  flush(); // Quiesce so no in-flight batch resolves against the old binding.
  for (std::unique_ptr<Shard> &S : ShardList)
    S->Engine.bind(Obj, Provider);
}

void ParallelDetector::setDefaultProvider(const AccessPointProvider *Provider) {
  flush();
  for (std::unique_ptr<Shard> &S : ShardList)
    S->Engine.setDefaultProvider(Provider);
}

void ParallelDetector::objectDied(ObjectId Obj) {
  // Dispatch anything staged, then drain the owning shard so every earlier
  // event on the object lands before its state is reclaimed. Batches are
  // broadcast, so only the owner needs to have caught up.
  sealStaging();
  Shard &S = *ShardList[shardOf(Obj)];
  syncShard(S);
  S.Engine.objectDied(Obj);
}

ParallelDetector::RunBatch *ParallelDetector::acquireBatch() {
  reclaimCompleted();
  if (FreeBatches.empty()) {
    // Steady state never reaches this: the ring depth bounds in-flight
    // batches, so after warmup the pool cycles.
    BatchStore.emplace_back();
    BatchStore.back().Out.resize(ShardList.size());
    FreeBatches.push_back(&BatchStore.back());
  }
  RunBatch *RB = FreeBatches.back();
  FreeBatches.pop_back();
  return RB;
}

void ParallelDetector::reclaimCompleted() {
  // Batches complete in FIFO order per shard, and every shard consumes the
  // same sequence, so scanning the in-flight queue from the front finds
  // every reclaimable batch — and merging them in that order keeps the
  // race list in event order.
  while (!InFlight.empty() &&
         InFlight.front()->Pending.load(std::memory_order_acquire) == 0) {
    RunBatch *RB = InFlight.front();
    InFlight.pop_front();
    mergeBatch(*RB);
    RB->recycle(); // Keeps buffers + arena chunks warm for reuse.
    FreeBatches.push_back(RB);
  }
}

void ParallelDetector::prepassAndDispatch(
    RunBatch *RB, const std::vector<uint32_t> &SyncPos, const uint8_t *Kinds) {
  uint64_t PrepassBegin = TraceBatches ? metrics::nowNs() : 0;

  // Publish the batch's invoke-position index for the shard workers: one
  // combined SIMD scan (sync and invoke kinds are exactly the bytes below
  // Invoke + 1) filtered down to the invokes. O(N/16) vector steps plus
  // O(#sync + #invoke) scalar work — memory/tx events are never loaded.
  CombinedScratch.clear();
  appendKindPositions(Kinds, RB->N, static_cast<uint8_t>(SyncKindBound + 1),
                      /*Base=*/0, CombinedScratch);
  for (uint32_t P : CombinedScratch)
    if (Kinds[P] >= SyncKindBound)
      RB->InvokePos.push_back(P);

  // The current run map, materialized lazily into the batch's own storage
  // on the first non-empty run (an all-sync batch never builds one).
  // DirtyThreads collects threads whose clock changed since Cur was built;
  // the next map copies Cur and re-snapshots only those.
  const ClockMap *Cur = nullptr;
  DirtyThreads.clear();
  auto SnapshotInto = [&](ClockMap &M, ThreadId Tid) {
    // Only threads the clock machine actually initialized get snapshots;
    // forcing lazy init here would perturb Table 1 state for threads the
    // trace never synchronized. Workers synthesize inc_τ(⊥) for the rest —
    // value-identical to lazy initialization (VectorClockState.h).
    if (!VCState.initializedClock(Tid)) {
      M[Tid.index()] = nullptr;
      return;
    }
    ClockSnapshotsCtr.inc();
    VectorClock &Slot = RB->nextClock();
    VCState.copyClockInto(Tid, Slot);
    M[Tid.index()] = &Slot;
  };
  auto emitRun = [&](uint32_t Begin, uint32_t End) {
    RunLengths.record(End - Begin); // Length 0 = back-to-back sync events.
    if (Begin == End)
      return;
    if (!Cur) {
      // Seed map: snapshot every initialized thread.
      ClockMapsCtr.inc();
      ClockMap &M = RB->nextMap();
      size_t NumThreads = VCState.numThreads();
      M.assign(NumThreads, nullptr);
      for (size_t I = 0; I != NumThreads; ++I)
        SnapshotInto(M, ThreadId(static_cast<uint32_t>(I)));
      Cur = &M;
    } else if (!DirtyThreads.empty()) {
      // Incremental map: copy the previous one, re-snapshot the changed
      // threads (a fork may have grown the thread set).
      ClockMapsCtr.inc();
      ClockMap &M = RB->nextMap();
      M = *Cur;
      M.resize(VCState.numThreads(), nullptr);
      for (ThreadId Tid : DirtyThreads)
        SnapshotInto(M, Tid);
      Cur = &M;
    }
    DirtyThreads.clear();
    RB->Runs.push_back({Begin, End, Cur});
  };

  // The sync-only walk: jump from sync position to sync position. Events
  // between two of them form a run whose clocks are constant — the clock
  // machine (and this thread) never looks at them. Work here is O(#sync),
  // not O(#events).
  uint32_t Prev = 0;
  for (uint32_t Sync : SyncPos) {
    emitRun(Prev, Sync);
    const Event &E = RB->Evs[Sync];
    SyncEventsCtr.inc();
    PrepassVisitedCtr.inc();
    VCState.process(E);
    DirtyThreads.push_back(E.thread());
    if (E.kind() == EventKind::Fork)
      DirtyThreads.push_back(E.other());
    Prev = Sync + 1;
  }
  emitRun(Prev, static_cast<uint32_t>(RB->N));

  if (RB->Runs.empty()) {
    // Every event was a sync event — the pre-pass consumed the whole
    // batch; nothing to hand to the shards.
    RB->recycle();
    FreeBatches.push_back(RB);
    return;
  }

  RB->Seq = NextSeq++;
  if (TraceBatches)
    PrePassSpans.push_back({0, RB->Seq, static_cast<uint64_t>(RB->N),
                            PrepassBegin, PrepassBegin, metrics::nowNs()});
  RB->EnqueueNs = metrics::nowNs();

  // Broadcast: the same batch goes to every shard; workers filter locally.
  // Pending is published to the workers by the ring pushes below.
  RB->Pending.store(static_cast<uint32_t>(ShardList.size()),
                    std::memory_order_relaxed);
  InFlight.push_back(RB);
  for (std::unique_ptr<Shard> &ShardPtr : ShardList) {
    Shard &S = *ShardPtr;
    S.FillDeciles.record(RB->N * 10 / BatchSizeVal);
    // In-flight depth the producer observes at this dispatch; with the
    // blocking push below it can reach but never exceed RingDepth.
    S.Occupancy.record(S.Enqueued -
                       S.Completed.load(std::memory_order_relaxed));
    ++S.Enqueued;
    // Fast path first; a full ring is a pipeline stall worth counting (the
    // pre-pass is outrunning this shard by RingDepth batches). Moving a
    // pointer copies it, so RB survives for the remaining shards.
    if (!S.Ring.tryPush(std::move(RB))) {
      S.RingFullStalls.inc();
      uint64_t T0 = metrics::nowNs();
      S.Ring.push(std::move(RB)); // Blocks until the worker frees a slot.
      S.StallNs.add(metrics::nowNs() - T0);
    }
  }
}

void ParallelDetector::sealStaging() {
  if (Staging.empty())
    return;
  Staging.finalizeSyncIndex(); // SIMD kind-scan over the staged kinds.
  RunBatch *RB = acquireBatch();
  std::swap(RB->Owned, Staging); // Staging inherits warm, cleared buffers.
  RB->Evs = RB->Owned.Events.data();
  RB->N = RB->Owned.size();
  RB->BaseIndex = StagingBase;
  prepassAndDispatch(RB, RB->Owned.SyncPos, RB->Owned.Kinds.data());
}

void ParallelDetector::processEvent(const Event &E) {
  if (metrics::Enabled && FeedStartNs == 0)
    FeedStartNs = metrics::nowNs(); // Pre-pass clock starts at first feed.
  if (Staging.empty())
    StagingBase = EventsProcessed;
  ++EventsProcessed;
  Staging.append(E); // Pins the payload into the staging batch's arena.
  if (Staging.size() >= BatchSizeVal)
    sealStaging();
}

void ParallelDetector::processBatch(EventBatch &B) {
  if (metrics::Enabled && FeedStartNs == 0)
    FeedStartNs = metrics::nowNs();
  sealStaging(); // Mixed feeding: staged events come first, in order.
  if (B.empty())
    return;
  RunBatch *RB = acquireBatch();
  std::swap(RB->Owned, B); // Hand the caller recycled warm buffers.
  RB->Evs = RB->Owned.Events.data();
  RB->N = RB->Owned.size();
  RB->BaseIndex = EventsProcessed;
  EventsProcessed += RB->N;
  prepassAndDispatch(RB, RB->Owned.SyncPos, RB->Owned.Kinds.data());
}

void ParallelDetector::processTrace(const Trace &T) {
  if (metrics::Enabled && FeedStartNs == 0)
    FeedStartNs = metrics::nowNs();
  sealStaging();
  // Whole-trace feeding pins no copies: batches window the trace's own
  // contiguous event storage, which outlives the flush below. Only the
  // kind bytes are gathered (they are not contiguous inside Event), then
  // the sync index comes from the SIMD scan.
  const std::vector<Event> &Events = T.events();
  for (size_t Begin = 0; Begin < Events.size(); Begin += BatchSizeVal) {
    size_t N = std::min(BatchSizeVal, Events.size() - Begin);
    RunBatch *RB = acquireBatch();
    RB->Evs = Events.data() + Begin;
    RB->N = N;
    RB->BaseIndex = EventsProcessed;
    EventsProcessed += N;
    KindScratch.clear();
    for (size_t J = 0; J != N; ++J)
      KindScratch.push_back(static_cast<uint8_t>(RB->Evs[J].kind()));
    SyncScratch.clear();
    appendKindPositions(KindScratch.data(), N, SyncKindBound, /*Base=*/0,
                        SyncScratch);
    prepassAndDispatch(RB, SyncScratch, KindScratch.data());
  }
  flush(); // Also the lifetime fence: refs into T die here.
}

void ParallelDetector::syncShard(Shard &S) {
  uint64_t Done = S.Completed.load(std::memory_order_acquire);
  while (Done != S.Enqueued) {
    S.Completed.wait(Done, std::memory_order_acquire);
    Done = S.Completed.load(std::memory_order_acquire);
  }
}

void ParallelDetector::mergeBatch(RunBatch &RB) {
  uint64_t Begin = metrics::nowNs();
  // Each shard's list is in event order, and races sharing an event index
  // come from one shard (an event touches one object), so a k-way merge by
  // event index reproduces the sequential detector's order exactly.
  MergeHeap.clear();
  for (size_t I = 0; I != RB.Out.size(); ++I) {
    RunBatch::ShardOutput &Found = RB.Out[I];
    ShardRacyObjects[I] = Found.RacyObjects;
    if (Found.Races.empty())
      continue;
    ShardList[I]->MergedRaces += Found.Races.size();
    ShardList[I]->RacesHeldMax = std::max<uint64_t>(
        ShardList[I]->RacesHeldMax, Found.Races.size());
    MergeHeap.push_back(
        {Found.Races.data(), Found.Races.data() + Found.Races.size()});
  }
  // Rebuild each record from the batch, which is still intact: the
  // event gives the thread and action, the run's clock map the current
  // clock (resolved as the worker resolved it).
  auto Emit = [this, &RB](ShardRace &S) {
    if (!Collect && !Consumer) {
      ++Delivered; // Counted, never built.
      return;
    }
    uint32_t Pos = static_cast<uint32_t>(S.EventIndex - RB.BaseIndex);
    const Event &E = RB.Evs[Pos];
    auto Run = std::upper_bound(
        RB.Runs.begin(), RB.Runs.end(), Pos,
        [](uint32_t P, const RunBatch::Run &R) { return P < R.Begin; });
    assert(Run != RB.Runs.begin() && "race outside every run");
    CommutativityRace &R = MergeScratch;
    R.EventIndex = S.EventIndex;
    R.Thread = E.thread();
    R.Current = E.action();
    R.PointName.assign(S.Provider->className(S.Partner));
    R.PriorClock = std::move(S.PriorClock);
    R.CurrentClock = *resolveClock(*std::prev(Run)->Map, R.Thread, MergeSynth);
    if (Consumer) {
      Consumer(R);
      ++Delivered;
    } else {
      Races.push_back(R);
    }
  };
  // Min-heap on the next event index (std heaps are max-heaps).
  auto Later = [](const MergeCursor &A, const MergeCursor &B) {
    return A.Next->EventIndex > B.Next->EventIndex;
  };
  std::make_heap(MergeHeap.begin(), MergeHeap.end(), Later);
  while (!MergeHeap.empty()) {
    std::pop_heap(MergeHeap.begin(), MergeHeap.end(), Later);
    MergeCursor &C = MergeHeap.back();
    if (MergeHeap.size() == 1) {
      // The last list with races left: no more comparisons needed.
      for (; C.Next != C.End; ++C.Next)
        Emit(*C.Next);
      break;
    }
    Emit(*C.Next);
    if (++C.Next == C.End)
      MergeHeap.pop_back();
    else
      std::push_heap(MergeHeap.begin(), MergeHeap.end(), Later);
  }
  for (RunBatch::ShardOutput &Found : RB.Out)
    Found.Races = {};
  MergeNsCtr.add(metrics::nowNs() - Begin);
}

void ParallelDetector::flush() {
  sealStaging();
  if (metrics::Enabled && FeedStartNs != 0) {
    PrePassNsCtr.add(metrics::nowNs() - FeedStartNs);
    FeedStartNs = 0;
  }
  uint64_t SyncStart = metrics::nowNs();
  for (std::unique_ptr<Shard> &S : ShardList)
    syncShard(*S);
  FlushWaitNsCtr.add(metrics::nowNs() - SyncStart);
  reclaimCompleted(); // Quiesced: every in-flight batch merges and recycles.
}

ParallelMetrics ParallelDetector::metricsSnapshot() const {
  ParallelMetrics M;
  M.Events = EventsProcessed;
  M.SyncEvents = SyncEventsCtr.get();
  M.PrepassEventsVisited = PrepassVisitedCtr.get();
  M.ClockSnapshots = ClockSnapshotsCtr.get();
  M.ClockMaps = ClockMapsCtr.get();
  M.Runs = RunLengths.count();
  M.RunLengthPow2 = RunLengths.counts();
  M.RunLengthMax = RunLengths.max();
  M.PrePassNs = PrePassNsCtr.get();
  M.FlushWaitNs = FlushWaitNsCtr.get();
  M.MergeNs = MergeNsCtr.get();
  M.Shards.reserve(ShardList.size());
  for (const std::unique_ptr<Shard> &S : ShardList) {
    ParallelShardMetrics SM;
    SM.RoutedEvents = S->RoutedEvents;
    SM.Batches = S->Batches.get();
    SM.MergedRaces = S->MergedRaces;
    SM.RacesHeldMax = S->RacesHeldMax;
    SM.RingFullStalls = S->RingFullStalls.get();
    SM.StallNs = S->StallNs.get();
    SM.WorkerNs = S->WorkerNs.get();
    SM.Engine = S->Engine.stats();
    SM.Occupancy = S->Occupancy.counts();
    SM.OccupancyMax = S->Occupancy.max();
    SM.FillDeciles = S->FillDeciles.counts();
    M.Actions += SM.RoutedEvents;
    M.Shards.push_back(SM);
    M.Spans.insert(M.Spans.end(), S->Spans.begin(), S->Spans.end());
  }
  M.PrePassSpans = PrePassSpans;
  // Chronological spans read better in tooling that ignores track order.
  std::stable_sort(M.Spans.begin(), M.Spans.end(),
                   [](const BatchSpan &A, const BatchSpan &B) {
                     return A.EnqueueNs < B.EnqueueNs;
                   });
  return M;
}

void crd::writeChromeTrace(std::ostream &OS, const ParallelMetrics &M,
                           const ChromeTraceAnnotation *Annotation) {
  metrics::JsonWriter W(OS);
  // Rebase so the earliest span is t=0 (Chrome renders absolute µs).
  uint64_t Base = ~uint64_t(0);
  uint32_t MaxShard = 0;
  for (const BatchSpan &S : M.Spans) {
    Base = std::min(Base, S.EnqueueNs);
    MaxShard = std::max(MaxShard, S.Shard);
  }
  for (const BatchSpan &S : M.PrePassSpans)
    Base = std::min(Base, S.BeginNs);
  auto Us = [Base](uint64_t Ns) {
    return static_cast<double>(Ns - Base) / 1000.0;
  };
  // The pre-pass renders as its own row below the shard rows.
  uint64_t PrePassTid = uint64_t(MaxShard) + 1;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  if (!M.Spans.empty())
    for (uint32_t Shard = 0; Shard <= MaxShard; ++Shard) {
      W.beginObject();
      W.field("name", "thread_name");
      W.field("ph", "M");
      W.field("pid", uint64_t(0));
      W.field("tid", uint64_t(Shard));
      W.key("args");
      W.beginObject();
      W.field("name", "shard " + std::to_string(Shard));
      W.endObject();
      W.endObject();
    }
  if (!M.PrePassSpans.empty()) {
    W.beginObject();
    W.field("name", "thread_name");
    W.field("ph", "M");
    W.field("pid", uint64_t(0));
    W.field("tid", PrePassTid);
    W.key("args");
    W.beginObject();
    W.field("name", "pre-pass");
    W.endObject();
    W.endObject();
  }
  if (Annotation) {
    W.beginObject();
    W.field("name", Annotation->Name);
    W.field("ph", "M");
    W.field("pid", uint64_t(0));
    W.field("tid", uint64_t(0));
    W.key("args");
    W.beginObject();
    for (const auto &[Key, Val] : Annotation->Args)
      W.field(Key.c_str(), Val);
    W.endObject();
    W.endObject();
  }
  for (const BatchSpan &S : M.Spans) {
    std::string Label = "batch " + std::to_string(S.Seq) + " (" +
                        std::to_string(S.Events) + " ev)";
    // Queue-wait slice (omitted when the worker picked the batch up at once).
    if (S.BeginNs > S.EnqueueNs) {
      W.beginObject();
      W.field("name", "queued " + Label);
      W.field("ph", "X");
      W.field("pid", uint64_t(0));
      W.field("tid", uint64_t(S.Shard));
      W.field("ts", Us(S.EnqueueNs));
      W.field("dur", static_cast<double>(S.BeginNs - S.EnqueueNs) / 1000.0);
      W.endObject();
    }
    W.beginObject();
    W.field("name", Label);
    W.field("ph", "X");
    W.field("pid", uint64_t(0));
    W.field("tid", uint64_t(S.Shard));
    W.field("ts", Us(S.BeginNs));
    W.field("dur", static_cast<double>(S.EndNs - S.BeginNs) / 1000.0);
    W.key("args");
    W.beginObject();
    W.field("events", S.Events);
    W.endObject();
    W.endObject();
  }
  for (const BatchSpan &S : M.PrePassSpans) {
    W.beginObject();
    W.field("name", "pre-pass " + std::to_string(S.Seq) + " (" +
                        std::to_string(S.Events) + " ev)");
    W.field("ph", "X");
    W.field("pid", uint64_t(0));
    W.field("tid", PrePassTid);
    W.field("ts", Us(S.BeginNs));
    W.field("dur", static_cast<double>(S.EndNs - S.BeginNs) / 1000.0);
    W.key("args");
    W.beginObject();
    W.field("events", S.Events);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.field("displayTimeUnit", "ms");
  W.endObject();
  OS << '\n';
}
