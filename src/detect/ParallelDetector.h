//===- detect/ParallelDetector.h - Object-sharded Algorithm 1 ---*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An object-sharded, pipelined parallelization of Algorithm 1. The key
/// observation (the shard invariant documented in DESIGN.md) is that all of
/// Algorithm 1's mutable state is partitioned per object: phases 1–2 for an
/// event on object o touch only active(o). Only the Table 1 clock machine
/// is inherently sequential — and it only *changes* at synchronization
/// events, which are ~3% of a typical trace. The pipeline is therefore
/// organized around RUNS: the maximal stretches of events between two sync
/// events, over which every thread's clock is constant.
///
///   1. Sync-only pre-pass (sequential, caller thread): jump from sync
///      event to sync event using the batch's precomputed sync index
///      (emitted by the wire decoder, or SIMD kind-scanned for in-memory
///      feeds — support/KindScan.h). Only sync events run the clock
///      machine; per run the pre-pass publishes one shared clock-map
///      snapshot (thread → clock pointer). Work is O(#sync), not
///      O(#events).
///   2. Run handoff (pipelined): whole raw event batches — annotated with
///      their runs — are broadcast to every shard's persistent worker
///      through bounded SPSC rings. Workers compute per-event shard
///      routing locally (the same fastrange hash on every shard) and
///      execute exactly the actions they own, so the caller thread never
///      touches non-sync events at all.
///   3. Merge (sequential, deterministic, streaming): each worker hands
///      its batch's races — already in event order — back inside the
///      batch. Once every shard has finished a batch, the producer k-way
///      merges the per-shard lists by event index, bit-identical to the
///      sequential CommutativityRaceDetector, and hands them to the race
///      consumer (or, without one, appends them to races()). Batches
///      finish in order on every shard, so the merge never waits for a
///      later window, and a streaming caller holds only the races of the
///      batches still in flight.
///
/// Both whole-trace (processTrace), batch (processBatch) and event-at-a-
/// time (processEvent + flush) feeding are supported; the streaming paths
/// pin action payloads into batch-owned storage, so callers may discard
/// events immediately.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_PARALLELDETECTOR_H
#define CRD_DETECT_PARALLELDETECTOR_H

#include "detect/Algorithm1.h"
#include "hb/VectorClockState.h"
#include "support/Metrics.h"
#include "trace/EventBatch.h"
#include "trace/Trace.h"

#include <array>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

namespace crd {

/// Lifetime of one batch execution on one shard, recorded when the
/// detector is constructed with TraceBatches=true (and the build has
/// CRD_METRICS=1). Rendered as a Chrome-trace timeline by
/// writeChromeTrace(). Since batches are broadcast, each dispatched batch
/// produces one span per shard; Events counts the actions that shard
/// actually owned and executed.
struct BatchSpan {
  uint32_t Shard = 0;
  uint64_t Seq = 0;       ///< Global batch sequence number (0-based).
  uint64_t Events = 0;    ///< Actions this shard executed from the batch.
  uint64_t EnqueueNs = 0; ///< Producer broadcast the batch to the rings.
  uint64_t BeginNs = 0;   ///< Worker began executing the batch.
  uint64_t EndNs = 0;     ///< Worker finished the batch.
};

/// Per-shard slice of a ParallelDetector metrics snapshot. All counts are
/// zeros in a CRD_METRICS=OFF build except RoutedEvents (the shard-balance
/// statistic, live in every build).
struct ParallelShardMetrics {
  uint64_t RoutedEvents = 0;   ///< Actions this shard claimed and executed.
  uint64_t Batches = 0;        ///< Run batches the shard executed.
  uint64_t MergedRaces = 0;    ///< Races this shard contributed at merges.
  /// The most races this shard held undelivered at once: its largest
  /// per-batch race list.
  uint64_t RacesHeldMax = 0;
  uint64_t RingFullStalls = 0; ///< Dispatches that found the ring full.
  uint64_t StallNs = 0;        ///< Producer time blocked on a full ring.
  uint64_t WorkerNs = 0;       ///< Worker time executing batches.
  Algorithm1Stats Engine;      ///< The shard engine's own counters.
  /// Ring occupancy observed at each dispatch: bucket i = i batches were
  /// in flight (the last bucket absorbs the tail; with the blocking push
  /// occupancy never exceeds the ring depth).
  std::array<uint64_t, 10> Occupancy{};
  uint64_t OccupancyMax = 0;
  /// Batch fill at dispatch, in deciles of the configured batch size:
  /// bucket i = fill in [i*10, (i+1)*10)%; bucket 10 = exactly full.
  std::array<uint64_t, 11> FillDeciles{};
};

/// Whole-pipeline metrics snapshot (schema: docs/observability.md). Valid
/// only on a quiesced pipeline — call after processTrace() or flush().
struct ParallelMetrics {
  uint64_t Events = 0;         ///< All events fed (every kind).
  uint64_t Actions = 0;        ///< Invoke events executed by shards.
  uint64_t SyncEvents = 0;     ///< Clock-machine events (fork/join/acq/rel).
  /// Events the sequential pre-pass actually visited — exactly the sync
  /// events under the run-based pipeline. prepass_events_visited / events
  /// is the sequential fraction (the acceptance metric of the rework).
  uint64_t PrepassEventsVisited = 0;
  uint64_t ClockSnapshots = 0; ///< Distinct clock snapshots materialized.
  uint64_t ClockMaps = 0;      ///< Per-run clock maps materialized.
  uint64_t Runs = 0;           ///< Runs delimited (including empty ones).
  /// Run-length histogram, power-of-two buckets: bucket 0 counts empty
  /// runs (back-to-back sync events), bucket i counts lengths in
  /// [2^(i-1), 2^i), the last bucket absorbs the tail.
  std::array<uint64_t, 16> RunLengthPow2{};
  uint64_t RunLengthMax = 0;
  uint64_t PrePassNs = 0;      ///< Feed time: first feed to flush.
  uint64_t FlushWaitNs = 0;    ///< flush() time waiting for shard quiescence.
  /// Producer time k-way merging finished batches' per-shard races,
  /// summed over every merge (not just flush()).
  uint64_t MergeNs = 0;
  std::vector<ParallelShardMetrics> Shards;
  std::vector<BatchSpan> Spans; ///< Empty unless TraceBatches was set.
  /// Producer-side pre-pass span per dispatched batch (TraceBatches only):
  /// Seq/Events/EnqueueNs mirror the batch, Begin/End bracket the sync
  /// walk + run emission. Rendered as a dedicated "pre-pass" row.
  std::vector<BatchSpan> PrePassSpans;
};

/// Object-sharded parallel commutativity race detector. Mirrors the
/// sequential CommutativityRaceDetector API for whole-trace processing and
/// produces bit-identical race reports.
class ParallelDetector {
public:
  /// Events per dispatched batch: large enough to amortize the ring
  /// handoff, small enough to keep all shards busy while the pre-pass runs.
  static constexpr size_t DefaultBatchSize = 4096;

  /// Ring depth per shard: bounds in-flight batches (and thus pinned clock
  /// snapshots / copied actions) while leaving slack for pre-pass bursts.
  /// Public because the occupancy histogram in ParallelShardMetrics is
  /// sized by it (RingDepth + 2 buckets: 0..RingDepth plus a tail).
  static constexpr size_t RingDepth = 8;
  static_assert(ParallelShardMetrics{}.Occupancy.size() == RingDepth + 2,
                "occupancy histogram must cover 0..RingDepth plus a tail");

  /// \p NumShards worker shards, at least two: one shard is exactly the
  /// sequential CommutativityRaceDetector, which is what StreamPipeline
  /// runs for a one-shard request. \p TraceBatches additionally records a
  /// BatchSpan per dispatched batch (CRD_METRICS builds only) for
  /// writeChromeTrace(); it is fixed at construction because the shard
  /// workers capture it.
  explicit ParallelDetector(unsigned NumShards,
                            size_t BatchSize = DefaultBatchSize,
                            bool TraceBatches = false);
  ~ParallelDetector();

  ParallelDetector(const ParallelDetector &) = delete;
  ParallelDetector &operator=(const ParallelDetector &) = delete;

  /// Binds the representation used for actions on \p Obj. Quiesces the
  /// pipeline, then applies to every shard.
  void bind(ObjectId Obj, const AccessPointProvider *Provider);

  /// Representation used for objects without an explicit bind().
  void setDefaultProvider(const AccessPointProvider *Provider);

  /// Processes a whole trace through the pipeline and flush()es. May be
  /// called repeatedly; results accumulate, and per-object detector state
  /// carries over between calls exactly as for the sequential detector.
  /// Zero-copy: batches reference the trace's own event storage (the
  /// trace outlives the internal flush).
  void processTrace(const Trace &T);

  /// Streaming feed: stages one event. The action payload is pinned into
  /// batch-owned storage, so \p E need not outlive the call. Results
  /// become visible after the next flush().
  void processEvent(const Event &E);

  /// Batch feed: takes \p B's contents (events, kinds, sync index, pinned
  /// payloads) into the pipeline and hands \p B a recycled empty batch
  /// whose buffers are warm — the zero-copy fast path for
  /// EventSource::nextBatch() loops. \p B must have its sync index
  /// populated (decoder batch path or finalizeSyncIndex()).
  void processBatch(EventBatch &B);

  /// Dispatches all partial batches, waits for every shard to quiesce, and
  /// merges results deterministically. Idempotent; cheap when idle.
  void flush();

  /// Where merged races go. By default they collect in races(). Once a
  /// consumer is set, each batch's races are handed to \p Consume in
  /// event order as the batch is merged — during a later feed call, at the
  /// latest in flush() — and never stored; an empty \p Consume only
  /// counts them, without building the records. Set before feeding.
  void setRaceConsumer(
      std::function<void(const CommutativityRace &)> Consume) {
    Collect = false;
    Consumer = std::move(Consume);
  }

  /// Merged races in event order, when no race consumer is set. Every
  /// batch all shards have finished is merged; processTrace() and flush()
  /// finish them all, so every race is here after either.
  const std::vector<CommutativityRace> &races() const { return Races; }

  /// Every race merged so far, handed on or not.
  size_t raceCount() const { return Delivered + Races.size(); }

  /// Number of distinct objects participating in at least one merged
  /// race. Objects never change shard, so this is the sum of the shards'
  /// own counts, as each shard reported it with its last merged batch.
  size_t distinctRacyObjects() const;

  /// Phase-1 conflict probes summed over all shards. Requires a quiesced
  /// pipeline (after processTrace or flush).
  size_t conflictChecks() const;

  /// Number of events processed (all kinds, as for the sequential API).
  size_t eventsProcessed() const { return EventsProcessed; }

  /// Active access points summed over all shards; O(#shards). Exact on a
  /// quiesced pipeline; while shards run, a recent value.
  size_t activePointCount() const;

  /// Reclaims a dead object's state in whichever shard owns it (after
  /// draining that shard's in-flight events).
  void objectDied(ObjectId Obj);

  unsigned shards() const { return static_cast<unsigned>(ShardList.size()); }
  size_t batchSize() const { return BatchSizeVal; }

  /// Action events each shard claimed and executed so far — the
  /// shard-balance statistic (a sound hash keeps the max close to the
  /// mean). Requires a quiesced pipeline.
  std::vector<size_t> shardLoads() const;

  /// Whether batch spans are being recorded (set at construction).
  bool tracingBatches() const { return TraceBatches; }

  /// Full metrics snapshot (docs/observability.md). Requires a quiesced
  /// pipeline — call after processTrace() or flush(). In a CRD_METRICS=OFF
  /// build the structural counts (Events, Actions, per-shard RoutedEvents,
  /// conflict checks) stay live and everything timed reads zero.
  ParallelMetrics metricsSnapshot() const;

private:
  struct Shard;
  struct RunBatch;

  /// Thread → clock-snapshot pointers for one run; nullptr (or
  /// out-of-range) entries are threads the clock machine has not touched,
  /// for which workers synthesize inc_τ(⊥) locally.
  using ClockMap = std::vector<const VectorClock *>;

  unsigned shardOf(ObjectId Obj) const;
  RunBatch *acquireBatch();
  void sealStaging();
  /// \p Kinds is the batch's kind-byte array (RB->N entries, aligned with
  /// RB->Evs); the pre-pass SIMD-scans it once to publish the batch's
  /// invoke-position index alongside the runs.
  void prepassAndDispatch(RunBatch *RB, const std::vector<uint32_t> &SyncPos,
                          const uint8_t *Kinds);
  void reclaimCompleted();
  void syncShard(Shard &S);
  /// K-way merges \p RB's per-shard race lists into the consumer (or
  /// Races). Called once every shard has finished \p RB, in dispatch
  /// order.
  void mergeBatch(RunBatch &RB);

  /// Table 1 clock machine; persists across processTrace calls so split
  /// traces see the same happens-before as one concatenated trace.
  /// Clock snapshots and run maps live in the RunBatch they belong to
  /// (batch-owned storage), so batch recycling reclaims them without any
  /// cross-batch reference tracking.
  VectorClockState VCState;
  /// Pre-pass scratch: threads whose clock changed since the current run
  /// map was materialized (duplicates are harmless).
  std::vector<ThreadId> DirtyThreads;
  /// Run-batch pool: stable storage (deque — growth never moves batches),
  /// free list, and the FIFO of batches whose workers may still be
  /// running. Producer-side only. Declared BEFORE ShardList: destruction
  /// runs in reverse, so the shard workers are joined before the batches
  /// they read go away.
  std::deque<RunBatch> BatchStore;
  std::vector<RunBatch *> FreeBatches;
  std::deque<RunBatch *> InFlight;
  uint64_t NextSeq = 0; ///< Global dispatch sequence numbers.
  /// Shard-local pipeline state (persists across processTrace calls).
  std::vector<std::unique_ptr<Shard>> ShardList;
  size_t BatchSizeVal;
  bool TraceBatches = false;
  /// Staging batch for the event-at-a-time feed; sealed into a RunBatch
  /// when full (or at flush). StagingBase is the global index of its
  /// first event.
  EventBatch Staging;
  uint64_t StagingBase = 0;
  /// Scratch for the zero-copy processTrace path: per-window kind bytes
  /// and SIMD-scanned sync positions.
  std::vector<uint8_t> KindScratch;
  std::vector<uint32_t> SyncScratch;
  /// Pre-pass scratch for the combined sync+invoke kind scan.
  std::vector<uint32_t> CombinedScratch;
  bool Collect = true; ///< No consumer set: merged races go to Races.
  std::function<void(const CommutativityRace &)> Consumer;
  std::vector<CommutativityRace> Races; ///< Merged, without a consumer.
  /// mergeBatch() scratch: the record being rebuilt (its buffers are
  /// reused), and inc_τ(⊥) clocks for threads absent from a clock map.
  CommutativityRace MergeScratch;
  std::vector<VectorClock> MergeSynth;
  size_t Delivered = 0;                 ///< Races the consumer took.
  /// Per shard: distinct racy objects as of its last merged batch.
  std::vector<size_t> ShardRacyObjects;
  /// mergeBatch() scratch: one cursor per shard with races to merge.
  struct MergeCursor {
    ShardRace *Next;
    ShardRace *End;
  };
  std::vector<MergeCursor> MergeHeap;
  size_t EventsProcessed = 0;
  /// Observability state (single writer: the feeding thread; all of it is
  /// inert when CRD_METRICS=0).
  metrics::Counter SyncEventsCtr;
  metrics::Counter PrepassVisitedCtr;
  metrics::Counter ClockSnapshotsCtr;
  metrics::Counter ClockMapsCtr;
  metrics::Counter PrePassNsCtr;
  metrics::Counter FlushWaitNsCtr;
  metrics::Counter MergeNsCtr;
  metrics::Pow2Histogram<16> RunLengths;
  std::vector<BatchSpan> PrePassSpans;
  uint64_t FeedStartNs = 0; ///< nowNs() of the first feed since flush.
};

/// Optional run-level annotation for writeChromeTrace: rendered as one
/// metadata ("M") event carrying named integer counters. Kept to plain
/// strings/integers so this layer stays agnostic of who produces them
/// (crd profile uses it for the --memo decode-cache counters).
struct ChromeTraceAnnotation {
  std::string Name;
  std::vector<std::pair<std::string, uint64_t>> Args;
};

/// Renders a metrics snapshot's batch spans as a Chrome-trace JSON document
/// (chrome://tracing / Perfetto "trace event format": one "X" complete
/// event per span with ts/dur in microseconds, tid = shard). Timestamps are
/// rebased so the earliest enqueue is t=0. Each batch renders as two spans
/// per shard: "queued" (enqueue → worker pickup) and "run" (pickup →
/// completion), plus one "pre-pass" span on a dedicated row showing the
/// producer's sync walk for that batch. \p Annotation, when non-null,
/// is emitted as an extra metadata event.
void writeChromeTrace(std::ostream &OS, const ParallelMetrics &M,
                      const ChromeTraceAnnotation *Annotation = nullptr);

} // namespace crd

#endif // CRD_DETECT_PARALLELDETECTOR_H
