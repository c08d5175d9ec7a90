//===- wire/StreamPipeline.h - Streaming detection pipeline -----*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming ingestion pipeline: pulls decoded events from any
/// EventSource (or receives them pushed as an EventSink from a live
/// SimRuntime) and feeds them incrementally into a detector backend —
/// the sequential Algorithm 1 detector, the object-sharded
/// ParallelDetector (events stream straight into its shard pipeline —
/// the detector batches internally, and reports stay bit-identical to
/// the sequential detector), the FastTrack baseline, or the online
/// atomicity checker. Commutativity races are a bounded stream: each is
/// handed to an optional callback as soon as the backend reports it and
/// then dropped, so the pipeline keeps only the end-of-stream counts.
/// No Trace is ever materialized.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_WIRE_STREAMPIPELINE_H
#define CRD_WIRE_STREAMPIPELINE_H

#include "detect/CommutativityDetector.h"
#include "detect/FastTrack.h"
#include "detect/OnlineAtomicity.h"
#include "detect/ParallelDetector.h"
#include "runtime/Sink.h"
#include "wire/EventSource.h"

#include <functional>
#include <iosfwd>
#include <memory>

namespace crd {
namespace wire {

/// Which detector consumes the stream.
enum class Backend {
  Sequential, ///< CommutativityRaceDetector, event-at-a-time.
  Parallel,   ///< ParallelDetector's streaming shard pipeline.
  FastTrack,  ///< Low-level read/write races.
  Atomicity,  ///< OnlineAtomicityChecker (conflict-serializability).
};

/// The user-facing spellings (`--detector`, the serve handshake's
/// `detector=`, the serve status document), indexed by Backend.
inline constexpr const char *BackendNames[] = {"seq", "parallel", "fasttrack",
                                               "atomicity"};
inline const char *backendName(Backend B) {
  return BackendNames[static_cast<size_t>(B)];
}

/// Upper bounds on PipelineOptions::Shards and BatchSize that every
/// surface accepting them (CLI, serve handshake) enforces.
inline constexpr unsigned MaxShards = 1024;
inline constexpr size_t MaxBatchSize = size_t(1) << 24;

/// End-of-stream report.
struct StreamSummary {
  size_t Events = 0;
  size_t Races = 0;            ///< Commutativity races (Sequential/Parallel).
  size_t DistinctRacyObjects = 0;
  size_t MemoryRaces = 0;      ///< FastTrack backend.
  size_t DistinctRacyVars = 0;
  size_t Violations = 0;       ///< Atomicity backend.

  /// True when the selected backend reported nothing.
  bool clean() const { return Races + MemoryRaces + Violations == 0; }
};

/// Pipeline configuration.
struct PipelineOptions {
  Backend TheBackend = Backend::Sequential;
  /// Parallel backend: worker shards, 0 = hardware concurrency. A request
  /// that resolves to fewer than two shards runs the sequential detector.
  unsigned Shards = 0;
  size_t BatchSize = 4096; ///< Parallel backend batch granularity (≥ 1).
  /// Parallel backend: record a BatchSpan per dispatched batch for Chrome
  /// tracing (CRD_METRICS builds only; see ParallelDetector).
  bool TraceBatches = false;
  /// Chunk memoization for binary sources carrying content digests
  /// (docs/trace-format.md). Full makes the sequential backend replay
  /// detector chunk summaries over the reader's payload index; the other
  /// backends get the reader's decoded-batch cache (repeated payloads skip
  /// varint/delta decode). Races are bit-identical in every mode.
  MemoMode Memo = MemoMode::Off;
};

/// Detector-side memoization counters (always live, even in a
/// CRD_METRICS=OFF build; see docs/observability.md "memo").
struct PipelineMemoStats {
  uint64_t SummaryHits = 0;      ///< Chunks replayed from a summary.
  uint64_t SummaryRecords = 0;   ///< Summaries recorded (incl. re-records).
  uint64_t SummaryFallbacks = 0; ///< Version-mismatch fallbacks to interpret.
  uint64_t EventsReplayed = 0;   ///< Events covered by replays.
  uint64_t ChunksInterpreted = 0;///< Chunks run through the detector.
};

/// Streaming detector pipeline; EventSink so live runtimes can push.
class StreamPipeline : public EventSink {
public:
  explicit StreamPipeline(PipelineOptions Opts = {});

  /// Representation for objects without an explicit bind(). Ignored by the
  /// FastTrack backend.
  void setDefaultProvider(const AccessPointProvider *Provider);
  void bind(ObjectId Obj, const AccessPointProvider *Provider);

  /// Invoked for every commutativity race, in event order, as soon as the
  /// backend reports it: after the offending event for Sequential's
  /// per-event feed, after the containing batch or memo chunk for its
  /// batched feeds. A parallel run of two or more shards delivers a
  /// batch's races once every shard has finished it — during a later feed
  /// call, at the latest at finish(). The pipeline keeps no race after the
  /// callback returns (summary() counts them); without a callback races
  /// are only counted.
  void setRaceCallback(std::function<void(const CommutativityRace &)> Cb);
  /// FastTrack counterpart of setRaceCallback.
  void setMemoryRaceCallback(std::function<void(const MemoryRace &)> Cb) {
    MemoryRaceCallback = std::move(Cb);
  }

  /// EventSink: feeds one event.
  void onEvent(const Event &E) override;

  /// Push-side counterpart of run()'s batched pull, used by the live
  /// ingestion collector: feeds a whole batch. \p B's sync index must be
  /// populated (finalizeSyncIndex() after manual appends). On return
  /// \p B is empty with warm buffers — the parallel backend swaps in a
  /// recycled batch, the other backends consume and clear() it — so a
  /// caller can refill the same batch allocation-free.
  void processBatch(EventBatch &B);

  /// Pulls \p Source dry, then finish()es. Returns the summary. With
  /// PipelineOptions::Memo == Full, a binary source and the sequential
  /// backend, drives the memoized chunk loop (see pumpChunk()).
  StreamSummary run(EventSource &Source);

  /// Incremental counterpart of run(): pulls whatever \p Source can
  /// deliver right now and feeds it to the backend, returning when the
  /// source reports end of stream — which, for a resumable stream (a
  /// serve session's byte queue after WireReader::resume()), just means
  /// "no more complete input yet". Unlike run() this neither finish()es
  /// nor summarizes: callers pump again as input arrives and call
  /// finish() once the stream truly ends. Memo modes arm on the first
  /// call, with the same backend rules as run(). run() itself is
  /// pump-until-dry + finish(), so batch shapes and race callback timing
  /// are identical on both paths.
  void pump(EventSource &Source);

  /// Forwards the paper's §5.3 reclamation hook to backends that keep
  /// per-object state (sequential and parallel; FastTrack and atomicity
  /// key state by variable/transaction and ignore it). Serving sessions
  /// call this for client die notices so long-lived streams keep the
  /// detector footprint bounded. Races already found stay counted.
  void objectDied(ObjectId Obj);

  /// Memoization counters (zero unless run() drove the Full memo loop).
  const PipelineMemoStats &memoStats() const { return MemoStats; }

  /// Resident bytes of the recycled pull batch — the piece of pipeline
  /// footprint a serving session must budget alongside the decoder's
  /// arenas and caches (EventBatch::memoryFootprint()).
  size_t batchFootprint() const { return PumpBatch.memoryFootprint(); }

  /// Flushes the parallel pipeline; must be called once the stream ends
  /// when events were pushed via onEvent(). Idempotent.
  void finish();

  size_t eventsProcessed() const { return Events; }
  StreamSummary summary() const;

  /// Results of the selected backend (empty vectors otherwise). finish()
  /// first when pushing events directly. Commutativity races have no
  /// accessor: they reach the caller only through setRaceCallback().
  const std::vector<MemoryRace> &memoryRaces() const;
  const std::vector<AtomicityViolation> &violations() const;

  /// The parallel backend, or nullptr for other backends and for parallel
  /// requests that resolved to one shard. Exposed so callers (crd profile)
  /// can pull the full metrics snapshot / batch spans. Quiesce with
  /// finish() before reading.
  const ParallelDetector *parallelDetector() const { return Par.get(); }

  /// The sequential backend, or nullptr for other backends. Exposed so
  /// callers (crd bench) can read the batched-kernel timing directly.
  const CommutativityRaceDetector *sequentialDetector() const {
    return Seq.get();
  }

  /// Emits the observability snapshot as a JSON document (schema:
  /// docs/observability.md). Valid on a quiesced pipeline — after run(),
  /// or finish() when events were pushed. Pass the \p Source the stream
  /// was pulled from to include decode-side counters (binary sources
  /// only). Works in every build; a CRD_METRICS=OFF build emits
  /// `"metrics_enabled": false` with structural counts live and
  /// everything timed zero.
  void writeMetricsJson(std::ostream &OS,
                        const EventSource *Source = nullptr) const;

private:
  /// Hands every race the backend has reported since the last call to
  /// the callbacks; commutativity races are dropped after delivery.
  void drainNewRaces();
  void tallyBatchKinds(const EventBatch &B);
  /// One step of the Full-memo chunk loop: replay a verified-repeat chunk
  /// whose summary footprint matches, interpret + record otherwise.
  /// Returns false when the reader has no staged chunk (end of stream).
  bool pumpChunk(WireReader &Reader);

  PipelineOptions Opts;
  ChunkMemoTable MemoTable;
  PipelineMemoStats MemoStats;
  std::unique_ptr<CommutativityRaceDetector> Seq;
  std::unique_ptr<ParallelDetector> Par;
  std::unique_ptr<FastTrackDetector> FT;
  std::unique_ptr<OnlineAtomicityChecker> Atom;
  std::function<void(const CommutativityRace &)> RaceCallback;
  std::function<void(const MemoryRace &)> MemoryRaceCallback;
  size_t Events = 0;
  size_t MemoryRacesSeen = 0; ///< Memory races already handed over.
  /// Recycled pull batch shared by pump()'s loops, kept as a member so a
  /// resumable stream's many short pump rounds stay allocation-free.
  EventBatch PumpBatch;
  /// Per-kind ingress counters (single writer: the feeding thread; inert
  /// when CRD_METRICS=0). Invoke + Sync + Mem + Tx == Events.
  metrics::Counter InvokeEvents;
  metrics::Counter SyncEvents;
  metrics::Counter MemEvents;
  metrics::Counter TxEvents;
};

} // namespace wire
} // namespace crd

#endif // CRD_WIRE_STREAMPIPELINE_H
