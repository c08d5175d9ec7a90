//===- wire/StreamPipeline.cpp - Streaming detection pipeline ----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/StreamPipeline.h"

#include "support/Metrics.h"

#include <algorithm>
#include <ostream>
#include <thread>

using namespace crd;
using namespace crd::wire;

namespace {

/// The metrics document's backend name: the user-facing spelling, except
/// that the sequential detector reads "sequential" there.
const char *metricsBackendName(Backend B) {
  return B == Backend::Sequential ? "sequential" : backendName(B);
}

void writeEngineStats(metrics::JsonWriter &W, const Algorithm1Stats &S) {
  W.field("actions", S.Actions);
  W.field("conflict_checks", S.ConflictChecks);
  W.field("object_cache_hits", S.ObjectCacheHits);
  W.field("object_cache_misses", S.ObjectCacheMisses);
  W.field("activations", S.Activations);
  W.field("active_points", S.ActivePoints);
  W.field("kernel_events", S.KernelEvents);
  W.field("prefetches_issued", S.PrefetchesIssued);
  W.fieldArray("lookahead_occupancy", S.LookaheadOccupancy);
  W.field("lookahead_occupancy_max", S.LookaheadOccupancyMax);
}

} // namespace

StreamPipeline::StreamPipeline(PipelineOptions Opts) : Opts(Opts) {
  this->Opts.BatchSize = std::max<size_t>(1, Opts.BatchSize);
  // The one place a shard count is resolved. Algorithm 1 keeps all mutable
  // state per object, so one shard is exactly the sequential detector.
  if (this->Opts.TheBackend == Backend::Parallel) {
    if (this->Opts.Shards == 0)
      this->Opts.Shards = std::thread::hardware_concurrency();
    if (this->Opts.Shards < 2)
      this->Opts.TheBackend = Backend::Sequential;
  }
  switch (this->Opts.TheBackend) {
  case Backend::Sequential:
    Seq = std::make_unique<CommutativityRaceDetector>();
    break;
  case Backend::Parallel:
    Par = std::make_unique<ParallelDetector>(
        this->Opts.Shards, this->Opts.BatchSize, Opts.TraceBatches);
    // Merged races are only counted until setRaceCallback() asks for
    // them; either way none is stored.
    Par->setRaceConsumer({});
    break;
  case Backend::FastTrack:
    FT = std::make_unique<FastTrackDetector>();
    break;
  case Backend::Atomicity:
    Atom = std::make_unique<OnlineAtomicityChecker>();
    break;
  }
}

void StreamPipeline::setDefaultProvider(const AccessPointProvider *Provider) {
  if (Seq)
    Seq->setDefaultProvider(Provider);
  if (Par)
    Par->setDefaultProvider(Provider);
  if (Atom)
    Atom->setDefaultProvider(Provider);
}

void StreamPipeline::bind(ObjectId Obj, const AccessPointProvider *Provider) {
  if (Seq)
    Seq->bind(Obj, Provider);
  if (Par)
    Par->bind(Obj, Provider);
  if (Atom)
    Atom->bind(Obj, Provider);
}

void StreamPipeline::setRaceCallback(
    std::function<void(const CommutativityRace &)> Cb) {
  RaceCallback = std::move(Cb);
  // The parallel merge hands races straight to the callback, batch by
  // batch, so not even a flush's worth of them is ever stored.
  if (Par)
    Par->setRaceConsumer(RaceCallback);
}

void StreamPipeline::drainNewRaces() {
  if (Seq) {
    if (RaceCallback)
      Seq->drainRaces(RaceCallback);
    else
      Seq->drainRaces([](const CommutativityRace &) {});
  }
  if (MemoryRaceCallback) {
    const std::vector<MemoryRace> &All = memoryRaces();
    for (; MemoryRacesSeen < All.size(); ++MemoryRacesSeen)
      MemoryRaceCallback(All[MemoryRacesSeen]);
  }
}

void StreamPipeline::onEvent(const Event &E) {
  ++Events;
  switch (E.kind()) {
  case EventKind::Invoke:
    InvokeEvents.inc();
    break;
  case EventKind::Fork:
  case EventKind::Join:
  case EventKind::Acquire:
  case EventKind::Release:
    SyncEvents.inc();
    break;
  case EventKind::Read:
  case EventKind::Write:
    MemEvents.inc();
    break;
  case EventKind::TxBegin:
  case EventKind::TxEnd:
    TxEvents.inc();
    break;
  }
  if (Seq) {
    Seq->process(E);
    drainNewRaces();
    return;
  }
  if (Par) {
    // Streamed straight into the pipeline — the detector batches
    // internally and copies the action payload, so no Trace is ever
    // materialized here. Races reach the consumer as the batches they
    // belong to finish on every shard.
    Par->processEvent(E);
    return;
  }
  if (FT) {
    FT->process(E);
    drainNewRaces();
    return;
  }
  Atom->process(E);
}

void StreamPipeline::tallyBatchKinds(const EventBatch &B) {
  // Ingress kind tally from the batch's kind bytes — one pass over a
  // dense byte array instead of a per-event switch.
  uint64_t Tally[4] = {0, 0, 0, 0};
  for (uint8_t K : B.Kinds) {
    unsigned Bucket =
        K < SyncKindBound
            ? 1u
            : (K == static_cast<uint8_t>(EventKind::Invoke)
                   ? 0u
                   : (K <= static_cast<uint8_t>(EventKind::Write) ? 2u : 3u));
    ++Tally[Bucket];
  }
  InvokeEvents.add(Tally[0]);
  SyncEvents.add(Tally[1]);
  MemEvents.add(Tally[2]);
  TxEvents.add(Tally[3]);
}

void StreamPipeline::processBatch(EventBatch &B) {
  if (B.empty())
    return;
  Events += B.size();
  if (metrics::Enabled)
    tallyBatchKinds(B);
  if (Par) {
    Par->processBatch(B);
    return;
  }
  if (Seq) {
    // Whole batch through the sequential detector's batched kernel; races
    // surface (and hit the callback) after the batch.
    Seq->processBatch(B);
  } else {
    for (const Event &E : B.Events) {
      if (FT)
        FT->process(E);
      else
        Atom->process(E);
    }
  }
  drainNewRaces();
  B.clear();
}

void StreamPipeline::finish() {
  if (Par)
    Par->flush();
  drainNewRaces();
}

bool StreamPipeline::pumpChunk(WireReader &Reader) {
  // Chunk-at-a-time: the reader stages each chunk (from its decode cache
  // when the payload repeats), and verified-repeat chunks consult the
  // summary table before any event is interpreted.
  std::optional<WireReader::ChunkView> View = Reader.beginChunk();
  if (!View)
    return false;
  if (View->VerifiedRepeat) {
    if (const ChunkSummary *S = MemoTable.find(View->Digest)) {
      if (S->Memoizable && Seq->tryReplayChunk(*S)) {
        Reader.skipChunk();
        ++MemoStats.SummaryHits;
        MemoStats.EventsReplayed += S->Events;
        Events += S->Events;
        if (metrics::Enabled) {
          InvokeEvents.add(S->Invokes);
          MemEvents.add(S->MemEvents);
          TxEvents.add(S->TxEvents);
        }
        drainNewRaces();
        return true;
      }
      if (S->Memoizable)
        ++MemoStats.SummaryFallbacks; // Entry-state footprint moved on.
    }
  }
  EventBatch &B = PumpBatch;
  B.clear();
  size_t N = Reader.finishChunkInto(B);
  if (N == 0)
    return true;
  CommutativityRaceDetector::MemoRecordToken Token = Seq->beginMemoRecord();
  Seq->processBatch(B);
  ++MemoStats.ChunksInterpreted;
  Events += N;
  if (metrics::Enabled)
    tallyBatchKinds(B);
  // Record (or re-record after a fallback) only for verified repeats:
  // a summary keyed by digest alone could be poisoned by a collision.
  // Sync-bearing chunks become sticky negative entries (never
  // memoizable); a sync-free chunk that merely mutated state this time
  // is retried on its next occurrence — repeated payloads often reach a
  // detector fixed point after a warm-up pass.
  if (View->VerifiedRepeat) {
    const ChunkSummary *Existing = MemoTable.find(View->Digest);
    if (!Existing || Existing->Memoizable) {
      ChunkSummary &S = MemoTable.insert(View->Digest);
      if (Seq->finishMemoRecord(Token, B, 0, N, S))
        ++MemoStats.SummaryRecords;
      else if (B.SyncPos.empty())
        MemoTable.erase(View->Digest);
    }
  }
  drainNewRaces();
  return true;
}

void StreamPipeline::pump(EventSource &Source) {
  WireReader *Reader =
      Opts.Memo == MemoMode::Full ? Source.memoReader() : nullptr;
  if (Reader) {
    // The summary loop requires the sequential detector (chunk replay
    // needs exclusive, in-order access to the full detector state); the
    // other backends skip only the decode of repeated chunks.
    Reader->setChunkCache(Seq ? ChunkCache::PayloadIndex
                              : ChunkCache::DecodedBatches);
    if (Seq) {
      while (pumpChunk(*Reader)) {
      }
      return;
    }
  }
  if (Par) {
    // Batched pull: whole event batches flow from the source into the
    // shard pipeline, complete with the per-chunk sync index the decoder
    // emitted (or the SIMD kind-scan built) — the pre-pass jumps straight
    // to the sync events without touching anything per event here. The
    // detector hands back a recycled batch each round, so the loop is
    // allocation-free in the steady state.
    while (size_t N = Source.nextBatch(PumpBatch, Opts.BatchSize)) {
      Events += N;
      if (metrics::Enabled)
        tallyBatchKinds(PumpBatch);
      Par->processBatch(PumpBatch);
    }
    return;
  }
  if (Seq) {
    // Batched pull for the sequential backend too: whole event batches
    // flow into the detector's kinded kernel (one SIMD kind scan per
    // batch, runs through the prefetch-pipelined engine), with the batch
    // recycled each round so the loop is allocation-free in the steady
    // state. Race callbacks fire after each batch.
    while (size_t N = Source.nextBatch(PumpBatch, Opts.BatchSize)) {
      Events += N;
      if (metrics::Enabled)
        tallyBatchKinds(PumpBatch);
      Seq->processBatch(PumpBatch);
      drainNewRaces();
      PumpBatch.clear();
    }
    return;
  }
  Event E = Event::txBegin(ThreadId(0)); // Overwritten by next().
  while (Source.next(E))
    onEvent(E);
}

void StreamPipeline::objectDied(ObjectId Obj) {
  if (Seq)
    Seq->objectDied(Obj);
  if (Par)
    Par->objectDied(Obj);
}

StreamSummary StreamPipeline::run(EventSource &Source) {
  pump(Source);
  finish();
  return summary();
}

const std::vector<MemoryRace> &StreamPipeline::memoryRaces() const {
  static const std::vector<MemoryRace> Empty;
  return FT ? FT->races() : Empty;
}

const std::vector<AtomicityViolation> &StreamPipeline::violations() const {
  static const std::vector<AtomicityViolation> Empty;
  return Atom ? Atom->violations() : Empty;
}

StreamSummary StreamPipeline::summary() const {
  StreamSummary S;
  S.Events = Events;
  if (Seq) {
    S.Races = Seq->raceCount();
    S.DistinctRacyObjects = Seq->distinctRacyObjects();
  }
  if (Par) {
    S.Races = Par->raceCount();
    S.DistinctRacyObjects = Par->distinctRacyObjects();
  }
  S.MemoryRaces = memoryRaces().size();
  if (FT)
    S.DistinctRacyVars = FT->distinctRacyVars();
  S.Violations = violations().size();
  return S;
}

void StreamPipeline::writeMetricsJson(std::ostream &OS,
                                      const EventSource *Source) const {
  metrics::JsonWriter W(OS);
  W.beginObject();
  W.field("metrics_enabled", metrics::Enabled);
  W.field("backend", metricsBackendName(Opts.TheBackend));
  W.field("events", static_cast<uint64_t>(Events));

  W.key("events_by_kind");
  W.beginObject();
  W.field("invoke", InvokeEvents.get());
  W.field("sync", SyncEvents.get());
  W.field("mem", MemEvents.get());
  W.field("tx", TxEvents.get());
  W.endObject();

  StreamSummary Sum = summary();
  W.key("summary");
  W.beginObject();
  W.field("races", static_cast<uint64_t>(Sum.Races));
  W.field("distinct_racy_objects",
          static_cast<uint64_t>(Sum.DistinctRacyObjects));
  W.field("memory_races", static_cast<uint64_t>(Sum.MemoryRaces));
  W.field("distinct_racy_vars", static_cast<uint64_t>(Sum.DistinctRacyVars));
  W.field("violations", static_cast<uint64_t>(Sum.Violations));
  W.endObject();

  W.key("memo");
  W.beginObject();
  W.field("mode", memoModeName(Opts.Memo));
  W.field("summary_hits", MemoStats.SummaryHits);
  W.field("summary_records", MemoStats.SummaryRecords);
  W.field("summary_fallbacks", MemoStats.SummaryFallbacks);
  W.field("events_replayed", MemoStats.EventsReplayed);
  W.field("chunks_interpreted", MemoStats.ChunksInterpreted);
  W.field("summary_entries", static_cast<uint64_t>(MemoTable.size()));
  W.endObject();

  if (const WireReader *Reader = Source ? Source->wireReader() : nullptr) {
    WireReaderStats RS = Reader->stats();
    W.key("source");
    W.beginObject();
    W.field("chunks", RS.Chunks);
    W.field("events", RS.Events);
    W.field("crc_errors", RS.CrcErrors);
    W.field("digest_errors", RS.DigestErrors);
    W.field("payload_bytes", RS.PayloadBytes);
    W.field("symbols", RS.Symbols);
    W.field("arena_peak_bytes", RS.ArenaPeakBytes);
    W.field("memo_hits", RS.MemoHits);
    W.field("memo_misses", RS.MemoMisses);
    W.field("memo_bytes_saved", RS.MemoBytesSaved);
    W.field("memo_cache_entries", RS.MemoCacheEntries);
    W.field("memo_cache_bytes", RS.MemoCacheBytes);
    W.endObject();
  }

  W.key("detector");
  W.beginObject();
  W.field("kind", metricsBackendName(Opts.TheBackend));
  if (Seq) {
    writeEngineStats(W, Seq->engineStats());
    W.field("kernel_ns", Seq->kernelNs());
    W.field("races_held_max", static_cast<uint64_t>(Seq->racesHeldMax()));
  }
  if (Par) {
    ParallelMetrics M = Par->metricsSnapshot();
    W.field("shards", static_cast<uint64_t>(Par->shards()));
    W.field("batch_size", static_cast<uint64_t>(Par->batchSize()));
    W.field("actions", M.Actions);
    W.field("sync_events", M.SyncEvents);
    // The acceptance metric of the run-based pre-pass: the fraction of the
    // trace that stays sequential. prepass_events_visited counts exactly
    // the events the caller thread ran the clock machine on.
    W.field("sync_fraction",
            M.Events ? static_cast<double>(M.SyncEvents) /
                           static_cast<double>(M.Events)
                     : 0.0);
    W.field("prepass_events_visited", M.PrepassEventsVisited);
    W.field("clock_snapshots", M.ClockSnapshots);
    W.field("clock_maps", M.ClockMaps);
    W.field("runs", M.Runs);
    W.fieldArray("run_length_pow2", M.RunLengthPow2);
    W.field("run_length_max", M.RunLengthMax);
    W.field("pre_pass_ns", M.PrePassNs);
    W.field("flush_wait_ns", M.FlushWaitNs);
    W.field("merge_ns", M.MergeNs);
    W.field("batch_spans", static_cast<uint64_t>(M.Spans.size()));
    W.field("prepass_spans", static_cast<uint64_t>(M.PrePassSpans.size()));
    W.key("per_shard");
    W.beginArray();
    for (size_t I = 0; I != M.Shards.size(); ++I) {
      const ParallelShardMetrics &SM = M.Shards[I];
      W.beginObject();
      W.field("shard", static_cast<uint64_t>(I));
      W.field("routed_events", SM.RoutedEvents);
      W.field("batches", SM.Batches);
      W.field("merged_races", SM.MergedRaces);
      W.field("races_held_max", SM.RacesHeldMax);
      W.field("ring_full_stalls", SM.RingFullStalls);
      W.field("stall_ns", SM.StallNs);
      W.field("worker_ns", SM.WorkerNs);
      W.key("engine");
      W.beginObject();
      writeEngineStats(W, SM.Engine);
      W.endObject();
      W.fieldArray("occupancy", SM.Occupancy);
      W.field("occupancy_max", SM.OccupancyMax);
      W.fieldArray("fill_deciles", SM.FillDeciles);
      W.endObject();
    }
    W.endArray();
  }
  if (FT) {
    FastTrackStats FS = FT->stats();
    W.field("reads", FS.Reads);
    W.field("writes", FS.Writes);
    W.field("table_probes", FS.TableProbes);
    W.field("same_epoch_hits", FS.SameEpochHits);
  }
  // The atomicity backend has no counters beyond the summary yet.
  W.endObject();

  W.endObject();
  OS << '\n';
}
