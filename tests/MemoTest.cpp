//===- tests/MemoTest.cpp - chunk memoization tests -----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk-memoization contract (docs/trace-format.md "Versioning and
/// the content digest"): digests are stable across writer runs, races are
/// bit-identical under every --memo mode × backend × batch size, a
/// corrupted digest fails like a corrupted CRC, sync churn forces 100%
/// fallback without changing the report, legacy digest-less files still
/// decode, the crd CLI validates --memo end to end and memoizes when it
/// reads a file, and the payload index's on-demand decode of verified
/// repeats keeps counters, diagnostics and races exact.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "detect/Race.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireFormat.h"
#include "wire/WireReader.h"
#include "support/Hashing.h"
#include "wire/Crc32.h"
#include "wire/WireWriter.h"
#include "workloads/RepetitiveTrace.h"
#include "RaceSink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

using namespace crd;
using namespace crd::wire;

namespace {

RepetitiveTraceConfig smallConfig() {
  RepetitiveTraceConfig C;
  C.Threads = 2;
  C.DistinctBodies = 3;
  C.Repetitions = 5;
  C.EventsPerBody = 32;
  C.ObjectsPerBody = 2;
  return C;
}

std::string repetitiveWire(const RepetitiveTraceConfig &C,
                           size_t *EventsOut = nullptr) {
  std::ostringstream OS;
  size_t N = writeRepetitiveTrace(OS, C);
  if (EventsOut)
    *EventsOut = N;
  return OS.str();
}

struct AnalyzeResult {
  StreamSummary Summary;
  std::vector<CommutativityRace> Races;
  PipelineMemoStats Memo;
  WireReaderStats Reader;
};

/// Runs \p Opts over a binary \p Source with the dictionary spec.
AnalyzeResult analyzeSource(EventSource &Source, const DiagnosticEngine &Diags,
                            PipelineOptions Opts) {
  DiagnosticEngine SpecDiags;
  auto Rep = translateSpec(dictionarySpec(), SpecDiags);
  EXPECT_TRUE(Rep) << SpecDiags.toString();
  StreamPipeline P(Opts);
  P.setDefaultProvider(Rep.get());
  AnalyzeResult R;
  testgen::collectRaces(P, R.Races);
  R.Summary = P.run(Source);
  EXPECT_FALSE(Source.failed()) << Diags.toString();
  R.Memo = P.memoStats();
  R.Reader = Source.wireReader()->stats();
  return R;
}

AnalyzeResult analyzeWire(const std::string &Wire, PipelineOptions Opts) {
  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  BinaryStreamSource Source(In, Diags);
  return analyzeSource(Source, Diags, Opts);
}

std::optional<WireFileInfo> scanString(const std::string &Wire) {
  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  return scanWire(In, Diags);
}

/// The integer after the first `"Key": ` in a JSON document (0 if absent).
uint64_t jsonCount(const std::string &Doc, const std::string &Key) {
  size_t At = Doc.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return 0;
  return std::stoull(Doc.substr(At + Key.size() + 4));
}

std::string writeFile(const std::string &Name, const std::string &Bytes) {
  std::string Path = testing::TempDir() + Name;
  std::ofstream OS(Path, std::ios::binary);
  OS << Bytes;
  EXPECT_TRUE(OS.good());
  return Path;
}

void putU32le(std::string &Bytes, size_t At, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Bytes[At + I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

/// Runs \p Opts over the file at \p Path through openEventSource, the way
/// `crd check` reads it.
AnalyzeResult analyzeFile(const std::string &Path, PipelineOptions Opts) {
  DiagnosticEngine Diags;
  std::unique_ptr<EventSource> Source = openEventSource(Path, Diags);
  EXPECT_TRUE(Source && Source->wireReader()) << Diags.toString();
  if (!Source || !Source->wireReader())
    return AnalyzeResult{};
  return analyzeSource(*Source, Diags, Opts);
}

/// Drains a reader with next(); returns the diagnostics.
std::string drainDiagnostics(const std::string &Wire, ChunkCache Cache,
                             WireReaderStats *Stats) {
  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  WireReader Reader(In, Diags);
  Reader.setChunkCache(Cache);
  Event E = Event::txBegin(ThreadId(0));
  while (Reader.next(E))
    ;
  EXPECT_TRUE(Reader.failed());
  *Stats = Reader.stats();
  return Diags.toString();
}

} // namespace

// Two independent writer runs over the same logical events must produce
// byte-identical files and, per chunk, identical header digests — the
// property every cache in the memo stack keys on.
TEST(MemoTest, DigestStableAcrossWriterRuns) {
  RepetitiveTraceConfig C = smallConfig();
  std::string A = repetitiveWire(C), B = repetitiveWire(C);
  EXPECT_EQ(A, B);

  auto Info = scanString(A);
  ASSERT_TRUE(Info);
  size_t ExpectChunks = 1 + size_t(C.DistinctBodies) * C.Repetitions;
  ASSERT_EQ(Info->Chunks.size(), ExpectChunks);

  std::map<uint64_t, size_t> Counts;
  for (const WireChunkInfo &Ch : Info->Chunks) {
    EXPECT_TRUE(Ch.DigestInHeader);
    ++Counts[Ch.Digest];
  }
  // Prelude is unique; every body's digest recurs once per repetition.
  EXPECT_EQ(Counts.size(), 1 + size_t(C.DistinctBodies));
  size_t Repeated = 0;
  for (const auto &KV : Counts)
    Repeated += KV.second == C.Repetitions;
  EXPECT_EQ(Repeated, size_t(C.DistinctBodies));
}

// Races must be bit-identical (full struct equality, clocks included)
// across every memo mode, backend, and batch size; the layers that are
// supposed to engage must actually engage.
TEST(MemoTest, RacesBitIdenticalAcrossModesAndBackends) {
  size_t Events = 0;
  std::string Wire = repetitiveWire(smallConfig(), &Events);

  PipelineOptions SeqOff;
  AnalyzeResult Baseline = analyzeWire(Wire, SeqOff);
  ASSERT_EQ(Baseline.Summary.Events, Events);
  ASSERT_GT(Baseline.Races.size(), 0u);
  EXPECT_EQ(Baseline.Reader.MemoHits, 0u);
  EXPECT_EQ(Baseline.Reader.MemoCacheEntries, 0u);

  for (MemoMode Memo : {MemoMode::Off, MemoMode::Full}) {
    for (Backend B : {Backend::Sequential, Backend::Parallel}) {
      for (size_t Batch : {size_t(3), size_t(4096)}) {
        if (B == Backend::Sequential && Batch != 4096)
          continue; // Batch size only affects the parallel backend.
        PipelineOptions Opts;
        Opts.TheBackend = B;
        Opts.Shards = 2;
        Opts.BatchSize = Batch;
        Opts.Memo = Memo;
        AnalyzeResult R = analyzeWire(Wire, Opts);
        SCOPED_TRACE(testing::Message()
                     << "memo=" << int(Memo) << " backend=" << int(B)
                     << " batch=" << Batch);
        EXPECT_EQ(R.Summary.Events, Events);
        EXPECT_TRUE(R.Races == Baseline.Races);

        if (Memo == MemoMode::Off) {
          EXPECT_EQ(R.Reader.MemoHits, 0u);
        } else {
          // The chunk cache verifies every repeated body chunk and skips
          // its decode (summary replay or decoded-batch cache).
          EXPECT_GT(R.Reader.MemoHits, 0u);
          EXPECT_GT(R.Reader.MemoBytesSaved, 0u);
          EXPECT_GT(R.Reader.MemoCacheEntries, 0u);
        }
        if (Memo == MemoMode::Full && B == Backend::Sequential) {
          EXPECT_GT(R.Memo.SummaryHits, 0u);
          EXPECT_GT(R.Memo.SummaryRecords, 0u);
          EXPECT_GT(R.Memo.EventsReplayed, 0u);
        } else {
          // The parallel backend memoizes chunk decodes only.
          EXPECT_EQ(R.Memo.SummaryHits, 0u);
          EXPECT_EQ(R.Memo.EventsReplayed, 0u);
        }
      }
    }
  }
}

// A corrupted digest byte must fail the file exactly like a corrupted
// payload fails the CRC: hard error, counted, diagnosed with the offset.
TEST(MemoTest, CorruptedDigestRejectedLikeCrc) {
  std::string Wire = repetitiveWire(smallConfig());

  // Flip a byte inside the first chunk header's digest field
  // (size u32 + crc u32 + digest u64 — see trace-format.md).
  std::string BadDigest = Wire;
  BadDigest[FileHeaderSize + 12] ^= 0x5a;
  {
    std::istringstream In(BadDigest);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    while (Reader.next(E))
      ;
    EXPECT_TRUE(Reader.failed());
    EXPECT_EQ(Reader.stats().DigestErrors, 1u);
    EXPECT_EQ(Reader.stats().CrcErrors, 0u);
    EXPECT_NE(Diags.toString().find("chunk digest mismatch"),
              std::string::npos)
        << Diags.toString();
  }

  // Control: a payload flip is a CRC error (checked before the digest).
  std::string BadPayload = Wire;
  BadPayload[FileHeaderSize + DigestChunkHeaderSize + 3] ^= 0x5a;
  {
    std::istringstream In(BadPayload);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    Event E = Event::txBegin(ThreadId(0));
    while (Reader.next(E))
      ;
    EXPECT_TRUE(Reader.failed());
    EXPECT_EQ(Reader.stats().CrcErrors, 1u);
    EXPECT_EQ(Reader.stats().DigestErrors, 0u);
  }
}

// Adversarial shape: lock churn before every body round bumps the
// worker clocks, so no body occurrence ever sees matching entry state.
// The summary layer must fall back to interpretation on 100% of chunks
// — zero replays, zero recorded summaries that survive — while the
// decode cache still hits and the report stays bit-identical.
TEST(MemoTest, SyncChurnForcesFullFallback) {
  RepetitiveTraceConfig C = smallConfig();
  C.SyncEveryBodies = 1;
  size_t Events = 0;
  std::string Wire = repetitiveWire(C, &Events);

  AnalyzeResult Off = analyzeWire(Wire, PipelineOptions{});
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeWire(Wire, FullOpts);

  EXPECT_EQ(Full.Summary.Events, Events);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_GT(Full.Races.size(), 0u);
  EXPECT_EQ(Full.Memo.SummaryHits, 0u);
  EXPECT_EQ(Full.Memo.EventsReplayed, 0u);
  EXPECT_GT(Full.Memo.ChunksInterpreted, 0u);
  EXPECT_GT(Full.Reader.MemoHits, 0u); // Decode cache is version-blind.
}

// A digest-less (legacy) file must still decode with memoization
// requested — the caches simply never engage — and scanWire must compute
// the same digests the writer would have recorded.
TEST(MemoTest, LegacyDigestlessFileStillWorks) {
  RepetitiveTraceConfig C = smallConfig();
  std::string WithDigests = repetitiveWire(C);

  std::ostringstream OS;
  {
    WireWriter Writer(OS, C.EventsPerBody, /*WithDigests=*/false);
    buildRepetitiveTrace(C, [&](const Event &E) { Writer.append(E); });
  }
  std::string Legacy = OS.str();
  ASSERT_LT(Legacy.size(), WithDigests.size()); // 8 bytes saved per chunk.

  auto LegacyInfo = scanString(Legacy);
  auto DigestInfo = scanString(WithDigests);
  ASSERT_TRUE(LegacyInfo);
  ASSERT_TRUE(DigestInfo);
  ASSERT_EQ(LegacyInfo->Chunks.size(), DigestInfo->Chunks.size());
  for (size_t I = 0; I != LegacyInfo->Chunks.size(); ++I) {
    EXPECT_FALSE(LegacyInfo->Chunks[I].DigestInHeader);
    EXPECT_TRUE(DigestInfo->Chunks[I].DigestInHeader);
    // The scan computes what the writer would have stamped.
    EXPECT_EQ(LegacyInfo->Chunks[I].Digest, DigestInfo->Chunks[I].Digest);
  }

  AnalyzeResult Off = analyzeWire(WithDigests, PipelineOptions{});
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeWire(Legacy, FullOpts);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_EQ(Full.Reader.MemoHits, 0u);
  EXPECT_EQ(Full.Memo.SummaryHits, 0u);
  EXPECT_GT(Full.Memo.ChunksInterpreted, 0u);
}

// CLI surface: --memo validation, the stats repetition line, profile's
// memo JSON, and the live-source rejection naming the --memo constraint.
TEST(MemoTest, CliMemoSurface) {
  std::string Path = testing::TempDir() + "memo_cli_test.crdb";
  {
    std::ofstream OS(Path, std::ios::binary);
    ASSERT_TRUE(OS.good());
    writeRepetitiveTrace(OS, smallConfig());
  }

  for (const char *Verb : {"check", "profile", "analyze", "bench"})
    for (const char *Mode : {"bogus", "decode"}) {
      std::ostringstream Out, Err;
      int RC =
          cli::crdMain({Verb, Path, std::string("--memo=") + Mode}, Out, Err);
      SCOPED_TRACE(testing::Message() << Verb << " --memo=" << Mode);
      EXPECT_EQ(RC, 2);
      EXPECT_NE(Err.str().find(std::string("unknown --memo mode '") + Mode +
                               "'"),
                std::string::npos)
          << Err.str();
      EXPECT_NE(Err.str().find("(accepted: off, full)"), std::string::npos)
          << Err.str();
    }

  {
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"profile", "--source=live", Path}, Out, Err);
    EXPECT_EQ(RC, 2);
    EXPECT_NE(Err.str().find("crd record --stress"), std::string::npos)
        << Err.str();
    EXPECT_NE(Err.str().find("--memo"), std::string::npos) << Err.str();
  }

  {
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"stats", Path}, Out, Err);
    EXPECT_EQ(RC, 0) << Err.str();
    EXPECT_NE(Out.str().find("chunk repetition:"), std::string::npos)
        << Out.str();
    EXPECT_NE(Out.str().find("distinct digests"), std::string::npos);
  }

  {
    // Reading the file must actually memoize: the decode cache verifies
    // repeats and the summary layer replays some of them.
    std::ostringstream Out, Err;
    int RC = cli::crdMain({"profile", Path, "--memo=full"}, Out, Err);
    EXPECT_EQ(RC, 0) << Err.str();
    EXPECT_NE(Out.str().find("\"mode\": \"full\""), std::string::npos)
        << Out.str();
    EXPECT_GT(jsonCount(Out.str(), "summary_hits"), 0u) << Out.str();
    EXPECT_GT(jsonCount(Out.str(), "memo_hits"), 0u) << Out.str();
  }

  {
    // The trace is racy, so check exits 1 under every memo mode and
    // backend with the same report line.
    std::vector<std::string> Reports;
    for (const char *Mode : {"off", "full"})
      for (const char *Detector : {"seq", "parallel"}) {
        std::ostringstream Out, Err;
        int RC = cli::crdMain({"check", Path, std::string("--memo=") + Mode,
                               std::string("--detector=") + Detector,
                               "--shards=2"},
                              Out, Err);
        EXPECT_EQ(RC, 1) << Err.str();
        Reports.push_back(Out.str());
      }
    for (const std::string &R : Reports)
      EXPECT_EQ(R, Reports[0]);
  }
}

//===----------------------------------------------------------------------===//
// ChunkCache::PayloadIndex decodes a verified repeat only on demand. These
// pin the
// edges of that: fallback from a file, counters under interleaved
// skip/finish, a forged repeat, and empty chunks.
//===----------------------------------------------------------------------===//

// The SyncEveryBodies adversary read from a file: every verified repeat
// falls back to interpretation (decoded on demand), and the races equal
// memo=off bit for bit, in-process and through the CLI.
TEST(MemoTest, FileFallbackDecodesOnDemand) {
  RepetitiveTraceConfig C = smallConfig();
  C.SyncEveryBodies = 1;
  size_t Events = 0;
  std::string Path = writeFile("memo_fallback.crdb", repetitiveWire(C, &Events));

  AnalyzeResult Off = analyzeFile(Path, PipelineOptions{});
  PipelineOptions FullOpts;
  FullOpts.Memo = MemoMode::Full;
  AnalyzeResult Full = analyzeFile(Path, FullOpts);
  EXPECT_EQ(Full.Summary.Events, Events);
  EXPECT_GT(Full.Races.size(), 0u);
  EXPECT_TRUE(Full.Races == Off.Races);
  EXPECT_EQ(Full.Memo.SummaryHits, 0u);
  EXPECT_GT(Full.Reader.MemoHits, 0u);
  // Nothing was replayed, so every hit was decoded after all.
  EXPECT_EQ(Full.Reader.MemoBytesSaved, 0u);
  EXPECT_EQ(Full.Reader.Events, Events);

  std::string Reports[2];
  const char *Modes[2] = {"--memo=off", "--memo=full"};
  for (int I = 0; I != 2; ++I) {
    std::ostringstream Out, Err;
    EXPECT_EQ(cli::crdMain({"check", Path, Modes[I]}, Out, Err), 1)
        << Err.str();
    Reports[I] = Out.str();
  }
  EXPECT_EQ(Reports[0], Reports[1]);
  std::remove(Path.c_str());
}

// skipChunk (undecoded), finishChunkInto (decoded on demand) and partial
// next() pulls, interleaved: event and chunk counters stay exact, and what
// is handed out matches a plain decode at those positions (kinds, threads,
// sync index).
TEST(MemoTest, InterleavedSkipAndFinishKeepCountsExact) {
  size_t Events = 0;
  std::string Wire = repetitiveWire(smallConfig(), &Events);
  auto Info = scanString(Wire);
  ASSERT_TRUE(Info);

  std::istringstream PlainIn(Wire);
  DiagnosticEngine PlainDiags;
  WireReader PlainReader(PlainIn, PlainDiags);
  EventBatch PlainBatch;
  while (PlainReader.nextBatch(PlainBatch, 4096)) {
  }
  ASSERT_EQ(PlainBatch.size(), Events);

  std::istringstream In(Wire);
  DiagnosticEngine Diags;
  WireReader Reader(In, Diags);
  Reader.setChunkCache(ChunkCache::PayloadIndex);
  size_t Pos = 0, Chunk = 0, Skipped = 0, Finished = 0;
  while (std::optional<WireReader::ChunkView> View = Reader.beginChunk()) {
    ASSERT_EQ(View->Events, Info->Chunks[Chunk].Events);
    size_t Begin = Pos;
    switch (Chunk++ % 4) {
    case 0: // Skip outright (undecoded when it is a repeat).
      Reader.skipChunk();
      ++Skipped;
      break;
    case 1: { // Finish whole.
      EventBatch B;
      ASSERT_EQ(Reader.finishChunkInto(B), View->Events);
      for (size_t I = 0; I != B.size(); ++I)
        EXPECT_EQ(B.Kinds[I], PlainBatch.Kinds[Begin + I]);
      ++Finished;
      break;
    }
    case 2: { // One event by next(), then finish the rest.
      Event E = Event::txBegin(ThreadId(0));
      ASSERT_TRUE(Reader.next(E));
      EXPECT_EQ(E.kind(), PlainBatch.Events[Begin].kind());
      EventBatch B;
      ASSERT_EQ(Reader.finishChunkInto(B), View->Events - 1);
      EXPECT_EQ(B.SyncPos.size() + (E.kind() < EventKind::Invoke),
                std::count_if(PlainBatch.Kinds.begin() + Begin,
                              PlainBatch.Kinds.begin() + Begin + View->Events,
                              [](uint8_t K) { return K < SyncKindBound; }));
      ++Finished;
      break;
    }
    case 3: { // One event by next(), then skip the rest.
      Event E = Event::txBegin(ThreadId(0));
      ASSERT_TRUE(Reader.next(E));
      EXPECT_EQ(E.thread(), PlainBatch.Events[Begin].thread());
      Reader.skipChunk();
      ++Skipped;
      break;
    }
    }
    Pos += View->Events;
    EXPECT_EQ(Reader.eventsRead(), Pos);
  }
  EXPECT_FALSE(Reader.failed()) << Diags.toString();
  EXPECT_GT(Skipped, 0u);
  EXPECT_GT(Finished, 0u);
  EXPECT_EQ(Pos, Events);
  EXPECT_EQ(Reader.eventsRead(), Events);
  WireReaderStats S = Reader.stats();
  EXPECT_EQ(S.Events, Events);
  EXPECT_EQ(S.Chunks, Info->Chunks.size());
  EXPECT_EQ(S.MemoHits + S.MemoMisses, Info->Chunks.size());
  EXPECT_GT(S.MemoHits, 0u);
  EXPECT_GT(S.MemoBytesSaved, 0u);
  // The payload index holds payloads only.
  size_t DistinctPayloads = 0;
  std::set<uint64_t> Digests;
  for (const WireChunkInfo &Ch : Info->Chunks)
    if (Digests.insert(Ch.Digest).second)
      DistinctPayloads += Ch.PayloadBytes;
  EXPECT_EQ(S.MemoCacheEntries, Digests.size());
  EXPECT_EQ(S.MemoCacheBytes, DistinctPayloads);
}

// A repeat whose header digest matches a cached chunk but whose payload
// differs in one byte (CRC recomputed so it passes) fails the payload
// compare, takes the cold path, and is diagnosed exactly as without memo.
TEST(MemoTest, ForgedRepeatTakesColdPath) {
  std::string Wire = repetitiveWire(smallConfig());
  auto Info = scanString(Wire);
  ASSERT_TRUE(Info);
  std::set<uint64_t> Seen;
  const WireChunkInfo *Repeat = nullptr;
  for (const WireChunkInfo &Ch : Info->Chunks)
    if (!Seen.insert(Ch.Digest).second) {
      Repeat = &Ch;
      break;
    }
  ASSERT_TRUE(Repeat);
  size_t PayloadAt = Repeat->Offset + DigestChunkHeaderSize;
  Wire[PayloadAt + Repeat->PayloadBytes - 1] ^= 0x01; // An event byte.
  putU32le(Wire, Repeat->Offset + 4,
           crc32(Wire.data() + PayloadAt, Repeat->PayloadBytes));

  WireReaderStats OffStats, FullStats, DecodeStats;
  std::string OffDiag = drainDiagnostics(Wire, ChunkCache::Off, &OffStats);
  std::string FullDiag =
      drainDiagnostics(Wire, ChunkCache::PayloadIndex, &FullStats);
  std::string DecodeDiag =
      drainDiagnostics(Wire, ChunkCache::DecodedBatches, &DecodeStats);
  EXPECT_NE(OffDiag.find("chunk digest mismatch"), std::string::npos)
      << OffDiag;
  EXPECT_EQ(FullDiag, OffDiag);
  EXPECT_EQ(DecodeDiag, OffDiag);
  for (const WireReaderStats *S : {&OffStats, &FullStats, &DecodeStats}) {
    EXPECT_EQ(S->DigestErrors, 1u);
    EXPECT_EQ(S->CrcErrors, 0u);
  }
}

// Zero-event chunks (a first occurrence and a verified repeat) decode in
// every mode without disturbing events, counters or races.
TEST(MemoTest, ZeroEventChunksInEveryMode) {
  size_t Events = 0;
  std::string Wire = repetitiveWire(smallConfig(), &Events);
  auto Info = scanString(Wire);
  ASSERT_TRUE(Info);
  ASSERT_GE(Info->Chunks.size(), 3u);

  // Payload: event count 0, symbol count 0; no event bytes.
  std::string Payload("\0\0", 2);
  uint64_t Digest = hashBytes64(Payload.data() + Payload.size(), 0);
  std::string Empty(DigestChunkHeaderSize, '\0');
  putU32le(Empty, 0, static_cast<uint32_t>(Payload.size()));
  putU32le(Empty, 4, crc32(Payload.data(), Payload.size()));
  for (unsigned I = 0; I != 8; ++I)
    Empty[8 + I] = static_cast<char>((Digest >> (8 * I)) & 0xff);
  Empty += Payload;

  // One after the prelude, one before the last chunk, one at the end.
  std::string Padded = Wire;
  Padded.insert(Info->Chunks.back().Offset, Empty);
  Padded.insert(Info->Chunks[1].Offset, Empty);
  Padded += Empty;

  AnalyzeResult Baseline = analyzeWire(Wire, PipelineOptions{});
  for (MemoMode Memo : {MemoMode::Off, MemoMode::Full})
    for (Backend B : {Backend::Sequential, Backend::Parallel}) {
      SCOPED_TRACE(testing::Message()
                   << "memo=" << int(Memo) << " backend=" << int(B));
      PipelineOptions Opts;
      Opts.TheBackend = B;
      Opts.Shards = 2;
      Opts.Memo = Memo;
      AnalyzeResult R = analyzeWire(Padded, Opts);
      EXPECT_EQ(R.Summary.Events, Events);
      EXPECT_EQ(R.Reader.Events, Events);
      EXPECT_EQ(R.Reader.Chunks, Info->Chunks.size() + 3);
      EXPECT_TRUE(R.Races == Baseline.Races);
    }

  for (ChunkCache Cache : {ChunkCache::Off, ChunkCache::DecodedBatches,
                           ChunkCache::PayloadIndex}) {
    SCOPED_TRACE(testing::Message() << "cache=" << int(Cache));
    std::istringstream In(Padded);
    DiagnosticEngine Diags;
    WireReader Reader(In, Diags);
    Reader.setChunkCache(Cache);
    Event E = Event::txBegin(ThreadId(0));
    size_t N = 0;
    while (Reader.next(E))
      ++N;
    EXPECT_FALSE(Reader.failed()) << Diags.toString();
    EXPECT_EQ(N, Events);
  }
}
