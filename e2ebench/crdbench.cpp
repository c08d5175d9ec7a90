//===- e2ebench/crdbench.cpp - Inputs and layer replay for the e2e bench ---===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled half of the end-to-end benchmark; run.py invokes it.
///
///   crdbench gen <workload> <seed> <dir> [--smoke]
///       Writes the workload's seeded input <dir>/input.crdb with the
///       repository's own generators and WireWriter, a header-only
///       <dir>/header.crdb for set-up timing, the exact stdout `crd check`
///       must print on the input (<dir>/expected.txt, computed by an
///       independent event-at-a-time detector), and <dir>/meta.json with
///       the counts and every generator parameter. Also regenerates the
///       H2 anchor (4 x 4000, seed 2014) in memory and reports its races.
///
///   crdbench layers <dir> <spec-file> <spans.json> <passes>
///       The traced run: replays <dir>/input.crdb through each layer's
///       public API, records one span per call (per batch for the
///       streaming layers), prints the per-layer metrics as one JSON
///       object and writes the spans as a chrome://tracing document.
///
//===----------------------------------------------------------------------===//

#include "detect/CommutativityDetector.h"
#include "hb/VectorClockState.h"
#include "serve/Protocol.h"
#include "serve/Session.h"
#include "spec/Builtins.h"
#include "spec/SpecParser.h"
#include "translate/Translator.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireReader.h"
#include "wire/WireWriter.h"
#include "workloads/PolePosition.h"
#include "workloads/RepetitiveTrace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace crd;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "crdbench: " << Msg << "\n";
  std::exit(2);
}

std::unique_ptr<TranslatedRep> builtinRep() {
  DiagnosticEngine Diags;
  auto Rep = translateSpec(dictionarySpec(), Diags);
  if (!Rep)
    die("builtin dictionary spec does not translate:\n" + Diags.toString());
  return Rep;
}

std::string readWhole(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    die("cannot read '" + Path + "'");
  std::string Bytes(static_cast<size_t>(In.tellg()), '\0');
  In.seekg(0);
  if (!In.read(Bytes.data(), static_cast<std::streamsize>(Bytes.size())))
    die("I/O error reading '" + Path + "'");
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Workload generation
//===----------------------------------------------------------------------===//

/// Every generator parameter of one workload (also written to meta.json).
struct WorkloadParams {
  bool H2 = false;
  CircuitConfig Circuit;         ///< H2 only.
  RepetitiveTraceConfig Rep;     ///< RepetitiveTrace workloads only.
};

WorkloadParams workloadParams(const std::string &Name, uint64_t Seed,
                              bool Smoke) {
  WorkloadParams P;
  if (Name == "check-h2") {
    P.H2 = true;
    P.Circuit.WorkerThreads = 4;
    P.Circuit.QueriesPerWorker = Smoke ? 2000 : 40000;
    P.Circuit.Seed = Seed;
  } else if (Name == "check-memo") {
    P.Rep.Threads = 4;
    P.Rep.DistinctBodies = Smoke ? 16 : 64;
    P.Rep.Repetitions = Smoke ? 4 : 16;
    P.Rep.EventsPerBody = 4096;
    P.Rep.ObjectsPerBody = 4;
    P.Rep.Racy = true;
    P.Rep.SyncEveryBodies = 0;
  } else if (Name == "serve-clean") {
    P.Rep.Threads = 32;
    P.Rep.DistinctBodies = Smoke ? 4 : 16;
    P.Rep.Repetitions = 2;
    P.Rep.EventsPerBody = 4096;
    P.Rep.ObjectsPerBody = 4;
    P.Rep.Racy = false;
    P.Rep.SyncEveryBodies = 1;
  } else {
    die("unknown workload '" + Name + "'");
  }
  return P;
}

/// splitmix64: a portable seeded stream (std::shuffle's result depends on
/// the standard library).
struct SplitMix {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
};

/// Writes, detects and counts every generated event in one pass, so the
/// input is never materialized as a Trace.
class GenSink : public EventSink {
public:
  GenSink(wire::WireWriter &W, CommutativityRaceDetector &D) : W(W), D(D) {}

  void onEvent(const Event &E) override {
    W.append(E);
    D.process(E);
    ++Events;
    Invokes += E.isInvoke();
    Syncs += E.isSync();
  }

  uint64_t Events = 0, Invokes = 0, Syncs = 0;

private:
  wire::WireWriter &W;
  CommutativityRaceDetector &D;
};

/// Records the H2 ComplexConcurrency circuit into \p Sink.
void runH2(const CircuitConfig &C, EventSink &Sink) {
  SimRuntime RT(C.Seed);
  MVStore Store(RT);
  buildCircuit(Circuit::ComplexConcurrency, RT, Store, C);
  RT.run(Sink);
}

/// Emits the RepetitiveTrace with the body chunks of every round in a
/// seeded order. Each chunk's bytes are unchanged (so chunk repetition,
/// and with it memoization, is exactly the generator's); only which
/// distinct body comes first in a round depends on the seed.
void runRepetitive(const RepetitiveTraceConfig &C, uint64_t Seed,
                   EventSink &Sink) {
  const size_t Chunk = C.EventsPerBody;
  const size_t RoundChunks = C.DistinctBodies + (C.SyncEveryBodies ? 1 : 0);
  SplitMix Rng{Seed};
  std::vector<Event> Round;
  size_t Seen = 0;
  auto FlushRound = [&] {
    const size_t Lead = C.SyncEveryBodies ? 1 : 0; // Sync chunk stays first.
    std::vector<size_t> Order(C.DistinctBodies);
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.next() % I]);
    for (size_t I = 0; I != Lead * Chunk; ++I)
      Sink.onEvent(Round[I]);
    for (size_t B : Order)
      for (size_t I = 0; I != Chunk; ++I)
        Sink.onEvent(Round[(Lead + B) * Chunk + I]);
    Round.clear();
  };
  buildRepetitiveTrace(C, [&](const Event &E) {
    if (Seen++ < Chunk) { // The prelude chunk: forks and padding.
      Sink.onEvent(E);
      return;
    }
    Round.push_back(E);
    if (Round.size() == RoundChunks * Chunk)
      FlushRound();
  });
  if (!Round.empty())
    die("repetitive trace did not end on a round boundary");
}

void writeParamsJson(std::ostream &OS, const WorkloadParams &P) {
  if (P.H2) {
    OS << "{\"generator\": \"PolePosition ComplexConcurrency on MVStore\", "
       << "\"worker_threads\": " << P.Circuit.WorkerThreads
       << ", \"queries_per_worker\": " << P.Circuit.QueriesPerWorker
       << ", \"circuit_seed\": " << P.Circuit.Seed
       << ", \"runtime_seed\": " << P.Circuit.Seed
       << ", \"events_per_chunk\": " << wire::DefaultEventsPerChunk
       << ", \"chunk_digests\": true}";
    return;
  }
  const RepetitiveTraceConfig &C = P.Rep;
  OS << "{\"generator\": \"RepetitiveTrace, body order shuffled per round "
        "by seed\", \"threads\": "
     << C.Threads << ", \"distinct_bodies\": " << C.DistinctBodies
     << ", \"repetitions\": " << C.Repetitions
     << ", \"events_per_body\": " << C.EventsPerBody
     << ", \"objects_per_body\": " << C.ObjectsPerBody
     << ", \"racy\": " << (C.Racy ? "true" : "false")
     << ", \"sync_every_bodies\": " << C.SyncEveryBodies
     << ", \"events_per_chunk\": " << C.EventsPerBody
     << ", \"chunk_digests\": true}";
}

int runGen(int Argc, char **Argv) {
  if (Argc < 5)
    die("usage: crdbench gen <workload> <seed> <dir> [--smoke]");
  std::string Name = Argv[2];
  uint64_t Seed = std::strtoull(Argv[3], nullptr, 10);
  std::string Dir = Argv[4];
  bool Smoke = Argc > 5 && std::string(Argv[5]) == "--smoke";
  WorkloadParams P = workloadParams(Name, Seed, Smoke);
  auto Rep = builtinRep();

  // The H2 anchor: the default-scale ComplexConcurrency trace at seed 2014
  // has 10 648 races in every configuration of this repository.
  size_t AnchorRaces = 0;
  {
    CircuitConfig A;
    A.WorkerThreads = 4;
    A.QueriesPerWorker = 4000;
    A.Seed = 2014;
    CommutativityRaceDetector D;
    D.setDefaultProvider(Rep.get());
    DetectorSink<CommutativityRaceDetector> Sink(D);
    runH2(A, Sink);
    AnchorRaces = D.races().size();
  }

  CommutativityRaceDetector D;
  D.setDefaultProvider(Rep.get());
  std::ofstream Input(Dir + "/input.crdb", std::ios::binary);
  if (!Input)
    die("cannot write " + Dir + "/input.crdb");
  size_t Chunk = P.H2 ? wire::DefaultEventsPerChunk : P.Rep.EventsPerBody;
  wire::WireWriter W(Input, Chunk, /*WithDigests=*/true);
  GenSink Sink(W, D);
  if (P.H2)
    runH2(P.Circuit, Sink);
  else
    runRepetitive(P.Rep, Seed, Sink);
  W.finish();
  Input.close();
  if (!Input)
    die("I/O error writing the input");

  {
    std::ofstream Header(Dir + "/header.crdb", std::ios::binary);
    wire::WireWriter HW(Header, Chunk, /*WithDigests=*/true);
    HW.finish();
  }

  // Exactly what `crd check` prints to stdout on the input.
  {
    std::ofstream Expected(Dir + "/expected.txt", std::ios::binary);
    for (const CommutativityRace &R : D.races())
      Expected << "race: " << R << '\n';
    Expected << "events: " << Sink.Events
             << "  commutativity races: " << D.races().size() << " ("
             << D.distinctRacyObjects() << " distinct objects)\n";
    if (!Expected)
      die("I/O error writing expected.txt");
  }

  std::ofstream Meta(Dir + "/meta.json");
  Meta << "{\"workload\": \"" << Name << "\", \"seed\": " << Seed
       << ", \"smoke\": " << (Smoke ? "true" : "false")
       << ", \"events\": " << Sink.Events
       << ", \"invokes\": " << Sink.Invokes << ", \"syncs\": " << Sink.Syncs
       << ", \"bytes\": " << W.bytesWritten()
       << ", \"races\": " << D.races().size()
       << ", \"distinct_racy_objects\": " << D.distinctRacyObjects()
       << ", \"expected_exit\": " << (D.races().empty() ? 0 : 1)
       << ", \"anchor_races\": " << AnchorRaces << ", \"params\": ";
  writeParamsJson(Meta, P);
  Meta << "}\n";
  if (!Meta)
    die("I/O error writing meta.json");
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced layer replay
//===----------------------------------------------------------------------===//

/// One recorded span. Ids are unique within the run; Parent 0 = root.
struct Span {
  const char *Name;
  uint64_t StartNs, EndNs;
  uint32_t Id, Parent;
};

class SpanLog {
public:
  explicit SpanLog(uint32_t RunId) : RunId(RunId) {}

  uint32_t begin(const char *Name, uint32_t Parent) {
    Spans.push_back({Name, nowNs(), 0, ++NextId, Parent});
    return NextId;
  }
  uint64_t end(uint32_t Id) {
    Span &S = Spans[Id - 1];
    S.EndNs = nowNs();
    return S.EndNs - S.StartNs;
  }

  void writeChrome(std::ostream &OS) const {
    uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
    OS << "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":"
          "\"thread_name\",\"args\":{\"name\":\"layer replay\"}}";
    for (const Span &S : Spans) {
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    ",{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"%s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                    "\"parent\":%u,\"run\":%u}}",
                    S.Name, static_cast<double>(S.StartNs - Base) / 1e3,
                    static_cast<double>(S.EndNs - S.StartNs) / 1e3, S.Id,
                    S.Parent, RunId);
      OS << Buf;
    }
    OS << "]}\n";
  }

private:
  uint32_t RunId;
  uint32_t NextId = 0;
  std::vector<Span> Spans;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Writes \p Bytes into a pipe whose far end a thread drains; returns ns.
uint64_t timePipeWrite(const std::string &Bytes) {
  int Fds[2];
  if (::pipe(Fds) != 0)
    die("pipe() failed");
  std::thread Drain([Fd = Fds[0]] {
    char Buf[1 << 16];
    while (::read(Fd, Buf, sizeof(Buf)) > 0) {
    }
  });
  uint64_t T0 = nowNs();
  size_t Off = 0;
  while (Off < Bytes.size()) {
    size_t Len = std::min<size_t>(Bytes.size() - Off, 1 << 16);
    ssize_t N = ::write(Fds[1], Bytes.data() + Off, Len);
    if (N <= 0)
      die("pipe write failed");
    Off += static_cast<size_t>(N);
  }
  uint64_t Ns = nowNs() - T0;
  ::close(Fds[1]);
  Drain.join();
  ::close(Fds[0]);
  return Ns;
}

/// Per-pass layer figures; the reported metric is the median over passes.
struct PassFigures {
  std::map<std::string, double> M;
};

struct Memo {
  double SummaryHitRatio = 0, DecodeHitRatio = 0, Speedup = 0;
};

/// Streams \p Bytes through a StreamPipeline over an in-memory
/// BinaryStreamSource (the source that forwards memoReader/nextBatch).
Memo inProcessMemo(const std::string &Bytes, const TranslatedRep &Rep,
                   SpanLog &Log, uint32_t Parent) {
  auto RunOnce = [&](wire::MemoMode Mode, const char *Name,
                     wire::PipelineMemoStats &Stats,
                     wire::WireReaderStats &RStats) {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    wire::BinaryStreamSource Src(In, Diags);
    wire::PipelineOptions Opts;
    Opts.Memo = Mode;
    wire::StreamPipeline P(Opts);
    P.setDefaultProvider(&Rep);
    uint32_t S = Log.begin(Name, Parent);
    P.run(Src);
    uint64_t Ns = Log.end(S);
    if (Src.failed())
      die("in-process decode failed:\n" + Diags.toString());
    Stats = P.memoStats();
    RStats = Src.reader().stats();
    return Ns;
  };
  wire::PipelineMemoStats Full, Off;
  wire::WireReaderStats FullR, OffR;
  uint64_t OffNs = RunOnce(wire::MemoMode::Off, "memo.inproc_off", Off, OffR);
  uint64_t FullNs =
      RunOnce(wire::MemoMode::Full, "memo.inproc_full", Full, FullR);
  Memo M;
  uint64_t Chunks = Full.SummaryHits + Full.ChunksInterpreted;
  M.SummaryHitRatio = Chunks ? double(Full.SummaryHits) / double(Chunks) : 0;
  uint64_t Lookups = FullR.MemoHits + FullR.MemoMisses;
  M.DecodeHitRatio = Lookups ? double(FullR.MemoHits) / double(Lookups) : 0;
  M.Speedup = FullNs ? double(OffNs) / double(FullNs) : 0;
  return M;
}

PassFigures layerPass(const std::string &Path, const std::string &SpecText,
                      const TranslatedRep &Rep, SpanLog &Log) {
  PassFigures F;
  uint32_t Pass = Log.begin("pass", 0);

  // spec: parse + translate the dictionary spec, many times (~tens of µs).
  {
    std::vector<double> Ms;
    uint32_t S = Log.begin("spec.load", Pass);
    for (int I = 0; I != 200; ++I) {
      uint64_t T0 = nowNs();
      DiagnosticEngine Diags;
      auto Spec = parseObjectSpec(SpecText, Diags);
      if (!Spec)
        die("spec does not parse:\n" + Diags.toString());
      auto R = translateSpec(*Spec, Diags);
      if (!R)
        die("spec does not translate:\n" + Diags.toString());
      Ms.push_back(double(nowNs() - T0) / 1e6);
    }
    Log.end(S);
    F.M["spec.load_ms"] = median(Ms);
  }

  // wire: file into memory.
  std::string Bytes;
  {
    uint32_t S = Log.begin("wire.read", Pass);
    Bytes = readWhole(Path);
    F.M["wire.read_ms"] = double(Log.end(S)) / 1e6;
  }

  // wire: the source `crd check` reads through, pulled in batches as its
  // pipeline pulls them.
  uint64_t Events = 0;
  {
    DiagnosticEngine Diags;
    uint32_t S = Log.begin("wire.next_path", Pass);
    auto Src = wire::openEventSource(Path, Diags);
    if (!Src)
      die("cannot open the input:\n" + Diags.toString());
    EventBatch B;
    while (size_t N = Src->nextBatch(B, 4096)) {
      Events += N;
      B.clear();
    }
    uint64_t Ns = Log.end(S);
    if (Src->failed() || Events == 0)
      die("source decode failed:\n" + Diags.toString());
    F.M["wire.next_ns_per_event"] = double(Ns) / double(Events);
  }

  // One streaming pass: decode (WireReader::nextBatch, memo off), then per
  // batch the sync events through a VectorClockState, every invoke through
  // TranslatedRep::touches, and the batch through the detector's kernel.
  // Each call is a span; the detector never sees the probes' state.
  uint64_t DecodeNs = 0, SyncNs = 0, TouchNs = 0, KernelNs = 0;
  uint64_t Syncs = 0, Invokes = 0, ActiveMax = 0;
  CommutativityRaceDetector D;
  D.setDefaultProvider(&Rep);
  {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    wire::WireReader Reader(In, Diags);
    VectorClockState VCS;
    std::vector<AccessPoint> Points;
    EventBatch B;
    uint32_t Stream = Log.begin("replay", Pass);
    for (;;) {
      uint32_t S = Log.begin("wire.decode", Stream);
      size_t N = Reader.nextBatch(B, 4096);
      DecodeNs += Log.end(S);
      if (N == 0)
        break;
      S = Log.begin("hb.sync", Stream);
      for (uint32_t I : B.SyncPos)
        VCS.process(B.Events[I]);
      SyncNs += Log.end(S);
      Syncs += B.SyncPos.size();
      S = Log.begin("translate.touches", Stream);
      for (const Event &E : B.Events)
        if (E.isInvoke()) {
          Rep.touches(E.action(), Points);
          Points.clear();
          ++Invokes;
        }
      TouchNs += Log.end(S);
      S = Log.begin("detect.kernel", Stream);
      D.processBatch(B);
      KernelNs += Log.end(S);
      ActiveMax = std::max<uint64_t>(ActiveMax, D.activePointCount());
      B.clear();
    }
    Log.end(Stream);
    if (Reader.failed())
      die("batch decode failed:\n" + Diags.toString());
  }
  F.M["wire.decode_ns_per_event"] = double(DecodeNs) / double(Events);
  F.M["wire.decode_ms"] = double(DecodeNs) / 1e6;
  F.M["wire.bytes_per_event"] = double(Bytes.size()) / double(Events);
  F.M["hb.sync_ns_per_sync"] = Syncs ? double(SyncNs) / double(Syncs) : 0;
  F.M["hb.sync_fraction"] = double(Syncs) / double(Events);
  F.M["translate.touches_ns_per_invoke"] =
      Invokes ? double(TouchNs) / double(Invokes) : 0;
  F.M["detect.kernel_ns_per_event"] = double(KernelNs) / double(Events);
  F.M["detect.kernel_ms"] = double(KernelNs) / 1e6;
  F.M["detect.races"] = double(D.races().size());
  F.M["detect.races_per_invoke"] =
      Invokes ? double(D.races().size()) / double(Invokes) : 0;
  F.M["detect.active_points"] = double(ActiveMax);
  F.M["events"] = double(Events);

  // The same decode + kernel loop with no spans: the tracing overhead.
  {
    std::istringstream In(Bytes);
    DiagnosticEngine Diags;
    wire::WireReader Reader(In, Diags);
    CommutativityRaceDetector Plain;
    Plain.setDefaultProvider(&Rep);
    EventBatch B;
    uint32_t S = Log.begin("replay.untraced", Pass);
    while (Reader.nextBatch(B, 4096)) {
      Plain.processBatch(B);
      B.clear();
    }
    uint64_t Ns = Log.end(S);
    F.M["trace.overhead_frac"] =
        Ns ? double(DecodeNs + KernelNs) / double(Ns) - 1.0 : 0;
  }

  // format: race lines as `crd check` prints them, then into a pipe.
  {
    std::ostringstream Out;
    uint32_t S = Log.begin("format.lines", Pass);
    for (const CommutativityRace &R : D.races())
      Out << "race: " << R << '\n';
    uint64_t Ns = Log.end(S);
    std::string Text = Out.str();
    size_t Races = D.races().size();
    F.M["format.ns_per_race"] = Races ? double(Ns) / double(Races) : 0;
    F.M["format.bytes_per_race"] =
        Races ? double(Text.size()) / double(Races) : 0;
    F.M["format.lines_ms"] = double(Ns) / 1e6;
    S = Log.begin("format.write", Pass);
    uint64_t WNs = Text.empty() ? 0 : timePipeWrite(Text);
    Log.end(S);
    F.M["format.write_ms"] = double(WNs) / 1e6;
  }

  // serve: one in-process session, no socket. Frames of 64 KiB, one
  // worker round per frame as the daemon's I/O thread would schedule it.
  {
    std::string Frames = serve::renderHandshake(serve::Handshake()) + "\n";
    std::vector<std::string> Pieces;
    for (size_t Off = 0; Off < Bytes.size(); Off += 1 << 16) {
      std::string Frame;
      size_t Len = std::min<size_t>(Bytes.size() - Off, 1 << 16);
      serve::appendFrameHeader(Frame, serve::FrameType::Wire,
                               static_cast<uint32_t>(Len));
      Frame.append(Bytes, Off, Len);
      Pieces.push_back(std::move(Frame));
    }
    std::string End;
    serve::appendFrameHeader(End, serve::FrameType::End, 0);
    Pieces.push_back(End);
    serve::Session Sess(1, serve::SessionLimits(), &Rep, false);
    std::string Replies;
    uint32_t S = Log.begin("serve.session", Pass);
    Sess.enqueueInput(Frames.data(), Frames.size());
    for (const std::string &P : Pieces) {
      Sess.enqueueInput(P.data(), P.size());
      Sess.runWork();
      Replies += Sess.takeOutput();
    }
    uint64_t Ns = Log.end(S);
    if (!Sess.done() || Replies.find("\"type\":\"summary\"") ==
                            std::string::npos)
      die("in-process serve session did not summarize");
    F.M["serve.session_ns_per_event"] = double(Ns) / double(Events);
  }

  // memo: the in-process route (BinaryStreamSource forwards memoReader and
  // nextBatch), for comparison with the CLI's file source.
  {
    uint32_t S = Log.begin("memo.inproc", Pass);
    Memo M = inProcessMemo(Bytes, Rep, Log, S);
    Log.end(S);
    F.M["detect.memo_summary_hit_ratio"] = M.SummaryHitRatio;
    F.M["wire.memo_hit_ratio_inproc"] = M.DecodeHitRatio;
    F.M["detect.memo_inproc_speedup"] = M.Speedup;
  }
  Log.end(Pass);
  return F;
}

int runLayers(int Argc, char **Argv) {
  if (Argc < 6)
    die("usage: crdbench layers <dir> <spec-file> <spans.json> <passes>");
  std::string Dir = Argv[2];
  std::string SpecText = readWhole(Argv[3]);
  std::string SpansPath = Argv[4];
  int Passes = std::max(1, std::atoi(Argv[5]));
  auto Rep = builtinRep();
  SpanLog Log(static_cast<uint32_t>(::getpid()));
  std::map<std::string, std::vector<double>> All;
  for (int P = 0; P != Passes; ++P)
    for (const auto &[K, V] : layerPass(Dir + "/input.crdb", SpecText, *Rep,
                                        Log)
                                  .M)
      All[K].push_back(V);
  std::ofstream Out(SpansPath);
  Log.writeChrome(Out);
  if (!Out)
    die("I/O error writing " + SpansPath);
  std::cout << "{";
  bool First = true;
  for (const auto &[K, V] : All) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", median(V));
    std::cout << (First ? "" : ", ") << "\"" << K << "\": " << Buf;
    First = false;
  }
  std::cout << "}\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen")
    return runGen(Argc, Argv);
  if (Cmd == "layers")
    return runLayers(Argc, Argv);
  std::cerr << "usage: crdbench gen|layers ... (see the file comment)\n";
  return 2;
}
