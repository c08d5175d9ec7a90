//===- tests/RaceFormatTest.cpp - The race report format ------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The printed form of values, actions, clocks and races is part of the
/// tool's output contract. The golden cases compare the append* helpers,
/// the stream operators and toString() against fixed strings (never
/// strings produced by the code under test), covering every value kind
/// and escape, action shapes, clocks, and all race kinds. The `crd check`
/// cases then pin the block-buffered race output: a trace whose race
/// lines span several blocks prints every line in order before the
/// summary, also when the trace is truncated mid-stream.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "RaceSink.h"
#include "TraceGen.h"
#include "detect/Race.h"
#include "spec/Builtins.h"
#include "translate/Translator.h"
#include "wire/EventSource.h"
#include "wire/StreamPipeline.h"
#include "wire/WireWriter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

using namespace crd;

namespace {

/// toString(), operator<< and the append helper must all give \p Want;
/// appending must keep what the buffer already holds.
template <typename T, typename AppendFn>
void expectSpelling(const T &X, AppendFn Append, const std::string &Want) {
  std::string Buf = "#";
  Append(Buf, X);
  EXPECT_EQ(Buf, "#" + Want);
  std::ostringstream OS;
  OS << X;
  EXPECT_EQ(OS.str(), Want);
  EXPECT_EQ(X.toString(), Want);
}

void expectValue(const Value &V, const std::string &Want) {
  expectSpelling(V, [](std::string &B, const Value &X) { appendValue(B, X); },
                 Want);
}

void expectAction(const Action &A, const std::string &Want) {
  expectSpelling(A,
                 [](std::string &B, const Action &X) { appendAction(B, X); },
                 Want);
}

void expectClock(const VectorClock &C, const std::string &Want) {
  expectSpelling(
      C, [](std::string &B, const VectorClock &X) { appendVectorClock(B, X); },
      Want);
}

template <typename RaceT> void expectRace(const RaceT &R, const std::string &Want) {
  expectSpelling(R, [](std::string &B, const RaceT &X) { appendRace(B, X); },
                 Want);
}

} // namespace

TEST(RaceFormatTest, Values) {
  expectValue(Value::nil(), "nil");
  expectValue(Value::boolean(true), "true");
  expectValue(Value::boolean(false), "false");
  expectValue(Value::integer(0), "0");
  expectValue(Value::integer(-42), "-42");
  expectValue(Value::integer(INT64_MIN), "-9223372036854775808");
  expectValue(Value::integer(INT64_MAX), "9223372036854775807");
  expectValue(Value::string("a.com"), "\"a.com\"");
  expectValue(Value::string(""), "\"\"");
  expectValue(Value::string("a\nb\tc\"d\\e"), "\"a\\nb\\tc\\\"d\\\\e\"");
}

TEST(RaceFormatTest, Actions) {
  expectAction(Action(ObjectId(3), symbol("size"), {}, Value::integer(5)),
               "o3.size()/5");
  expectAction(
      Action(ObjectId(0), symbol("clear"), {}, std::vector<Value>{}),
      "o0.clear()");
  expectAction(Action(ObjectId(1), symbol("pop"), {},
                      std::vector<Value>{Value::integer(1), Value::nil(),
                                         Value::string("x")}),
               "o1.pop()/1/nil/\"x\"");
  // Five values: past the inline capacity, so the heap-backed layout.
  expectAction(Action(ObjectId(2), symbol("m"),
                      {Value::integer(1), Value::boolean(false),
                       Value::integer(-3)},
                      std::vector<Value>{Value::integer(4),
                                         Value::string("t\\")}),
               "o2.m(1, false, -3)/4/\"t\\\\\"");
}

TEST(RaceFormatTest, Clocks) {
  expectClock(VectorClock(), "<>");
  expectClock(VectorClock({1, 0, 3}), "<1,0,3>");
  expectClock(VectorClock({0, 7, 0, 0}), "<0,7>"); // Trailing zeros dropped.
  expectClock(VectorClock({4294967295u}), "<4294967295>");
}

TEST(RaceFormatTest, CommutativityRaces) {
  CommutativityRace Fig3;
  Fig3.EventIndex = 3;
  Fig3.Thread = ThreadId(1);
  Fig3.Current = Action(ObjectId(1), symbol("put"),
                        {Value::string("a.com"), Value::integer(200)},
                        Value::integer(100));
  Fig3.PointName = "put{!(x2 == x3),!(nil == x2),!(nil == x3)}:1";
  Fig3.PriorClock = VectorClock({0, 0, 1});
  Fig3.CurrentClock = VectorClock({1, 1});
  expectRace(Fig3, "commutativity race at event 3: T1 performs "
                   "o1.put(\"a.com\", 200)/100 conflicting on "
                   "put{!(x2 == x3),!(nil == x2),!(nil == x3)}:1 "
                   "(prior <0,0,1> || current <1,1>)");

  CommutativityRace Edge;
  Edge.EventIndex = SIZE_MAX;
  Edge.Thread = ThreadId(12);
  Edge.Current = Action(ObjectId(7), symbol("put"),
                        {Value::string("k\"1\n"), Value::integer(INT64_MIN)},
                        Value::nil());
  Edge.PointName = "put{!(x2 == x3)}:1";
  Edge.CurrentClock = VectorClock({2, 0, 5}); // PriorClock stays ⊥.
  expectRace(Edge, "commutativity race at event 18446744073709551615: T12 "
                   "performs o7.put(\"k\\\"1\\n\", -9223372036854775808)/nil "
                   "conflicting on put{!(x2 == x3)}:1 "
                   "(prior <> || current <2,0,5>)");
}

TEST(RaceFormatTest, MemoryRaces) {
  MemoryRace M;
  M.EventIndex = 9;
  M.Var = VarId(3);
  M.PriorThread = ThreadId(1);
  M.CurrentThread = ThreadId(2);
  M.Access = MemoryRace::Kind::WriteWrite;
  expectRace(M, "write-write race at event 9 on V3 between T1 and T2");
  M.Access = MemoryRace::Kind::WriteRead;
  expectRace(M, "write-read race at event 9 on V3 between T1 and T2");
  M.Access = MemoryRace::Kind::ReadWrite;
  expectRace(M, "read-write race at event 9 on V3 between T1 and T2");
}

//===----------------------------------------------------------------------===//
// crd check: block-buffered race output
//===----------------------------------------------------------------------===//

namespace {

/// The race line as the stream printer spelled it, field by field, kept
/// here as an oracle independent of appendRace. Covers the value kinds
/// the generated trace holds (nil and integers).
std::string seedLine(const CommutativityRace &R) {
  auto Val = [](std::ostream &OS, const Value &V) {
    if (V.isNil())
      OS << "nil";
    else
      OS << V.asInt();
  };
  auto Clock = [](std::ostream &OS, const VectorClock &C) {
    OS << '<';
    for (size_t I = 0; I != C.size(); ++I)
      OS << (I ? "," : "") << C.get(ThreadId(static_cast<uint32_t>(I)));
    OS << '>';
  };
  std::ostringstream OS;
  OS << "race: commutativity race at event " << R.EventIndex << ": T"
     << R.Thread.index() << " performs o" << R.Current.object().index()
     << '.' << R.Current.method().str() << '(';
  for (size_t I = 0; I != R.Current.args().size(); ++I) {
    if (I)
      OS << ", ";
    Val(OS, R.Current.args()[I]);
  }
  OS << ')';
  for (const Value &Ret : R.Current.rets()) {
    OS << '/';
    Val(OS, Ret);
  }
  OS << " conflicting on " << R.PointName << " (prior ";
  Clock(OS, R.PriorClock);
  OS << " || current ";
  Clock(OS, R.CurrentClock);
  OS << ")\n";
  return OS.str();
}

/// A string buffer that counts the large writes it receives: the blocks
/// `crd check` hands over, as opposed to per-race insertions.
class BlockCountingBuf : public std::stringbuf {
public:
  size_t Blocks = 0;

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    if (N >= 4096)
      ++Blocks;
    return std::stringbuf::xsputn(S, N);
  }
};

struct CheckRun {
  int Exit = 0;
  std::string Out, Err;
  size_t Blocks = 0;
};

CheckRun runCheck(const std::string &Path) {
  BlockCountingBuf Buf;
  std::ostream Out(&Buf);
  std::ostringstream Err;
  CheckRun R;
  R.Exit = cli::crdMain({"check", Path}, Out, Err);
  R.Out = Buf.str();
  R.Err = Err.str();
  R.Blocks = Buf.Blocks;
  return R;
}

struct Reference {
  std::vector<CommutativityRace> Races;
  wire::StreamSummary Summary;
  bool Failed = false;
};

/// The races and summary the streaming pipeline finds in the file at
/// \p Path with the default dictionary spec, as `crd check` runs it.
Reference reference(const std::string &Path) {
  DiagnosticEngine SpecDiags;
  auto Rep = translateSpec(dictionarySpec(), SpecDiags);
  EXPECT_TRUE(Rep) << SpecDiags.toString();
  DiagnosticEngine Diags;
  auto Source = wire::openEventSource(Path, Diags);
  EXPECT_TRUE(Source) << Diags.toString();
  Reference Ref;
  if (!Source || !Rep)
    return Ref;
  wire::StreamPipeline Pipeline{wire::PipelineOptions()};
  Pipeline.setDefaultProvider(Rep.get());
  testgen::collectRaces(Pipeline, Ref.Races);
  Ref.Summary = Pipeline.run(*Source);
  Ref.Failed = Source->failed();
  return Ref;
}

std::string summaryLine(const wire::StreamSummary &S) {
  return "events: " + std::to_string(S.Events) +
         "  commutativity races: " + std::to_string(S.Races) + " (" +
         std::to_string(S.DistinctRacyObjects) + " distinct objects)\n";
}

std::string writeFile(const std::string &Name, const std::string &Bytes) {
  std::string Path = testing::TempDir() + Name;
  std::ofstream OS(Path, std::ios::binary);
  OS << Bytes;
  EXPECT_TRUE(OS.good());
  return Path;
}

/// A racy random trace in the binary format, in small chunks so a
/// truncation lands mid-stream with whole chunks before it.
std::string racyWire() {
  Trace T = testgen::randomTrace(/*Seed=*/1402, /*Workers=*/4,
                                 /*OpsPerWorker=*/600, /*Keys=*/4,
                                 /*Maps=*/1);
  std::ostringstream OS;
  wire::WireWriter Writer(OS, /*EventsPerChunk=*/128);
  Writer.writeTrace(T);
  Writer.finish();
  return OS.str();
}

} // namespace

TEST(CheckOutputTest, RaceLinesSpanningBlocksKeepOrder) {
  std::string Path = writeFile("race_format_full.crdb", racyWire());
  Reference Ref = reference(Path);
  ASSERT_FALSE(Ref.Failed);

  std::string Want;
  for (const CommutativityRace &R : Ref.Races)
    Want += seedLine(R);
  ASSERT_GT(Want.size(), size_t(128) << 10)
      << "the trace must print more than two 64 KiB blocks of races";
  Want += summaryLine(Ref.Summary);

  CheckRun Run = runCheck(Path);
  EXPECT_EQ(Run.Exit, 1) << Run.Err;
  EXPECT_EQ(Run.Err, "");
  EXPECT_EQ(Run.Out, Want);
  EXPECT_GE(Run.Blocks, 2u);
}

TEST(CheckOutputTest, TruncatedTracePrintsRacesBeforeTheDamage) {
  std::string Wire = racyWire();
  std::string FullPath = writeFile("race_format_whole.crdb", Wire);
  std::string CutPath =
      writeFile("race_format_cut.crdb", Wire.substr(0, Wire.size() * 3 / 5));
  Reference Full = reference(FullPath);
  Reference Cut = reference(CutPath);
  ASSERT_TRUE(Cut.Failed) << "a truncated trace must be diagnosed";
  ASSERT_GT(Cut.Races.size(), 0u);
  ASSERT_LT(Cut.Races.size(), Full.Races.size());

  // Exactly the races found before the damage: a prefix of the full run.
  std::string Want;
  for (size_t I = 0; I != Cut.Races.size(); ++I) {
    ASSERT_EQ(Cut.Races[I], Full.Races[I]) << "race " << I;
    Want += seedLine(Full.Races[I]);
  }
  ASSERT_GT(Want.size(), size_t(64) << 10)
      << "the damage must come after at least one full block";
  Want += summaryLine(Cut.Summary);

  CheckRun Run = runCheck(CutPath);
  EXPECT_EQ(Run.Exit, 1);
  EXPECT_EQ(Run.Out, Want);
  EXPECT_NE(Run.Err.find(CutPath + ":\n"), std::string::npos) << Run.Err;
  EXPECT_NE(Run.Err.find("error"), std::string::npos) << Run.Err;
}
