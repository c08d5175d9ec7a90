//===- tests/CliOptionsTest.cpp - The shared detector options ---------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `--detector`, `--shards`, `--batch` and `--memo` are parsed by one
/// helper for every verb. The helper is driven directly for the bounds:
/// an out-of-range shard count must never reach a run, which would start
/// one thread per shard. The verbs are then checked to route through it
/// with an oversized --batch, which starts nothing when rejected. Last, a
/// one-shard parallel request runs the sequential detector: `crd check`
/// prints exactly what --detector=seq prints, and `crd profile` refuses a
/// batch timeline it cannot draw.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"
#include "CliInternal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace crd;
using namespace crd::cli::internal;

namespace {

struct Parsed {
  bool Ok = false;
  wire::PipelineOptions Opts;
  bool Detect = true;
  std::string Err;
};

Parsed parse(const std::vector<std::string> &Args, bool AdmitNone = false) {
  Parsed P;
  std::ostringstream Err;
  P.Ok = parseDetectorOptions(ParsedArgs(Args), P.Opts, Err,
                              AdmitNone ? &P.Detect : nullptr);
  P.Err = Err.str();
  return P;
}

struct CliRun {
  int Exit = 0;
  std::string Out, Err;
};

CliRun run(const std::vector<std::string> &Args) {
  std::ostringstream Out, Err;
  CliRun R;
  R.Exit = cli::crdMain(Args, Out, Err);
  R.Out = Out.str();
  R.Err = Err.str();
  return R;
}

const std::string Fig3 = std::string(CRD_REPO_DIR) + "/traces/fig3.crdb";

} // namespace

TEST(CliOptionsTest, ParsesEveryOption) {
  Parsed P = parse({"--detector=parallel", "--shards=3", "--batch=7",
                    "--memo"});
  ASSERT_TRUE(P.Ok) << P.Err;
  EXPECT_EQ(P.Opts.TheBackend, wire::Backend::Parallel);
  EXPECT_EQ(P.Opts.Shards, 3u);
  EXPECT_EQ(P.Opts.BatchSize, 7u);
  EXPECT_EQ(P.Opts.Memo, wire::MemoMode::Full); // Bare --memo = full.

  P = parse({});
  ASSERT_TRUE(P.Ok);
  EXPECT_EQ(P.Opts.TheBackend, wire::Backend::Sequential);
  EXPECT_EQ(P.Opts.Memo, wire::MemoMode::Off);

  for (const char *Name : {"seq", "parallel", "fasttrack", "atomicity"})
    EXPECT_TRUE(parse({std::string("--detector=") + Name}).Ok) << Name;
}

TEST(CliOptionsTest, ShardAndBatchCapsMatchTheHandshake) {
  EXPECT_TRUE(parse({"--shards=0"}).Ok);
  EXPECT_TRUE(parse({"--shards=1024"}).Ok);
  for (const char *Bad : {"--shards=1025", "--shards=4294967297",
                          "--shards=99999999999999999999", "--shards=-1",
                          "--shards="}) {
    Parsed P = parse({Bad});
    EXPECT_FALSE(P.Ok) << Bad;
    EXPECT_EQ(P.Err, "error: --shards expects an integer <= 1024\n") << Bad;
  }

  EXPECT_TRUE(parse({"--batch=1"}).Ok);
  EXPECT_TRUE(parse({"--batch=16777216"}).Ok);
  for (const char *Bad : {"--batch=0", "--batch=16777217", "--batch=x"}) {
    Parsed P = parse({Bad});
    EXPECT_FALSE(P.Ok) << Bad;
    EXPECT_EQ(P.Err,
              "error: --batch expects a positive integer <= 16777216\n")
        << Bad;
  }
}

TEST(CliOptionsTest, RejectsUnknownValuesNamingTheAcceptedOnes) {
  Parsed P = parse({"--memo=decode"});
  EXPECT_FALSE(P.Ok);
  EXPECT_EQ(P.Err,
            "error: unknown --memo mode 'decode' (accepted: off, full)\n");

  P = parse({"--detector=none"});
  EXPECT_FALSE(P.Ok);
  EXPECT_EQ(P.Err, "error: unknown --detector 'none' (accepted: seq, "
                   "parallel, fasttrack, atomicity)\n");

  // crd record also admits none.
  P = parse({"--detector=none"}, /*AdmitNone=*/true);
  EXPECT_TRUE(P.Ok) << P.Err;
  EXPECT_FALSE(P.Detect);
  P = parse({"--detector=bogus"}, /*AdmitNone=*/true);
  EXPECT_FALSE(P.Ok);
  EXPECT_NE(P.Err.find("atomicity, none)"), std::string::npos) << P.Err;
}

// Every verb that takes --batch reports the cap with the helper's one
// message. A rejected --batch starts no run, so a broken check here costs
// at most one small run, never a thread per shard.
TEST(CliOptionsTest, EveryVerbRoutesThroughTheHelper) {
  const std::string Big = "--batch=16777217";
  const std::vector<std::vector<std::string>> Invocations = {
      {"check", Fig3, Big},
      {"profile", Fig3, Big},
      {"record", "--stress", "--producers=1", "--events=1", Big},
      {"serve", "--connect=/nonexistent.sock", "--trace=" + Fig3, Big},
  };
  for (const std::vector<std::string> &Args : Invocations) {
    CliRun R = run(Args);
    SCOPED_TRACE(Args[0]);
    EXPECT_EQ(R.Exit, 2);
    EXPECT_EQ(R.Err, "error: --batch expects a positive integer <= 16777216\n");
  }

  // crd record detects commutativity races only.
  CliRun R = run({"record", "--stress", "--producers=1", "--events=1",
                  "--detector=fasttrack"});
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("error: --detector=fasttrack is not supported by "
                       "'crd record'"),
            std::string::npos)
      << R.Err;
}

// crd profile renamed --backend to --detector.
TEST(CliOptionsTest, ProfileTakesDetector) {
  CliRun R = run({"profile", Fig3, "--detector=fasttrack"});
  EXPECT_EQ(R.Exit, 0) << R.Err;
  EXPECT_NE(R.Out.find("\"backend\": \"fasttrack\""), std::string::npos);

  R = run({"profile", Fig3, "--backend=seq"});
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("unknown option --backend"), std::string::npos);
}

TEST(CliOptionsTest, OneShardParallelIsTheSequentialDetector) {
  // fig3 (one race) and a racy multi-producer recording.
  std::string Racy = testing::TempDir() + "cli_options_racy.crdb";
  CliRun Rec = run({"record", "--stress", "--producers=2", "--events=4000",
                    "--detector=none", "--out=" + Racy});
  ASSERT_EQ(Rec.Exit, 0) << Rec.Err;
  for (const std::string &Trace : {Fig3, Racy}) {
    SCOPED_TRACE(Trace);
    CliRun Seq = run({"check", "--detector=seq", Trace});
    CliRun One = run({"check", "--detector=parallel", "--shards=1", Trace});
    EXPECT_EQ(Seq.Exit, 1) << "trace must be racy";
    EXPECT_EQ(One.Exit, Seq.Exit);
    EXPECT_EQ(One.Out, Seq.Out);
    EXPECT_NE(Seq.Out.find("commutativity races: "), std::string::npos);
  }
  std::remove(Racy.c_str());

  // The metrics document names what actually ran.
  CliRun Prof = run({"profile", Fig3, "--detector=parallel", "--shards=1"});
  EXPECT_EQ(Prof.Exit, 0) << Prof.Err;
  EXPECT_NE(Prof.Out.find("\"backend\": \"sequential\""), std::string::npos)
      << Prof.Out;
}

TEST(CliOptionsTest, OneShardChromeTraceIsRejected) {
  std::string Path = testing::TempDir() + "cli_options_one_shard.json";
  CliRun R = run({"profile", Fig3, "--detector=parallel", "--shards=1",
                  "--chrome-trace=" + Path});
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Err.find("error: --chrome-trace with one shard is not "
                       "supported by 'crd profile'"),
            std::string::npos)
      << R.Err;
  EXPECT_FALSE(std::ifstream(Path).good());
}
