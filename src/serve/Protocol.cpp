//===- serve/Protocol.cpp - Detection daemon wire protocol -------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/EnumNames.h"

#include <chrono>
#include <cstdio>

using namespace crd;
using namespace crd::serve;

namespace {

/// Splits off the next space-separated token of \p Rest.
std::string_view nextToken(std::string_view &Rest) {
  while (!Rest.empty() && Rest.front() == ' ')
    Rest.remove_prefix(1);
  size_t End = Rest.find(' ');
  std::string_view Tok = Rest.substr(0, End);
  Rest.remove_prefix(End == std::string_view::npos ? Rest.size() : End);
  return Tok;
}

bool parseUnsigned(std::string_view V, uint64_t &Out) {
  if (V.empty() || V.size() > 12)
    return false;
  Out = 0;
  for (char C : V) {
    if (C < '0' || C > '9')
      return false;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

} // namespace

uint64_t serve::monotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool serve::parseHandshake(std::string_view Line, Handshake &H,
                           std::string &Error) {
  // Tolerate a trailing '\r' so `nc` users on CRLF terminals still parse.
  if (!Line.empty() && Line.back() == '\r')
    Line.remove_suffix(1);
  if (nextToken(Line) != ProtocolTag) {
    Error = std::string("handshake must open with '") + ProtocolTag + "'";
    return false;
  }
  H = Handshake();
  for (std::string_view Tok = nextToken(Line); !Tok.empty();
       Tok = nextToken(Line)) {
    if (Tok == "status") {
      H.Status = true;
      continue;
    }
    size_t Eq = Tok.find('=');
    std::string_view Key = Tok.substr(0, Eq);
    std::string_view Val =
        Eq == std::string_view::npos ? std::string_view() : Tok.substr(Eq + 1);
    if (Key == "detector") {
      auto B = enumFromName<wire::Backend>(wire::BackendNames, Val);
      if (!B) {
        Error = "unknown detector '" + std::string(Val) +
                "' (accepted: " + joinNames(wire::BackendNames) + ")";
        return false;
      }
      H.TheBackend = *B;
    } else if (Key == "shards") {
      uint64_t N = 0;
      if (!parseUnsigned(Val, N) || N > wire::MaxShards) {
        Error = "shards expects an integer <= " +
                std::to_string(wire::MaxShards);
        return false;
      }
      H.Shards = static_cast<unsigned>(N);
    } else if (Key == "batch") {
      uint64_t N = 0;
      if (!parseUnsigned(Val, N) || N == 0 || N > wire::MaxBatchSize) {
        Error = "batch expects a positive integer <= " +
                std::to_string(wire::MaxBatchSize);
        return false;
      }
      H.BatchSize = static_cast<size_t>(N);
    } else if (Key == "memo") {
      auto M = enumFromName<wire::MemoMode>(wire::MemoModeNames, Val);
      if (!M) {
        Error = "unknown memo mode '" + std::string(Val) +
                "' (accepted: " + joinNames(wire::MemoModeNames) + ")";
        return false;
      }
      H.Memo = *M;
    } else {
      Error = "unknown handshake token '" + std::string(Tok) + "'";
      return false;
    }
  }
  return true;
}

std::string serve::renderHandshake(const Handshake &H) {
  std::string Line = ProtocolTag;
  if (H.Status) {
    Line += " status";
    return Line;
  }
  Line += " detector=";
  Line += wire::backendName(H.TheBackend);
  if (H.Shards) {
    Line += " shards=";
    Line += std::to_string(H.Shards);
  }
  Line += " batch=";
  Line += std::to_string(H.BatchSize);
  Line += " memo=";
  Line += wire::memoModeName(H.Memo);
  return Line;
}

void serve::appendFrameHeader(std::string &Out, FrameType T,
                              uint32_t BodySize) {
  Out.push_back(static_cast<char>(T));
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((BodySize >> (8 * I)) & 0xff));
}

void serve::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
      break;
    }
  }
}
