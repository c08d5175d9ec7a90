//===- wire/EventSource.cpp - Pull-based event streams -----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/EventSource.h"

#include "trace/TraceIO.h"
#include "wire/WireFormat.h"

#include <fstream>

using namespace crd;
using namespace crd::wire;

EventSource::~EventSource() = default;

bool TextStreamSource::next(Event &E) {
  if (Failed)
    return false;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (auto Parsed = parseTraceLine(Line, LineNo, Diags)) {
      E = std::move(*Parsed);
      return true;
    }
    if (Diags.hasErrors()) {
      Failed = true;
      return false;
    }
    // Blank or comment line: keep going.
  }
  return false;
}

namespace {

/// True when \p In starts with the binary wire magic.
bool startsWithMagic(std::istream &In) {
  char Head[4] = {};
  In.read(Head, 4);
  return In.gcount() == 4 && Head[0] == Magic[0] && Head[1] == Magic[1] &&
         Head[2] == Magic[2] && Head[3] == Magic[3];
}

} // namespace

bool wire::isWireFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return startsWithMagic(In);
}

std::unique_ptr<EventSource> wire::openEventSource(const std::string &Path,
                                                   DiagnosticEngine &Diags) {
  auto In = std::make_unique<std::ifstream>(Path, std::ios::binary);
  if (!*In) {
    Diags.error({}, "cannot open trace file '" + Path + "'");
    return nullptr;
  }
  bool Binary = startsWithMagic(*In);
  // Rewind for the source, which reads from the first byte (the binary
  // reader re-validates the file header).
  In->clear();
  In->seekg(0);
  if (Binary)
    return std::make_unique<BinaryStreamSource>(std::move(In), Diags);
  return std::make_unique<TextStreamSource>(std::move(In), Diags);
}
