//===- detect/Race.cpp - Race reports ---------------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "detect/Race.h"

#include "support/TextAppend.h"

#include <ostream>

using namespace crd;

namespace {

const char *kindName(MemoryRace::Kind K) {
  switch (K) {
  case MemoryRace::Kind::WriteWrite:
    return "write-write";
  case MemoryRace::Kind::WriteRead:
    return "write-read";
  case MemoryRace::Kind::ReadWrite:
    return "read-write";
  }
  return "race";
}

template <typename RaceT> std::string render(const RaceT &R) {
  std::string Out;
  appendRace(Out, R);
  return Out;
}

template <typename RaceT>
std::ostream &print(std::ostream &OS, const RaceT &R) {
  std::string Text = render(R);
  return OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}

} // namespace

void crd::appendRace(std::string &Out, const CommutativityRace &R) {
  Out += "commutativity race at event ";
  appendDecimal(Out, R.EventIndex);
  Out += ": T";
  appendDecimal(Out, R.Thread.index());
  Out += " performs ";
  appendAction(Out, R.Current);
  Out += " conflicting on ";
  Out += R.PointName;
  Out += " (prior ";
  appendVectorClock(Out, R.PriorClock);
  Out += " || current ";
  appendVectorClock(Out, R.CurrentClock);
  Out += ')';
}

void crd::appendRace(std::string &Out, const MemoryRace &R) {
  Out += kindName(R.Access);
  Out += " race at event ";
  appendDecimal(Out, R.EventIndex);
  Out += " on V";
  appendDecimal(Out, R.Var.index());
  Out += " between T";
  appendDecimal(Out, R.PriorThread.index());
  Out += " and T";
  appendDecimal(Out, R.CurrentThread.index());
}

std::string CommutativityRace::toString() const { return render(*this); }

std::string MemoryRace::toString() const { return render(*this); }

std::ostream &crd::operator<<(std::ostream &OS, const CommutativityRace &R) {
  return print(OS, R);
}

std::ostream &crd::operator<<(std::ostream &OS, const MemoryRace &R) {
  return print(OS, R);
}
