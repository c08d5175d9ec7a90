//===- support/VectorClock.cpp - Vector clocks ----------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "support/VectorClock.h"

#include "support/TextAppend.h"

#include <algorithm>
#include <ostream>

using namespace crd;

void VectorClock::normalize() {
  while (!Components.empty() && Components.back() == 0)
    Components.pop_back();
}

void VectorClock::set(ThreadId Thread, uint32_t Time) {
  if (Thread.index() >= Components.size()) {
    if (Time == 0)
      return;
    Components.resize(Thread.index() + 1);
  }
  Components[Thread.index()] = Time;
  normalize();
}

void VectorClock::increment(ThreadId Thread) {
  if (Thread.index() >= Components.size())
    Components.resize(Thread.index() + 1);
  ++Components[Thread.index()];
}

VectorClock VectorClock::join(const VectorClock &A, const VectorClock &B) {
  VectorClock Result = A;
  Result.joinWith(B);
  return Result;
}

std::string VectorClock::toString() const {
  std::string Out;
  appendVectorClock(Out, *this);
  return Out;
}

void crd::appendVectorClock(std::string &Out, const VectorClock &VC) {
  Out += '<';
  for (size_t I = 0, E = VC.size(); I != E; ++I) {
    if (I != 0)
      Out += ',';
    appendDecimal(Out, VC.get(ThreadId(static_cast<uint32_t>(I))));
  }
  Out += '>';
}

std::ostream &crd::operator<<(std::ostream &OS, const VectorClock &VC) {
  std::string Text;
  appendVectorClock(Text, VC);
  return OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}
