//===- trace/Action.cpp - Method invocations ------------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "trace/Action.h"

#include "support/TextAppend.h"

#include <ostream>

using namespace crd;

std::vector<Value> Action::values() const {
  return std::vector<Value>(Vals, Vals + numValues());
}

std::string Action::toString() const {
  std::string Out;
  appendAction(Out, *this);
  return Out;
}

void crd::appendAction(std::string &Out, const Action &A) {
  Out += 'o';
  appendDecimal(Out, A.object().index());
  Out += '.';
  Out += A.method().str();
  Out += '(';
  for (size_t I = 0, E = A.args().size(); I != E; ++I) {
    if (I != 0)
      Out += ", ";
    appendValue(Out, A.args()[I]);
  }
  Out += ')';
  for (const Value &Ret : A.rets()) {
    Out += '/';
    appendValue(Out, Ret);
  }
}

std::ostream &crd::operator<<(std::ostream &OS, const Action &A) {
  std::string Text;
  appendAction(Text, A);
  return OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}
