//===- support/Value.cpp - Action argument/return value domain ------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "support/Value.h"

#include "support/TextAppend.h"

#include <ostream>

using namespace crd;

std::string Value::toString() const {
  std::string Out;
  appendValue(Out, *this);
  return Out;
}

void crd::appendValue(std::string &Out, const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Nil:
    Out += "nil";
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Value::Kind::Int:
    appendDecimal(Out, V.asInt());
    return;
  case Value::Kind::Str: {
    // Escape exactly what the trace lexer unescapes, so printed values
    // re-parse to the same symbol.
    Out += '"';
    for (char C : V.asSymbol().str()) {
      switch (C) {
      case '\n':
        Out += "\\n";
        break;
      case '\t':
        Out += "\\t";
        break;
      case '"':
        Out += "\\\"";
        break;
      case '\\':
        Out += "\\\\";
        break;
      default:
        Out += C;
      }
    }
    Out += '"';
    return;
  }
  }
}

std::ostream &crd::operator<<(std::ostream &OS, const Value &V) {
  std::string Text;
  appendValue(Text, V);
  return OS.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}
