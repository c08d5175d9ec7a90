//===- support/TextAppend.h - Locale-free text building ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitive under the report printers (appendValue, appendAction,
/// appendVectorClock, appendRace): decimal integers appended to a string
/// with std::to_chars — no locale, no stream state, no allocation once the
/// destination has capacity.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_TEXTAPPEND_H
#define CRD_SUPPORT_TEXTAPPEND_H

#include <charconv>
#include <string>
#include <type_traits>

namespace crd {

/// Appends the decimal spelling of \p V (a leading '-' when negative).
template <typename Int> void appendDecimal(std::string &Out, Int V) {
  static_assert(std::is_integral_v<Int>, "appendDecimal takes integers");
  char Buf[24]; // INT64_MIN is 20 characters.
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec; // Cannot overflow: 24 bytes hold any 64-bit value.
  Out.append(Buf, End);
}

} // namespace crd

#endif // CRD_SUPPORT_TEXTAPPEND_H
