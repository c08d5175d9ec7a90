//===- support/EnumNames.h - User-facing enum spellings ---------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lookups over a spelling table indexed by enum value — the one place an
/// option value such as `--detector=seq` or the handshake's `memo=full` is
/// spelled, so the CLI, the serve protocol and their diagnostics agree.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_ENUMNAMES_H
#define CRD_SUPPORT_ENUMNAMES_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace crd {

/// The enumerator spelled \p Name in \p Names, if any.
template <typename Enum, size_t N>
std::optional<Enum> enumFromName(const char *const (&Names)[N],
                                 std::string_view Name) {
  for (size_t I = 0; I != N; ++I)
    if (Name == Names[I])
      return static_cast<Enum>(I);
  return std::nullopt;
}

/// "a, b, c": the accepted values, for diagnostics.
template <size_t N> std::string joinNames(const char *const (&Names)[N]) {
  std::string Out;
  for (size_t I = 0; I != N; ++I) {
    if (I)
      Out += ", ";
    Out += Names[I];
  }
  return Out;
}

} // namespace crd

#endif // CRD_SUPPORT_ENUMNAMES_H
