//===- support/Symbol.h - Interned strings ----------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings. Method names, object names and string-valued action
/// arguments (e.g. dictionary keys like "a.com") are interned once so that
/// the hot detector paths compare and hash 32-bit ids instead of strings.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SUPPORT_SYMBOL_H
#define CRD_SUPPORT_SYMBOL_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace crd {

/// An interned string: a cheap, totally ordered, hashable handle.
///
/// Symbols are created through SymbolTable (or the symbol() convenience
/// function which uses the process-wide table). Two Symbols from the same
/// table are equal iff their spellings are equal. The ordering is by
/// interning order, not lexicographic; use str() when lexicographic order
/// matters.
class Symbol {
public:
  constexpr Symbol() = default;

  constexpr uint32_t index() const { return Index; }

  friend constexpr bool operator==(Symbol A, Symbol B) {
    return A.Index == B.Index;
  }
  friend constexpr bool operator!=(Symbol A, Symbol B) {
    return A.Index != B.Index;
  }
  friend constexpr bool operator<(Symbol A, Symbol B) {
    return A.Index < B.Index;
  }

  /// Returns the spelling of this symbol (process-wide table).
  std::string_view str() const;

private:
  friend class SymbolTable;
  constexpr explicit Symbol(uint32_t Index) : Index(Index) {}

  uint32_t Index = 0;
};

/// Deduplicating string table.
///
/// The process-wide instance (SymbolTable::global()) backs the Symbol::str()
/// convenience accessor. Separate instances can be created for isolation in
/// tests. Thread-safe: intern() takes a mutex, while str() and size() read
/// append-only storage without a lock, so printing races on one thread
/// never waits for a decoder interning on another.
class SymbolTable {
public:
  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Interns \p Text, returning the unique Symbol for this spelling.
  Symbol intern(std::string_view Text);

  /// Returns the spelling of \p Sym. \p Sym must come from this table.
  std::string_view str(Symbol Sym) const;

  /// Number of distinct symbols interned so far.
  size_t size() const;

  /// The process-wide symbol table.
  static SymbolTable &global();

private:
  struct Impl;
  Impl *Storage;
};

/// Interns \p Text into the process-wide table.
Symbol symbol(std::string_view Text);

} // namespace crd

namespace std {
template <> struct hash<crd::Symbol> {
  size_t operator()(crd::Symbol Sym) const noexcept { return Sym.index(); }
};
} // namespace std

#endif // CRD_SUPPORT_SYMBOL_H
