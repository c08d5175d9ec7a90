//===- support/Symbol.cpp - Interned strings --------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
//
// Spellings live in append-only blocks that never move: block B holds
// FirstBlock << B entries, so a fixed table of NumBlocks block pointers
// covers every 32-bit symbol id. intern() appends under the mutex and then
// publishes the new size with a release store; str() and size() take no
// lock. A reader that acquire-loads the size sees every spelling (and the
// block pointer it lives in) below it fully written, and entries below the
// published size are never written again.
//
//===----------------------------------------------------------------------===//

#include "support/Symbol.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace crd;

namespace {

constexpr unsigned FirstBlockBits = 8;
constexpr uint64_t FirstBlock = uint64_t(1) << FirstBlockBits;
/// Blocks 0..NumBlocks-1 hold FirstBlock * (2^NumBlocks - 1) >= 2^32 ids.
constexpr unsigned NumBlocks = 32 - FirstBlockBits + 1;

/// The block holding symbol \p Id, and \p Id's slot inside it.
struct Slot {
  unsigned Block;
  uint64_t Offset;
};
Slot slotOf(uint32_t Id) {
  uint64_t Biased = uint64_t(Id) + FirstBlock;
  unsigned Block = static_cast<unsigned>(std::bit_width(Biased)) - 1 -
                   FirstBlockBits;
  return {Block, Biased - (FirstBlock << Block)};
}

} // namespace

struct SymbolTable::Impl {
  std::mutex Mutex; ///< Serializes intern(); readers never take it.
  std::unique_ptr<std::string[]> Blocks[NumBlocks];
  /// Number of published symbols; release-stored after the spelling.
  std::atomic<uint32_t> Size{0};
  /// Spelling → id; keys view the block storage. Guarded by Mutex.
  std::unordered_map<std::string_view, uint32_t> Index;
};

SymbolTable::SymbolTable() : Storage(new Impl) {}

SymbolTable::~SymbolTable() { delete Storage; }

Symbol SymbolTable::intern(std::string_view Text) {
  std::lock_guard<std::mutex> Guard(Storage->Mutex);
  auto It = Storage->Index.find(Text);
  if (It != Storage->Index.end())
    return Symbol(It->second);

  uint32_t Id = Storage->Size.load(std::memory_order_relaxed);
  Slot S = slotOf(Id);
  std::unique_ptr<std::string[]> &Block = Storage->Blocks[S.Block];
  if (!Block)
    Block = std::make_unique<std::string[]>(FirstBlock << S.Block);
  std::string &Spelling = Block[S.Offset];
  Spelling.assign(Text);
  Storage->Index.emplace(Spelling, Id);
  Storage->Size.store(Id + 1, std::memory_order_release);
  return Symbol(Id);
}

std::string_view SymbolTable::str(Symbol Sym) const {
  [[maybe_unused]] uint32_t Size =
      Storage->Size.load(std::memory_order_acquire);
  assert(Sym.index() < Size && "symbol does not belong to this table");
  Slot S = slotOf(Sym.index());
  return Storage->Blocks[S.Block][S.Offset];
}

size_t SymbolTable::size() const {
  return Storage->Size.load(std::memory_order_acquire);
}

SymbolTable &SymbolTable::global() {
  static SymbolTable Table;
  return Table;
}

std::string_view Symbol::str() const { return SymbolTable::global().str(*this); }

Symbol crd::symbol(std::string_view Text) {
  return SymbolTable::global().intern(Text);
}
