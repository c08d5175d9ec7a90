//===- tests/SupportTest.cpp - support library tests --------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Symbol.h"
#include "support/Value.h"
#include "support/VectorClock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>

using namespace crd;

//===----------------------------------------------------------------------===//
// Symbol
//===----------------------------------------------------------------------===//

TEST(SymbolTest, InternDeduplicates) {
  SymbolTable Table;
  Symbol A = Table.intern("put");
  Symbol B = Table.intern("put");
  Symbol C = Table.intern("get");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(Table.size(), 2u);
}

TEST(SymbolTest, StrRoundTrips) {
  SymbolTable Table;
  Symbol A = Table.intern("a.com");
  EXPECT_EQ(Table.str(A), "a.com");
}

TEST(SymbolTest, SpellingsStayValidAsTableGrows) {
  SymbolTable Table;
  Symbol First = Table.intern("first");
  std::string_view View = Table.str(First);
  for (int I = 0; I != 1000; ++I)
    Table.intern("sym" + std::to_string(I));
  EXPECT_EQ(View, "first");
}

TEST(SymbolTest, GlobalConvenience) {
  Symbol A = symbol("global-sym");
  EXPECT_EQ(A.str(), "global-sym");
  EXPECT_EQ(symbol("global-sym"), A);
}

TEST(SymbolTest, EmptyStringIsInternable) {
  SymbolTable Table;
  Symbol Empty = Table.intern("");
  EXPECT_EQ(Table.str(Empty), "");
}

TEST(SymbolTest, IdsFollowInterningOrderAcrossBlocks) {
  // Storage grows in doubling blocks (256, 512, 1024, ... entries); ids
  // stay dense and in interning order across every block boundary.
  SymbolTable Table;
  for (uint32_t I = 0; I != 5000; ++I)
    ASSERT_EQ(Table.intern("s" + std::to_string(I)).index(), I);
  EXPECT_EQ(Table.size(), 5000u);
  for (uint32_t I = 0; I < 5000; I += 7)
    EXPECT_EQ(Table.str(Table.intern("s" + std::to_string(I))),
              "s" + std::to_string(I));
}

TEST(SymbolTest, ConcurrentInternAndStr) {
  // str() and size() take no lock: readers look symbols up while two
  // writers intern the same spellings (deduplicating against each other)
  // and new storage blocks are allocated. Run under the tsan preset.
  constexpr uint32_t N = 20000;
  SymbolTable Table;
  std::vector<Symbol> Syms(N);
  std::atomic<uint32_t> Published{0};
  std::vector<Symbol> Twin(N);
  std::thread Writer([&] {
    for (uint32_t I = 0; I != N; ++I) {
      Syms[I] = Table.intern("w" + std::to_string(I));
      Published.store(I + 1, std::memory_order_release);
    }
  });
  std::thread Rival([&] {
    for (uint32_t I = 0; I != N; ++I)
      Twin[I] = Table.intern("w" + std::to_string(I));
  });
  std::atomic<bool> Mismatch{false};
  auto Reader = [&](uint32_t Stride) {
    uint32_t Seen = 0;
    while (Seen != N) {
      Seen = Published.load(std::memory_order_acquire);
      for (uint32_t I = 0; I < Seen; I += Stride)
        if (Table.str(Syms[I]) != "w" + std::to_string(I) ||
            Table.size() < Seen)
          Mismatch = true;
    }
  };
  std::thread R1(Reader, 97), R2(Reader, 1013);
  Writer.join();
  Rival.join();
  R1.join();
  R2.join();
  EXPECT_FALSE(Mismatch);
  EXPECT_EQ(Table.size(), N);
  EXPECT_EQ(Syms, Twin);
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::nil().isNil());
  EXPECT_EQ(Value::boolean(true).asBool(), true);
  EXPECT_EQ(Value::integer(-42).asInt(), -42);
  EXPECT_EQ(Value::string("x").asSymbol(), symbol("x"));
}

TEST(ValueTest, EqualityIsStructural) {
  EXPECT_EQ(Value::nil(), Value::nil());
  EXPECT_EQ(Value::integer(7), Value::integer(7));
  EXPECT_NE(Value::integer(7), Value::integer(8));
  EXPECT_EQ(Value::string("a.com"), Value::string("a.com"));
  EXPECT_NE(Value::string("a.com"), Value::string("b.com"));
  // Different kinds never compare equal, even with "similar" payloads.
  EXPECT_NE(Value::integer(0), Value::nil());
  EXPECT_NE(Value::integer(1), Value::boolean(true));
}

TEST(ValueTest, TotalOrderIsStrictWeak) {
  std::vector<Value> Values = {
      Value::nil(),           Value::boolean(false), Value::boolean(true),
      Value::integer(-5),     Value::integer(0),     Value::integer(99),
      Value::string("alpha"), Value::string("beta"),
  };
  for (const Value &A : Values) {
    EXPECT_FALSE(A < A);
    for (const Value &B : Values) {
      if (A < B) {
        EXPECT_FALSE(B < A);
      }
      if (!(A < B) && !(B < A)) {
        EXPECT_EQ(A, B);
      }
    }
  }
}

TEST(ValueTest, Printing) {
  EXPECT_EQ(Value::nil().toString(), "nil");
  EXPECT_EQ(Value::boolean(true).toString(), "true");
  EXPECT_EQ(Value::boolean(false).toString(), "false");
  EXPECT_EQ(Value::integer(-3).toString(), "-3");
  EXPECT_EQ(Value::string("a.com").toString(), "\"a.com\"");
}

TEST(ValueTest, HashingAgreesWithEquality) {
  EXPECT_EQ(Value::integer(5).hash(), Value::integer(5).hash());
  EXPECT_EQ(Value::string("k").hash(), Value::string("k").hash());
  std::unordered_set<Value> Set;
  Set.insert(Value::integer(1));
  Set.insert(Value::integer(1));
  Set.insert(Value::nil());
  EXPECT_EQ(Set.size(), 2u);
}

TEST(ValueTest, IntLessOnlyComparesIntegers) {
  EXPECT_TRUE(Value::intLess(Value::integer(1), Value::integer(2)));
  EXPECT_FALSE(Value::intLess(Value::integer(2), Value::integer(1)));
  EXPECT_FALSE(Value::intLess(Value::nil(), Value::integer(1)));
  EXPECT_FALSE(Value::intLess(Value::string("1"), Value::string("2")));
}

//===----------------------------------------------------------------------===//
// VectorClock
//===----------------------------------------------------------------------===//

TEST(VectorClockTest, BottomIsLeqEverything) {
  VectorClock Bottom;
  VectorClock C({3, 0, 1});
  EXPECT_TRUE(Bottom.isBottom());
  EXPECT_TRUE(Bottom.leq(C));
  EXPECT_TRUE(Bottom.leq(Bottom));
  EXPECT_FALSE(C.leq(Bottom));
}

TEST(VectorClockTest, PaperFig3Clocks) {
  // Fig 3: a1 has <3,0,1>, a2 has <2,1,0>, a3 has <4,1,1>.
  VectorClock A1({3, 0, 1});
  VectorClock A2({2, 1, 0});
  VectorClock A3({4, 1, 1});
  EXPECT_TRUE(A1.concurrentWith(A2));
  EXPECT_TRUE(A2.concurrentWith(A1));
  EXPECT_TRUE(A1.leq(A3));
  EXPECT_TRUE(A2.leq(A3));
  EXPECT_FALSE(A3.leq(A1));
  EXPECT_FALSE(A1.concurrentWith(A3));
}

TEST(VectorClockTest, JoinIsPointwiseMax) {
  VectorClock A({3, 0, 1});
  VectorClock B({2, 1, 0});
  VectorClock J = VectorClock::join(A, B);
  EXPECT_EQ(J, VectorClock({3, 1, 1}));
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
}

TEST(VectorClockTest, IncrementBumpsOneComponent) {
  VectorClock C;
  C.increment(ThreadId(2));
  EXPECT_EQ(C.get(ThreadId(2)), 1u);
  EXPECT_EQ(C.get(ThreadId(0)), 0u);
  C.increment(ThreadId(2));
  EXPECT_EQ(C.get(ThreadId(2)), 2u);
}

TEST(VectorClockTest, ImplicitZeroExtension) {
  VectorClock Short({1});
  VectorClock Long({1, 0, 0, 0});
  // Trailing zeros normalize away: structurally equal.
  EXPECT_EQ(Short, Long);
  EXPECT_EQ(Long.size(), 1u);
  EXPECT_EQ(Short.get(ThreadId(100)), 0u);
}

TEST(VectorClockTest, SetClearsAndNormalizes) {
  VectorClock C({0, 0, 5});
  C.set(ThreadId(2), 0);
  EXPECT_TRUE(C.isBottom());
  C.set(ThreadId(4), 0); // Setting zero beyond extent stays bottom.
  EXPECT_TRUE(C.isBottom());
}

TEST(VectorClockTest, Printing) {
  EXPECT_EQ(VectorClock({3, 0, 1}).toString(), "<3,0,1>");
  EXPECT_EQ(VectorClock().toString(), "<>");
}

/// Lattice laws on randomized clocks.
class VectorClockLatticeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(VectorClockLatticeTest, LatticeLaws) {
  std::mt19937 Rng(GetParam());
  auto RandomClock = [&] {
    std::vector<uint32_t> Components(Rng() % 6);
    for (uint32_t &X : Components)
      X = Rng() % 4;
    return VectorClock(std::move(Components));
  };
  for (int I = 0; I != 100; ++I) {
    VectorClock A = RandomClock(), B = RandomClock(), C = RandomClock();
    // Commutativity and associativity of join.
    EXPECT_EQ(VectorClock::join(A, B), VectorClock::join(B, A));
    EXPECT_EQ(VectorClock::join(VectorClock::join(A, B), C),
              VectorClock::join(A, VectorClock::join(B, C)));
    // Idempotence.
    EXPECT_EQ(VectorClock::join(A, A), A);
    // Join is the least upper bound: A,B ⊑ A⊔B, and A⊑C ∧ B⊑C ⇒ A⊔B⊑C.
    VectorClock J = VectorClock::join(A, B);
    EXPECT_TRUE(A.leq(J));
    EXPECT_TRUE(B.leq(J));
    VectorClock Upper = VectorClock::join(J, C);
    EXPECT_TRUE(J.leq(Upper));
    // Antisymmetry.
    if (A.leq(B) && B.leq(A)) {
      EXPECT_EQ(A, B);
    }
    // Transitivity.
    if (A.leq(B) && B.leq(C)) {
      EXPECT_TRUE(A.leq(C));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorClockLatticeTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CountsAndFormats) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 7}, "expected ')'");
  Diags.warning({}, "suspicious");
  Diags.note({1, 1}, "declared here");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.all().size(), 3u);
  EXPECT_EQ(Diags.all()[0].toString(), "3:7: error: expected ')'");
  EXPECT_EQ(Diags.all()[1].toString(), "warning: suspicious");
  EXPECT_EQ(Diags.all()[2].toString(), "1:1: note: declared here");
}
