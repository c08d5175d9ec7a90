//===- detect/Race.h - Race reports -----------------------------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Report records produced by the detectors. Following the paper's Table 2,
/// races are counted both in total and as distinct racy entities (objects
/// for RD2, memory locations for FastTrack).
///
/// Each record has one printed form, written by appendRace() on top of the
/// appendValue / appendAction / appendVectorClock helpers. `crd check`,
/// `crd analyze` and the serve daemon's race lines all use it, and the
/// stream operators and toString() below are wrappers over it, so there is
/// no second spelling to drift. The bytes are part of the tool's output
/// contract: tests/RaceFormatTest.cpp pins them.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_DETECT_RACE_H
#define CRD_DETECT_RACE_H

#include "support/VectorClock.h"
#include "trace/Action.h"

#include <iosfwd>
#include <string>

namespace crd {

/// A commutativity race (paper Def 4.3) found by Algorithm 1 or by the
/// direct baseline detector. The record owns a deep copy of the current
/// action, the class name and both clocks, so it does not depend on the
/// decode arena or the provider. It lives until it is drained: a
/// detector's race vector holds only races not yet handed on, and the
/// streaming pipeline drops each one after its callback (see
/// drainRaces() in detect/CommutativityDetector.h). A consumer that
/// needs a race later copies it.
struct CommutativityRace {
  size_t EventIndex = 0;   ///< Position of the current (second) event.
  ThreadId Thread;         ///< Thread of the current event.
  Action Current;          ///< The action of the current event.
  /// What the current action conflicts with. Algorithm 1 copies the
  /// conflicting access point class's debug name from the provider
  /// (className(); see appendRace() for an example); the direct baseline
  /// detector names the prior action instead (`action o1.put(..)`).
  std::string PointName;
  VectorClock PriorClock;  ///< Accumulated clock of the conflicting point.
  VectorClock CurrentClock;

  /// Field-for-field equality; used by the sequential/parallel detector
  /// equivalence suite (races must be bit-identical, not just same-count).
  friend bool operator==(const CommutativityRace &A,
                         const CommutativityRace &B) {
    return A.EventIndex == B.EventIndex && A.Thread == B.Thread &&
           A.Current == B.Current && A.PointName == B.PointName &&
           A.PriorClock == B.PriorClock && A.CurrentClock == B.CurrentClock;
  }
  friend bool operator!=(const CommutativityRace &A,
                         const CommutativityRace &B) {
    return !(A == B);
  }

  /// The printed form; see appendRace().
  std::string toString() const;
};

/// A low-level read-write race found by the FastTrack baseline.
struct MemoryRace {
  enum class Kind { WriteWrite, WriteRead, ReadWrite };

  size_t EventIndex = 0;
  VarId Var;
  Kind Access = Kind::WriteWrite;
  ThreadId PriorThread;
  ThreadId CurrentThread;

  /// The printed form; see appendRace().
  std::string toString() const;
};

/// Appends the one-line report for \p R, without a trailing newline:
///
///   commutativity race at event 3: T1 performs o1.put("a.com", 200)/100
///   conflicting on put{!(x2 == x3),!(nil == x2),!(nil == x3)}:1
///   (prior <0,0,1> || current <1,1>)
///
/// (one line; wrapped here). Locale-free and allocation-free once \p Out
/// has capacity, so callers that print many races reuse one buffer.
void appendRace(std::string &Out, const CommutativityRace &R);

/// Appends e.g. `write-read race at event 9 on V3 between T1 and T2`.
void appendRace(std::string &Out, const MemoryRace &R);

std::ostream &operator<<(std::ostream &OS, const CommutativityRace &R);
std::ostream &operator<<(std::ostream &OS, const MemoryRace &R);

} // namespace crd

#endif // CRD_DETECT_RACE_H
