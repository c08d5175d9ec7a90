//===- tests/RaceSink.h - Collect a pipeline's race stream ------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StreamPipeline keeps no race after delivering it, so the equivalence
/// suites gather the full records through the race callback and compare
/// them field for field.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TESTS_RACESINK_H
#define CRD_TESTS_RACESINK_H

#include "wire/StreamPipeline.h"

#include <vector>

namespace crd {
namespace testgen {

/// Appends every race \p P delivers to \p Into, in delivery order. \p Into
/// must outlive the pipeline's run.
inline void collectRaces(wire::StreamPipeline &P,
                         std::vector<CommutativityRace> &Into) {
  P.setRaceCallback(
      [&Into](const CommutativityRace &R) { Into.push_back(R); });
}

} // namespace testgen
} // namespace crd

#endif // CRD_TESTS_RACESINK_H
