// Answer checks, independent of the tensor-network path they verify:
// amplitudes, expectations and samples against sv::Statevector (a full
// statevector simulation), and plans by re-walking the public
// tn::ContractionTree from the network's edge weights.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "query/query.hpp"
#include "sv/statevector.hpp"

namespace perfbench {

using cplx = std::complex<double>;

// fp32 contraction agrees with the double-precision statevector to ~1e-6
// relative; the tolerance leaves two decades of room. The scale floor
// 2^(-n/2) (the RMS amplitude) keeps tiny amplitudes from demanding an
// absolute precision fp32 cannot give.
inline constexpr double kAmpRelTol = 1e-4;
bool amplitude_close(cplx got, cplx ref, int num_qubits, std::string* why);

// One checked-in reference amplitude: "<bits> <re> <im>" per line.
struct RefAmplitude {
  std::vector<int> bits;
  cplx amplitude;
};
std::vector<RefAmplitude> load_references(const std::string& path, int num_qubits);
// The bitstrings the reference file holds, generated from a fixed seed.
std::vector<std::vector<int>> reference_bitstrings(int num_qubits, int count);

// Checks one engine answer against the statevector `sv` of the circuit.
// Samples must agree with the fixed bits and pass a chi-square
// goodness-of-fit test (p < 1e-6 rejects) against the statevector's
// conditional distribution. Appends a line per problem.
void check_query_answer(const ltns::query::Query& q, const ltns::query::QueryResult& r,
                        const ltns::sv::Statevector& sv, std::vector<std::string>* problems);

// Independent plan check: walks plan.tree from the root and re-derives
// every index set from the network's incidence lists. Verifies every
// sliced contraction output fits 2^bound_log2, no open edge is sliced,
// every alive tensor is contracted exactly once, and Eq. 4's sliced total
// cost (log2) re-derived from edge weights matches plan.metrics. Returns
// the re-derived log2 total cost.
double check_plan(const ltns::core::Plan& plan, double bound_log2,
                  std::vector<std::string>* problems);

}  // namespace perfbench
