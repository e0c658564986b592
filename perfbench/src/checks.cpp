#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

// Full bitstring with the open qubits set from k (open[0] = most significant).
std::vector<int> with_open_bits(std::vector<int> bits, const std::vector<int>& open, uint64_t k) {
  for (size_t i = 0; i < open.size(); ++i)
    bits[size_t(open[i])] = int((k >> (open.size() - 1 - i)) & 1);
  return bits;
}

// Chi-square critical value at upper-tail p = 1e-6 (Wilson-Hilferty).
double chi2_critical(int df) {
  const double z = 4.7534;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1 - a + z * std::sqrt(a), 3);
}

}  // namespace

bool amplitude_close(cplx got, cplx ref, int num_qubits, std::string* why) {
  const double scale = std::max(std::abs(ref), std::exp2(-0.5 * num_qubits));
  const double err = std::abs(got - ref);
  if (std::isfinite(err) && err <= kAmpRelTol * scale) return true;
  if (why != nullptr)
    *why = fmt("amplitude %.10e%+.10ei vs reference ", got.real(), got.imag()) +
           fmt("%.10e%+.10ei (relative error %.3e)", ref.real(), ref.imag(), err / scale);
  return false;
}

std::vector<std::vector<int>> reference_bitstrings(int num_qubits, int count) {
  ltns::Rng rng(0x5eedc25ull);
  std::vector<std::vector<int>> out;
  for (int i = 0; i < count; ++i) {
    std::vector<int> bits(static_cast<size_t>(num_qubits));
    for (int& b : bits) b = int(rng.next_u64() >> 63);
    out.push_back(std::move(bits));
  }
  return out;
}

std::vector<RefAmplitude> load_references(const std::string& path, int num_qubits) {
  std::ifstream in(path);
  std::vector<RefAmplitude> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string bits;
    double re = 0, im = 0;
    if (!(ls >> bits >> re >> im) || int(bits.size()) != num_qubits) return {};
    RefAmplitude r;
    for (char ch : bits) r.bits.push_back(ch == '1' ? 1 : 0);
    r.amplitude = cplx(re, im);
    out.push_back(std::move(r));
  }
  return out;
}

void check_query_answer(const ltns::query::Query& q, const ltns::query::QueryResult& r,
                        const ltns::sv::Statevector& sv, std::vector<std::string>* problems) {
  using ltns::query::QueryKind;
  const int n = sv.num_qubits();
  const std::string tag = "query " + std::to_string(q.id) + " (" + q.text + "): ";
  auto fail = [&](const std::string& why) { problems->push_back(tag + why); };
  if (!r.error.empty()) return;  // counted as failed, not as wrong
  switch (q.kind) {
    case QueryKind::kAmplitude:
    case QueryKind::kBatch: {
      const uint64_t count = uint64_t(1) << q.open_qubits.size();
      if (r.amplitudes.size() != count) return fail("wrong amplitude count");
      for (uint64_t k = 0; k < count; ++k) {
        std::string why;
        if (!amplitude_close(r.amplitudes[k], sv.amplitude_bits(with_open_bits(q.bits, q.open_qubits, k)),
                             n, &why))
          return fail("entry " + std::to_string(k) + ": " + why);
      }
      return;
    }
    case QueryKind::kExpectation: {
      // <P> = sum_x conj(v(x ^ flip)) * phase(x) * v(x) / |v|^2 over the
      // conditional state v of the support, where P|x> = phase(x)|x ^ flip>.
      const auto& sup = q.open_qubits;
      const uint64_t count = uint64_t(1) << sup.size();
      std::vector<cplx> v(count);
      for (uint64_t k = 0; k < count; ++k)
        v[k] = sv.amplitude_bits(with_open_bits(q.bits, sup, k));
      uint64_t flip = 0;
      for (size_t i = 0; i < sup.size(); ++i) {
        const char op = q.paulis[size_t(sup[i])];
        if (op == 'X' || op == 'Y') flip |= uint64_t(1) << (sup.size() - 1 - i);
      }
      cplx numer = 0;
      double denom = 0;
      for (uint64_t x = 0; x < count; ++x) {
        cplx phase = 1;
        for (size_t i = 0; i < sup.size(); ++i) {
          const bool one = ((x >> (sup.size() - 1 - i)) & 1) != 0;
          const char op = q.paulis[size_t(sup[i])];
          if (op == 'Y') phase *= one ? cplx(0, -1) : cplx(0, 1);
          if (op == 'Z' && one) phase = -phase;
        }
        numer += std::conj(v[x ^ flip]) * phase * v[x];
        denom += std::norm(v[x]);
      }
      const double ref = numer.real() / denom;
      if (!(std::abs(r.expectation - ref) <= 1e-4))
        fail(fmt("expectation %.10f vs statevector %.10f", r.expectation, ref));
      return;
    }
    case QueryKind::kSample: {
      const auto& open = q.open_qubits;
      const uint64_t count = uint64_t(1) << open.size();
      if (int(r.samples.size()) != q.num_samples) return fail("wrong sample count");
      std::vector<double> observed(count, 0);
      for (const std::string& s : r.samples) {
        if (int(s.size()) != n) return fail("malformed sample '" + s + "'");
        uint64_t k = 0;
        size_t oi = 0;
        for (int i = 0; i < n; ++i) {
          const int bit = s[size_t(i)] == '1' ? 1 : 0;
          if (oi < open.size() && open[oi] == i) {
            k = (k << 1) | uint64_t(bit);
            ++oi;
          } else if (bit != q.bits[size_t(i)]) {
            return fail("sample '" + s + "' breaks fixed bit " + std::to_string(i));
          }
        }
        observed[k] += 1;
      }
      std::vector<double> prob(count);
      double total = 0;
      for (uint64_t k = 0; k < count; ++k) {
        prob[k] = std::norm(sv.amplitude_bits(with_open_bits(q.bits, open, k)));
        total += prob[k];
      }
      // Pool outcomes whose expected count is below 5 into one bin.
      double chi2 = 0, pooled_obs = 0, pooled_exp = 0;
      int bins = 0;
      for (uint64_t k = 0; k < count; ++k) {
        const double expected = q.num_samples * prob[k] / total;
        if (expected < 5) {
          pooled_obs += observed[k];
          pooled_exp += expected;
          continue;
        }
        chi2 += (observed[k] - expected) * (observed[k] - expected) / expected;
        ++bins;
      }
      if (pooled_exp > 0) {
        chi2 += (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
        ++bins;
      }
      if (bins > 1 && chi2 > chi2_critical(bins - 1))
        fail(fmt("samples fail goodness of fit: chi2 %.2f over %.0f bins (critical %.2f)", chi2,
                 bins, chi2_critical(bins - 1)));
      return;
    }
  }
}

double check_plan(const ltns::core::Plan& plan, double bound_log2,
                  std::vector<std::string>* problems) {
  using Set = std::vector<int>;  // sorted edge ids
  const auto& tree = *plan.tree;
  const auto& net = *tree.network();
  auto fail = [&](const std::string& why) { problems->push_back("plan check: " + why); };

  std::vector<char> sliced(size_t(net.num_edges()), 0);
  double log2_subtasks = 0;
  for (int e : plan.slices.to_vector()) {
    sliced[size_t(e)] = 1;
    log2_subtasks += net.edge(e).log2w;
    if (net.edge(e).a == ltns::tn::kNone || net.edge(e).b == ltns::tn::kNone)
      fail("open edge " + std::to_string(e) + " is sliced");
  }
  double open_log2 = 0;
  Set open;
  for (int e : net.open_edges()) {
    open_log2 += net.edge(e).log2w;
    open.push_back(e);
  }
  std::sort(open.begin(), open.end());
  const double bound = std::max(bound_log2, open_log2);
  auto unsliced_log2w = [&](const Set& s) {
    double w = 0;
    for (int e : s)
      if (!sliced[size_t(e)]) w += net.edge(e).log2w;
    return w;
  };

  // Post-order walk from the root, re-deriving each node's index set.
  std::vector<Set> ixs(size_t(tree.num_nodes()));
  std::vector<char> visited(size_t(tree.num_nodes()), 0);
  std::vector<int> leaf_count(size_t(net.num_vertices()), 0);
  std::vector<double> terms;  // log2 of each sliced contraction's cost
  std::vector<std::pair<int, bool>> stack{{tree.root(), false}};
  int visits = 0;
  while (!stack.empty()) {
    auto [i, expanded] = stack.back();
    stack.pop_back();
    if (i < 0 || i >= tree.num_nodes()) {
      fail("node index out of range");
      return 0;
    }
    const auto& node = tree.node(i);
    if (!expanded) {
      if (visited[size_t(i)]) {
        fail("node " + std::to_string(i) + " reached twice");
        return 0;
      }
      visited[size_t(i)] = 1;
      ++visits;
      if (node.is_leaf()) {
        const int v = node.leaf_vertex;
        if (v < 0 || v >= net.num_vertices() || !net.vertex(v).alive) {
          fail("leaf holds no alive tensor");
          return 0;
        }
        ++leaf_count[size_t(v)];
        Set s;
        for (int e : net.vertex(v).edges) {  // a repeated edge is a trace: it cancels
          auto it = std::find(s.begin(), s.end(), e);
          it == s.end() ? s.push_back(e) : void(s.erase(it));
        }
        std::sort(s.begin(), s.end());
        ixs[size_t(i)] = std::move(s);
      } else {
        if (node.right < 0 || tree.node(node.left).parent != i ||
            tree.node(node.right).parent != i) {
          fail("node " + std::to_string(i) + " has inconsistent child links");
          return 0;
        }
        stack.push_back({i, true});
        stack.push_back({node.left, false});
        stack.push_back({node.right, false});
        continue;
      }
    } else {
      const Set& l = ixs[size_t(node.left)];
      const Set& r = ixs[size_t(node.right)];
      Set out, uni;
      std::set_symmetric_difference(l.begin(), l.end(), r.begin(), r.end(),
                                    std::back_inserter(out));
      std::set_union(l.begin(), l.end(), r.begin(), r.end(), std::back_inserter(uni));
      terms.push_back(unsliced_log2w(uni));
      ixs[size_t(i)] = std::move(out);
    }
    const double size = unsliced_log2w(ixs[size_t(i)]);
    if (size > bound + 1e-9)
      fail("node " + std::to_string(i) + fmt(" holds 2^%.2f elements after slicing (> 2^%.2f)",
                                             size, bound));
  }
  if (visits != tree.num_nodes()) fail("tree has nodes unreachable from the root");
  for (int v : net.alive_vertices())
    if (leaf_count[size_t(v)] != 1)
      fail("tensor " + std::to_string(v) + " contracted " + std::to_string(leaf_count[size_t(v)]) +
           " times");
  if (ixs[size_t(tree.root())] != open) fail("root indices differ from the open edges");

  // Eq. 4: 2^|S| subtasks, each paying every contraction with S fixed.
  double mx = -1e300;
  for (double t : terms) mx = std::max(mx, t);
  double acc = 0;
  for (double t : terms) acc += std::exp2(t - mx);
  const double log2_total = terms.empty() ? 0 : log2_subtasks + mx + std::log2(acc);
  const double reported = plan.metrics.log2_total_cost;
  if (!(std::abs(log2_total - reported) <= 1e-9 * std::max(1.0, std::abs(reported))))
    fail(fmt("re-derived log2 sliced cost %.12f differs from reported %.12f", log2_total,
             reported));
  if (std::abs(log2_subtasks - plan.metrics.log2_num_subtasks) > 1e-9)
    fail("subtask count differs from the slice set's width");
  return log2_total;
}

}  // namespace perfbench
