#include "util/random.h"

#include <algorithm>

namespace ccsim {

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t population,
                                                   int64_t count) {
  std::vector<int64_t> result;
  std::vector<int64_t> chosen;
  SampleWithoutReplacement(population, count, &result, &chosen);
  return result;
}

void Rng::SampleWithoutReplacement(int64_t population, int64_t count,
                                   std::vector<int64_t>* out,
                                   std::vector<int64_t>* scratch) {
  CCSIM_CHECK_GE(count, 0);
  CCSIM_CHECK_LE(count, population);
  // Floyd's algorithm: for j in [population-count, population), pick t uniform
  // in [0, j]; insert t unless already chosen, else insert j. Produces a
  // uniform random subset of size `count`.
  //
  // Membership is tracked in a sorted small vector: transaction-sized samples
  // (a handful of objects) fit in one or two cache lines, where the shifted
  // insert beats a heap-allocated hash set. The draw sequence is exactly the
  // hash-set version's — only membership answers feed back into the draws.
  std::vector<int64_t>& chosen = *scratch;
  chosen.clear();
  chosen.reserve(static_cast<size_t>(count));
  auto insert_chosen = [&chosen](int64_t v) {
    auto it = std::lower_bound(chosen.begin(), chosen.end(), v);
    if (it != chosen.end() && *it == v) return false;
    chosen.insert(it, v);
    return true;
  };
  std::vector<int64_t>& result = *out;
  result.clear();
  result.reserve(static_cast<size_t>(count));
  for (int64_t j = population - count; j < population; ++j) {
    int64_t t = UniformInt(0, j);
    if (insert_chosen(t)) {
      result.push_back(t);
    } else {
      insert_chosen(j);
      result.push_back(j);
    }
  }
  // Floyd's subset is uniform but its order is biased; shuffle so that the
  // access order is also uniform (objects are read in result order).
  std::shuffle(result.begin(), result.end(), engine_);
}

}  // namespace ccsim
