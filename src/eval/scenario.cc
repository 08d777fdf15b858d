#include "eval/scenario.h"

#include "common/check.h"

namespace jf::eval {

traffic::TrafficMatrix TrafficSpec::sample(int num_servers, Rng& rng) const {
  switch (kind) {
    case Kind::kPermutation:
      return traffic::random_permutation(num_servers, rng, demand);
    case Kind::kAllToAll:
      return traffic::all_to_all(num_servers, demand, /*normalize=*/true);
    case Kind::kHotspot:
      return traffic::hotspot(num_servers, num_hot, fan_in, rng, demand);
  }
  check(false, "TrafficSpec::sample: unknown traffic kind");
  return {};
}

}  // namespace jf::eval
