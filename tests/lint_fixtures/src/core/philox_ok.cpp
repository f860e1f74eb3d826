// QL013 exception fixture: the key parameter is clean only interprocedurally
// — every call site of draw() passes an expression routed through mix64(),
// which the dataflow walk must discover by chasing the parameter position.
#include "rng/philox.hpp"

namespace keyfix {

unsigned long long draw(unsigned long long key) {
  PhiloxEngine rng(key, 1);
  return rng.next();
}

unsigned long long mixed_draw(unsigned long long seed) { return draw(mix64(seed)); }

}  // namespace keyfix
