// QL010 fixture: a second thread substrate outside src/sim/ — the shape of a
// generic task pool in util/. The file name matches the sanctioned
// sim/worker_pool.* site, but the exemption is by path, so both spawn
// sites below must be flagged. Never compiled.
#include <future>
#include <thread>
#include <vector>

namespace fx {

void spawn_helper_threads() {
  std::thread helper([] {});
  auto pending = std::async([] { return 0; });
  helper.join();
  (void)pending;
}

}  // namespace fx
