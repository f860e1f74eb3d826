#include <unordered_map>

namespace fx {

int resident_threshold(const std::unordered_map<int, int>& by_user, int user) {
  std::unordered_map<int, int> residents_ = by_user;
  const auto it = residents_.find(user);
  if (it == residents_.end()) return -1;
  if (residents_.cend() != it && it != residents_.end()) return it->second;
  return 0;
}

int total_threshold(const std::unordered_map<int, int>& by_user) {
  std::unordered_map<int, int> residents_ = by_user;
  int total = 0;
  for (const auto& kv : residents_) total += kv.second;
  return total;
}

}  // namespace fx
