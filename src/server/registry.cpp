#include "server/registry.h"

namespace cmmfo::server {

bool Registry::add(const std::shared_ptr<Campaign>& campaign) {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.emplace(campaign->spec().id, campaign).second;
}

std::shared_ptr<Campaign> Registry::get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(id);
  return it == map_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Campaign>> Registry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Campaign>> out;
  out.reserve(map_.size());
  for (const auto& [id, c] : map_) out.push_back(c);
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace cmmfo::server
