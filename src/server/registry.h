#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/campaign.h"

namespace cmmfo::server {

/// The campaign map: one id-ordered map under one mutex. The lock guards
/// only the map structure (campaign state has its own lock), so a listing
/// never blocks behind a driver stepping a campaign.
class Registry {
 public:
  /// False (and no insertion) when the id is already registered.
  bool add(const std::shared_ptr<Campaign>& campaign);
  std::shared_ptr<Campaign> get(const std::string& id) const;
  /// Every registered campaign, in id order (deterministic listings and
  /// fair-scheduler tie-breaks).
  std::vector<std::shared_ptr<Campaign>> list() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Campaign>> map_;
};

}  // namespace cmmfo::server
