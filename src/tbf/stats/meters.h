// Measurement utilities: the per-node airtime meter and fairness indices.
#ifndef TBF_STATS_METERS_H_
#define TBF_STATS_METERS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "tbf/util/units.h"

namespace tbf::stats {

// Accumulates channel occupancy time per owning client node. "Occupancy" follows the
// paper's definition: data + ACK airtime plus the inter-frame idle (IFS + backoff) that
// the exchange consumed, retransmissions included.
//
// Charge() runs once per exchange on the hot path, so the accumulator is a dense
// NodeId-indexed array (node ids are small); by_node() materializes the sorted
// charged-nodes view (identical to the map it replaced: only nodes with positive
// charges appear, in ascending NodeId order) for the readout path.
class AirtimeMeter {
 public:
  void Charge(NodeId owner, TimeNs t) {
    if (t > 0 && owner >= 0) {
      if (static_cast<size_t>(owner) >= airtime_.size()) {
        airtime_.resize(static_cast<size_t>(owner) + 1, 0);
      }
      airtime_[static_cast<size_t>(owner)] += t;
      total_ += t;
    }
  }

  TimeNs Airtime(NodeId owner) const {
    return owner >= 0 && static_cast<size_t>(owner) < airtime_.size()
               ? airtime_[static_cast<size_t>(owner)]
               : 0;
  }

  TimeNs TotalCharged() const { return total_; }

  // Fraction of all charged airtime used by `owner`.
  double Share(NodeId owner) const {
    if (total_ <= 0) {
      return 0.0;
    }
    return static_cast<double>(Airtime(owner)) / static_cast<double>(total_);
  }

  // Sorted snapshot of every node with charged airtime (readout path, not hot).
  std::map<NodeId, TimeNs> by_node() const {
    std::map<NodeId, TimeNs> out;
    for (size_t i = 0; i < airtime_.size(); ++i) {
      if (airtime_[i] > 0) {
        out.emplace(static_cast<NodeId>(i), airtime_[i]);
      }
    }
    return out;
  }

  void Reset() {
    airtime_.clear();
    total_ = 0;
  }

 private:
  std::vector<TimeNs> airtime_;  // Indexed by NodeId; zero = never charged.
  TimeNs total_ = 0;
};

// Jain's fairness index over a vector of allocations: (sum x)^2 / (n * sum x^2).
// 1.0 = perfectly fair; 1/n = maximally unfair.
double JainIndex(const std::vector<double>& allocations);

}  // namespace tbf::stats

#endif  // TBF_STATS_METERS_H_
