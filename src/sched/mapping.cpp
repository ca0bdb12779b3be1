#include "sched/mapping.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace gridpipe::sched {

Mapping::Mapping(std::vector<grid::NodeId> stage_to_node) {
  assignment_.reserve(stage_to_node.size());
  for (const grid::NodeId n : stage_to_node) {
    assignment_.push_back({n});
  }
}

Mapping::Mapping(std::vector<std::vector<grid::NodeId>> assignment)
    : assignment_(std::move(assignment)) {}

Mapping Mapping::round_robin(std::size_t num_stages, std::size_t num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("round_robin: no nodes");
  std::vector<grid::NodeId> stage_to_node(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i) {
    stage_to_node[i] = static_cast<grid::NodeId>(i % num_nodes);
  }
  return Mapping(std::move(stage_to_node));
}

Mapping Mapping::block(std::size_t num_stages, std::size_t num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("block: no nodes");
  const std::size_t blocks = std::min(num_stages, num_nodes);
  std::vector<grid::NodeId> stage_to_node(num_stages);
  if (blocks > 0) {
    const std::size_t base = num_stages / blocks;
    const std::size_t extra = num_stages % blocks;
    std::size_t stage = 0;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::size_t len = base + (blk < extra ? 1 : 0);
      for (std::size_t k = 0; k < len; ++k) {
        stage_to_node[stage++] = static_cast<grid::NodeId>(blk);
      }
    }
  }
  return Mapping(std::move(stage_to_node));
}

Mapping Mapping::all_on(std::size_t num_stages, grid::NodeId node) {
  return Mapping(std::vector<grid::NodeId>(num_stages, node));
}

const std::vector<grid::NodeId>& Mapping::replicas(std::size_t stage) const {
  if (stage >= assignment_.size()) {
    throw std::out_of_range("Mapping::replicas: bad stage");
  }
  return assignment_[stage];
}

grid::NodeId Mapping::node_of(std::size_t stage) const {
  const auto& reps = replicas(stage);
  if (reps.empty()) throw std::logic_error("Mapping::node_of: empty stage");
  return reps.front();
}

std::size_t Mapping::replica_count(std::size_t stage) const {
  return replicas(stage).size();
}

bool Mapping::has_replication() const noexcept {
  return std::any_of(assignment_.begin(), assignment_.end(),
                     [](const auto& reps) { return reps.size() > 1; });
}

void Mapping::add_replica(std::size_t stage, grid::NodeId node) {
  if (stage >= assignment_.size()) {
    throw std::out_of_range("Mapping::add_replica: bad stage");
  }
  auto& reps = assignment_[stage];
  if (std::find(reps.begin(), reps.end(), node) == reps.end()) {
    reps.push_back(node);
  }
}

void Mapping::reassign(std::size_t stage, grid::NodeId node) {
  if (stage >= assignment_.size()) {
    throw std::out_of_range("Mapping::reassign: bad stage");
  }
  assignment_[stage] = {node};
}

std::vector<grid::NodeId> Mapping::nodes_used() const {
  std::set<grid::NodeId> used;
  for (const auto& reps : assignment_) used.insert(reps.begin(), reps.end());
  return {used.begin(), used.end()};
}

std::size_t Mapping::stages_on(grid::NodeId node) const noexcept {
  std::size_t count = 0;
  for (const auto& reps : assignment_) {
    count += static_cast<std::size_t>(
        std::count(reps.begin(), reps.end(), node));
  }
  return count;
}

std::vector<std::size_t> Mapping::moved_stages(const Mapping& from,
                                               const Mapping& to) {
  std::vector<std::size_t> moved;
  const std::size_t n = std::min(from.num_stages(), to.num_stages());
  for (std::size_t i = 0; i < n; ++i) {
    if (from.assignment_[i] != to.assignment_[i]) moved.push_back(i);
  }
  for (std::size_t i = n; i < std::max(from.num_stages(), to.num_stages());
       ++i) {
    moved.push_back(i);
  }
  return moved;
}

void Mapping::validate(std::size_t num_nodes) const {
  if (assignment_.empty()) {
    throw std::invalid_argument("Mapping: no stages");
  }
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    const auto& reps = assignment_[i];
    if (reps.empty()) {
      throw std::invalid_argument("Mapping: stage " + std::to_string(i) +
                                  " has no replicas");
    }
    // Replica lists are a handful of nodes: a quadratic scan beats
    // building a set for every candidate a mapper validates.
    for (auto r = reps.begin(); r != reps.end(); ++r) {
      if (std::find(reps.begin(), r, *r) != r) {
        throw std::invalid_argument(
            "Mapping: duplicate replica nodes on stage " + std::to_string(i));
      }
    }
    for (const grid::NodeId n : reps) {
      if (n >= num_nodes) {
        throw std::invalid_argument("Mapping: node id out of range on stage " +
                                    std::to_string(i));
      }
    }
  }
}

std::string Mapping::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < assignment_.size(); ++i) {
    if (i) out += ",";
    const auto& reps = assignment_[i];
    if (reps.size() == 1) {
      out += std::to_string(reps.front() + 1);  // 1-based like the paper
    } else {
      out += "[";
      for (std::size_t r = 0; r < reps.size(); ++r) {
        if (r) out += "|";
        out += std::to_string(reps[r] + 1);
      }
      out += "]";
    }
  }
  out += ")";
  return out;
}

}  // namespace gridpipe::sched
