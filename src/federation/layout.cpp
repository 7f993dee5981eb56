#include "federation/layout.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/clock.hpp"

namespace clarens::federation {

namespace {

constexpr const char* kTable = "layout";

}  // namespace

const char* to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::Pending:
      return "pending";
    case ReplicaState::Healthy:
      return "healthy";
    case ReplicaState::Stale:
      return "stale";
    case ReplicaState::Missing:
      return "missing";
  }
  return "pending";
}

std::optional<ReplicaState> replica_state_from(const std::string& name) {
  if (name == "pending") return ReplicaState::Pending;
  if (name == "healthy") return ReplicaState::Healthy;
  if (name == "stale") return ReplicaState::Stale;
  if (name == "missing") return ReplicaState::Missing;
  return std::nullopt;
}

Replica* FileLayout::find(const std::string& node_id) {
  for (Replica& replica : replicas) {
    if (replica.node_id == node_id) return &replica;
  }
  return nullptr;
}

const Replica* FileLayout::find(const std::string& node_id) const {
  return const_cast<FileLayout*>(this)->find(node_id);
}

void FileLayout::mark(const std::string& node_id, ReplicaState state) {
  if (Replica* replica = find(node_id)) {
    replica->state = state;
    return;
  }
  replicas.push_back({node_id, state});
}

int FileLayout::count(ReplicaState state) const {
  int n = 0;
  for (const Replica& replica : replicas) n += replica.state == state;
  return n;
}

// Line-oriented value format (the path is the row key, never encoded):
//
//   v1
//   replica_count 2
//   checksum d41d8cd98f00b204e9800998ecf8427e confirmed
//   size 4096
//   generation 3
//   awaiting_notice
//   updated_at 1754700000
//   dn /O=testgrid.org/OU=People/CN=Alice Able
//   via_proxy 1 SERIAL
//   replica healthy fedfarm/fst1
//
// Node ids and DNs go last on their line, so embedded spaces survive.
// Unknown lines are skipped on decode (forward compatibility).
std::string FileLayout::encode() const {
  std::ostringstream out;
  out << "v1\n";
  out << "replica_count " << replica_count << "\n";
  if (!checksum.empty()) {
    out << "checksum " << checksum << (confirmed ? " confirmed" : " adopted")
        << "\n";
  }
  out << "size " << size << "\n";
  out << "generation " << generation << "\n";
  if (awaiting_notice) out << "awaiting_notice\n";
  out << "updated_at " << updated_at << "\n";
  if (!dn.empty()) out << "dn " << dn << "\n";
  if (via_proxy) out << "via_proxy " << proxy_serial << "\n";
  for (const Replica& replica : replicas) {
    out << "replica " << to_string(replica.state) << " " << replica.node_id
        << "\n";
  }
  return out.str();
}

std::optional<FileLayout> FileLayout::decode(const std::string& path,
                                             const std::string& value) {
  FileLayout layout;
  layout.path = path;
  std::istringstream in(value);
  std::string line;
  if (!std::getline(in, line) || line != "v1") return std::nullopt;
  while (std::getline(in, line)) {
    std::size_t space = line.find(' ');
    std::string key = line.substr(0, space);
    std::string rest =
        space == std::string::npos ? std::string() : line.substr(space + 1);
    if (key == "replica_count") {
      layout.replica_count = std::max(1, std::atoi(rest.c_str()));
    } else if (key == "checksum") {
      std::size_t flag = rest.find(' ');
      layout.checksum = rest.substr(0, flag);
      layout.confirmed =
          flag != std::string::npos && rest.substr(flag + 1) == "confirmed";
    } else if (key == "size") {
      layout.size = std::atoll(rest.c_str());
    } else if (key == "generation") {
      layout.generation = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "awaiting_notice") {
      layout.awaiting_notice = true;
    } else if (key == "updated_at") {
      layout.updated_at = std::atoll(rest.c_str());
    } else if (key == "dn") {
      layout.dn = rest;
    } else if (key == "via_proxy") {
      layout.via_proxy = true;
      layout.proxy_serial = rest;
    } else if (key == "replica") {
      std::size_t id = rest.find(' ');
      if (id == std::string::npos) continue;
      auto state = replica_state_from(rest.substr(0, id));
      if (!state) continue;
      layout.replicas.push_back({rest.substr(id + 1), *state});
    }
    // Unknown keys: skip.
  }
  return layout;
}

LayoutTable::LayoutTable(db::Store& store) : store_(store) {}

std::optional<FileLayout> LayoutTable::get(const std::string& path) const {
  // Point reads are snapshot reads in the store; no table lock needed.
  std::optional<std::string> value = store_.get(kTable, path);
  if (!value) return std::nullopt;
  return FileLayout::decode(path, *value);
}

void LayoutTable::put(const FileLayout& layout) {
  // lock-order: federation.layout -> db.store.shard
  util::LockGuard lock(mutex_);
  FileLayout stamped = layout;
  stamped.updated_at = util::unix_now();
  store_.put(kTable, stamped.path, stamped.encode());
}

void LayoutTable::erase(const std::string& path) {
  util::LockGuard lock(mutex_);
  store_.erase(kTable, path);
}

void LayoutTable::update(const std::string& path,
                         const std::function<bool(FileLayout&)>& fn) {
  // lock-order: federation.layout -> db.store.shard
  util::LockGuard lock(mutex_);
  FileLayout layout;
  if (std::optional<std::string> value = store_.get(kTable, path)) {
    if (std::optional<FileLayout> decoded = FileLayout::decode(path, *value)) {
      layout = std::move(*decoded);
    }
  }
  layout.path = path;
  if (!fn(layout)) return;
  layout.updated_at = util::unix_now();
  store_.put(kTable, path, layout.encode());
}

std::vector<std::string> LayoutTable::paths(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto& [key, _] : store_.scan_prefix(kTable, prefix)) {
    out.push_back(key);
  }
  return out;
}

std::size_t LayoutTable::size() const { return store_.size(kTable); }

}  // namespace clarens::federation
