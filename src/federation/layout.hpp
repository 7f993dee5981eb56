// Per-file replica layouts (ISSUE 10 tentpole).
//
// The head records, for every file written through it, *where the bytes
// are supposed to live and what they are supposed to hash to*: a
// FileLayout names the target replica count, the authoritative checksum
// and size, and one entry per replica with its node id and state. The
// replicator and the fsck scrubber reconcile the cluster against this
// table; read routing prefers replicas the table believes are healthy.
//
// Replica states:
//   pending  — holds (or is about to receive) the newest bytes, whose
//              hash is not known yet: a write redirect was minted toward
//              it or it sent a landed-write notice;
//   healthy  — last verified to match the layout checksum;
//   stale    — bytes exist but hashed differently (corruption, or an
//              interrupted copy); never served, repaired by fsck;
//   missing  — the node lacks the file (new replica target, node
//              returned empty, or NotFound during a scrub).
//
// Every write event (redirect minted, landed-write notice) bumps the
// layout's generation and clears its checksum. The checksum is
// *confirmed* when the replicator polled it from the primary — the node
// that took the last write — after the landed-write notice of the last
// minted redirect came in, and the generation did not move during the
// poll. Any other hash is merely adopted: a poll taken before a
// redirected write landed, or whatever copy replica.repair found of a
// file the head had no layout for. fsck re-polls the primary before trusting an adopted hash (it
// could predate the client's write; overwriting the primary from it
// would lose data).
//
// Persistence: one db::Store row per file in table "layout" (the head's
// own store), a line-oriented value format parsed leniently so layouts
// survive rolling upgrades. LayoutTable serializes read-modify-writes
// behind a rank-22 mutex (federation.layout); the store itself is
// thread-safe below it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/store.hpp"
#include "util/sync.hpp"

namespace clarens::federation {

enum class ReplicaState { Pending, Healthy, Stale, Missing };

const char* to_string(ReplicaState state);
std::optional<ReplicaState> replica_state_from(const std::string& name);

struct Replica {
  std::string node_id;  // "<farm>/<node>", as the placement ring names it
  ReplicaState state = ReplicaState::Pending;
};

struct FileLayout {
  std::string path;
  int replica_count = 1;
  std::string checksum;      // hex MD5 of the content; "" = not yet known
  bool confirmed = false;    // checksum polled from the primary, no write since
  std::int64_t size = -1;    // -1 = not yet known
  std::uint64_t generation = 0;  // bumped by every write event
  bool awaiting_notice = false;  // a redirect minted since the last notice
  std::int64_t updated_at = 0;  // unix seconds of the last table write
  /// Writer identity: repair copies are made with tickets minted for the
  /// original writer, so the repair engine never holds more authority
  /// than the write that created the data.
  std::string dn;
  bool via_proxy = false;
  std::string proxy_serial;
  std::vector<Replica> replicas;  // primary first

  Replica* find(const std::string& node_id);
  const Replica* find(const std::string& node_id) const;
  /// Mark (adding if absent) `node_id` with `state`.
  void mark(const std::string& node_id, ReplicaState state);
  int count(ReplicaState state) const;

  std::string encode() const;
  static std::optional<FileLayout> decode(const std::string& path,
                                          const std::string& value);
};

class LayoutTable {
 public:
  explicit LayoutTable(db::Store& store);

  std::optional<FileLayout> get(const std::string& path) const;
  void put(const FileLayout& layout);
  void erase(const std::string& path);

  /// Atomically read-modify-write one layout. `fn` receives the current
  /// layout (or a fresh one with just `path` set when absent) and
  /// returns true to store the result, false to leave the table
  /// untouched. The table mutex is held across the store write, never
  /// across anything blocking.
  void update(const std::string& path,
              const std::function<bool(FileLayout&)>& fn);

  /// Paths of every layout under `prefix` ("" = all), sorted.
  std::vector<std::string> paths(const std::string& prefix = "") const;

  std::size_t size() const;

 private:
  db::Store& store_;
  mutable util::Mutex mutex_{util::LockLevel::kFederationLayout};
};

}  // namespace clarens::federation
