// Background repair engine: the head-side daemon that makes the layout
// table true (ISSUE 10 tentpole).
//
// The write path only ever lands bytes on ONE storage node (the client
// is redirected to the primary owner and writes there directly). The
// Replicator is what turns that single copy into `replica_count` copies,
// and what puts the cluster back together after a node dies or a disk
// silently flips a bit:
//
//   * note_write/note_commit/note_remove feed it layout events from the
//     head's method bindings; each enqueues work on an internal queue.
//     Write events are debounced: each one bumps the layout generation
//     and pushes the file's task back by retry_base_ms, capped at
//     retry_max_ms after the first event, so a file written in many
//     appends is hashed and copied once, when the writes go quiet.
//   * A single worker thread drains the queue through the Router's
//     keep-alive peer pools: confirm the primary's checksum with one
//     file.checksum poll (dropped if the generation moved meanwhile;
//     only adopted while the last redirect awaits its notice),
//     copy chunks from a healthy replica (file.read), land them on the
//     target (file.write + file.append), then verify with file.checksum
//     before marking the replica healthy.
//     Failures retry with capped exponential backoff + jitter; after
//     retry_max attempts the task is parked (the periodic
//     under-replication sweep and the fsck scrub pick it up again).
//   * A membership tick watches Router::storage_nodes(): a node gone for
//     longer than the grace period has its replicas marked missing and
//     every affected file re-replicated elsewhere; a (re)joining node
//     triggers an under-replication sweep.
//   * fsck() is the scrub: stream-checksum every replica of every layout
//     (file.checksum on the storage nodes), mark mismatches stale,
//     missing files missing, and repair from a healthy copy. With
//     fsck_interval_ms > 0 the worker runs it periodically.
//   * report_failure()/pick_read_node() close the read loop: a client
//     that could not reach a redirect target reports the node, the head
//     marks it suspect for suspect_ttl_ms, and subsequent reads route to
//     a healthy replica immediately — no failed client reads while
//     discovery catches up with a dead node.
//
// Locking: the rank-20 federation.replicator mutex guards ONLY queue,
// liveness, suspect and stats state. It is never held across a peer
// call, a layout-table access, or any Router method (the router's own
// mutex shares rank 20 — holding both would be a sideways acquisition
// and the rank checker aborts).
//
// Repair authority: copies are made with node tickets minted for the
// layout's recorded writer identity, so the repair engine never holds
// more authority than the write that created the data. The tickets carry
// the signed replication bit, so the targets send no landed-write notice
// for the copy's own chunks.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "federation/layout.hpp"
#include "federation/router.hpp"
#include "rpc/value.hpp"
#include "util/sync.hpp"

namespace clarens::federation {

struct ReplicatorOptions {
  /// Default replica_count stamped on new layouts (placement_replicas).
  int replicas = 1;
  /// Attempts per queued task before it is parked.
  int retry_max = 8;
  /// First retry delay; doubles per attempt up to retry_max_ms, with
  /// +-25% jitter so a cluster-wide event does not retry in lockstep.
  int retry_base_ms = 100;
  int retry_max_ms = 5000;
  /// How long a node must be absent from the ring before its replicas
  /// are declared missing and re-replication starts.
  int node_grace_ms = 5000;
  /// How long a client-reported unreachable node is skipped for reads.
  int suspect_ttl_ms = 3000;
  /// Membership/liveness poll cadence of the worker thread.
  int tick_ms = 250;
  /// Cadence of the catch-all under-replication sweep (re-queues parked
  /// work).
  int rescan_ms = 5000;
  /// Periodic fsck scrub cadence; 0 = scrub only on demand.
  int fsck_interval_ms = 0;
  /// Bytes per file.read/file.append hop during a replica copy. Must not
  /// exceed the storage nodes' max_read_chunk.
  std::int64_t copy_chunk = 1 << 20;
};

/// Identity a layout event was performed under (from the RPC context).
struct WriterIdentity {
  std::string dn;
  bool via_proxy = false;
  std::string proxy_serial;
};

/// One fsck pass, summarized (the replica.fsck result).
struct FsckReport {
  std::int64_t files = 0;             ///< layouts examined
  std::int64_t replicas_checked = 0;  ///< remote checksums computed
  std::int64_t mismatched = 0;        ///< replicas marked stale
  std::int64_t missing = 0;           ///< replicas found absent
  std::int64_t unreachable = 0;       ///< nodes that did not answer
  std::int64_t repaired = 0;          ///< replica copies restored
  std::int64_t failed = 0;            ///< files whose repair did not finish
  std::int64_t under_replicated = 0;  ///< files still below target after
};

struct ReplicatorStats {
  std::uint64_t enqueued = 0;
  std::uint64_t completed = 0;
  std::uint64_t retried = 0;
  std::uint64_t parked = 0;
  std::uint64_t copies = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t commits = 0;
  std::uint64_t fsck_runs = 0;
  std::uint64_t read_failures_reported = 0;
  std::size_t queue_depth = 0;
  std::size_t suspects = 0;
  std::size_t draining = 0;
};

class Replicator {
 public:
  Replicator(Router& router, LayoutTable& layouts, ReplicatorOptions options);
  /// Joins the worker; safe when start() was never called.
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  void start();
  void stop();

  /// A write/append redirect for `path` was minted toward `primary_id`:
  /// the layout reopens — generation bumped, checksum unknown until the
  /// debounced confirm poll, every other replica presumed stale — and
  /// awaits the write's landed-write notice.
  void note_write(const std::string& path, const std::string& primary_id,
                  const WriterIdentity& who);

  /// A storage node reported a landed write (replica.committed): the
  /// layout reopens exactly as for note_write, with `node_id` as the
  /// primary, and no longer awaits a notice. Constant cost; the hash
  /// comes from the confirm poll.
  void note_commit(const std::string& path, const std::string& node_id,
                   const WriterIdentity& who);

  /// A remove redirect was minted: purge the remaining replicas and the
  /// layout row (covers every layout under `path` when it is a tree).
  void note_remove(const std::string& path);

  /// A client failed to reach `node_url` on a redirected read; skip the
  /// node for reads until the suspect TTL lapses.
  void report_failure(const std::string& node_url);
  bool is_suspect(const NodeInfo& node) const;

  /// Best node to serve a read of `path`: healthy layout replicas first
  /// (live, non-suspect, non-draining), then ring owners; nullopt when
  /// nothing qualifies (caller serves locally).
  std::optional<NodeInfo> pick_read_node(const std::string& path);

  /// Synchronous repair of one file (replica.repair). A file with no
  /// layout is adopted: storage nodes are probed for the bytes and the
  /// first copy found becomes the adopted truth.
  bool repair_file(const std::string& path, const WriterIdentity& who,
                   std::string* error);

  /// Move every replica off `node_id` (replica.drain): the node stops
  /// being a placement target for managed files and its copies are
  /// purged once re-replicated. Returns the number of files enqueued.
  std::size_t drain(const std::string& node_id);

  /// Scrub every layout under `prefix` ("" = all): verify checksums,
  /// mark divergence, repair from a healthy copy.
  FsckReport fsck(const std::string& prefix);

  ReplicatorStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Task {
    enum class Kind { Replicate, Purge } kind = Kind::Replicate;
    std::string path;
    int attempt = 0;
    Clock::time_point not_before{};
    /// Write events never postpone the task past this instant.
    Clock::time_point deadline{};
  };

  void run_worker();
  void execute(Task task);
  void tick();
  void on_node_lost(const std::string& node_id);
  void enqueue_under_replicated();
  /// Now pulls the path's queued task forward, Quiet (a write) pushes it
  /// back, Sweep only hurries a task in backoff.
  enum class Urgency { Now, Quiet, Sweep };
  void enqueue(Task::Kind kind, const std::string& path, Urgency urgency);
  /// note_write (`minted`: the redirect's notice is awaited) and
  /// note_commit (the notice).
  void reopen(const std::string& path, const std::string& primary_id,
              const WriterIdentity& who, bool minted);

  /// Bring `path` up to its layout's replica target. `copies_out`, when
  /// non-null, accumulates the number of replica copies made.
  bool run_replicate(const std::string& path, int* copies_out,
                     std::string* error_out);
  bool run_purge(const std::string& path, std::string* error_out);
  bool copy_replica(const FileLayout& layout, const NodeInfo& source,
                    const NodeInfo& target, std::string* error_out);
  /// Poll the primary's checksum and record it as the layout truth,
  /// unless the generation moved during the poll: confirmed, or only
  /// adopted while the last minted redirect awaits its notice. Reloads
  /// `layout` whenever the poll answered.
  bool confirm(FileLayout& layout, const std::vector<NodeInfo>& live,
               std::string* error_out);

  /// Ring owners for `path` honoring its layout target and skipping
  /// draining nodes.
  std::vector<NodeInfo> desired_owners(const std::string& path, int want);

  rpc::Value call_node(const NodeInfo& node, const std::string& method,
                       std::vector<rpc::Value> params, const FileLayout& layout,
                       bool write);

  int backoff_ms_locked(int attempt) CLARENS_REQUIRES(mutex_);
  void expire_suspects_locked(Clock::time_point now) CLARENS_REQUIRES(mutex_);

  Router& router_;
  LayoutTable& layouts_;
  ReplicatorOptions options_;

  mutable util::Mutex mutex_{util::LockLevel::kFederationReplicator};
  util::CondVar cv_;
  bool started_ CLARENS_GUARDED_BY(mutex_) = false;
  bool stopping_ CLARENS_GUARDED_BY(mutex_) = false;
  std::deque<Task> queue_ CLARENS_GUARDED_BY(mutex_);
  std::map<std::string, Clock::time_point> last_seen_ CLARENS_GUARDED_BY(
      mutex_);
  std::set<std::string> gone_ CLARENS_GUARDED_BY(mutex_);
  std::map<std::string, Clock::time_point> suspects_ CLARENS_GUARDED_BY(
      mutex_);
  std::set<std::string> draining_ CLARENS_GUARDED_BY(mutex_);
  bool seeded_membership_ CLARENS_GUARDED_BY(mutex_) = false;
  std::uint64_t rand_state_ CLARENS_GUARDED_BY(mutex_) = 0x9e3779b97f4a7c15ull;
  ReplicatorStats stats_ CLARENS_GUARDED_BY(mutex_);

  util::Thread worker_;
};

}  // namespace clarens::federation
