// replica.* + file.layout — the head's replication control plane
// (ISSUE 10 tentpole).
//
// These bindings expose the layout table and the background repair
// engine: inspect where a file's replicas live and what state they are
// in (file.layout, replica.list), force a synchronous repair
// (replica.repair), evacuate a node (replica.drain), run the checksum
// scrub on demand (replica.fsck), and read engine counters
// (replica.status). Two methods close feedback loops rather than serve
// operators: replica.report is how a client tells the head a redirect
// target did not answer, and replica.committed is how a storage node
// reports that a write just landed on it — the only method a node
// ticket authorizes on the head (server.cpp gates it; the binding
// re-checks the ticket scope against the reported path).
#include "core/bindings/bindings.hpp"

#include "core/server.hpp"
#include "federation/layout.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "rpc/fault.hpp"

namespace clarens::core::bindings {

namespace {

federation::WriterIdentity writer_of(const rpc::CallContext& context) {
  return {context.identity, context.via_proxy, context.proxy_serial};
}

rpc::Value layout_value(const federation::FileLayout& layout) {
  rpc::Value v = rpc::Value::struct_();
  v.set("path", layout.path);
  v.set("replica_count", static_cast<std::int64_t>(layout.replica_count));
  v.set("checksum", layout.checksum);
  v.set("confirmed", layout.confirmed);
  v.set("size", layout.size);
  v.set("updated_at", layout.updated_at);
  rpc::Value replicas = rpc::Value::array();
  for (const auto& replica : layout.replicas) {
    rpc::Value r = rpc::Value::struct_();
    r.set("node", replica.node_id);
    r.set("state", std::string(federation::to_string(replica.state)));
    replicas.push(r);
  }
  v.set("replicas", replicas);
  return v;
}

rpc::Value fsck_value(const federation::FsckReport& report) {
  rpc::Value v = rpc::Value::struct_();
  v.set("files", report.files);
  v.set("replicas_checked", report.replicas_checked);
  v.set("mismatched", report.mismatched);
  v.set("missing", report.missing);
  v.set("unreachable", report.unreachable);
  v.set("repaired", report.repaired);
  v.set("failed", report.failed);
  v.set("under_replicated", report.under_replicated);
  return v;
}

}  // namespace

void register_replica_methods(ClarensServer& server,
                              federation::Router& router,
                              federation::LayoutTable& layouts,
                              federation::Replicator& replicator,
                              rpc::Registry& registry) {
  (void)server;
  federation::Router* r = &router;
  federation::LayoutTable* l = &layouts;
  federation::Replicator* rep = &replicator;

  registry.bind(
      "file.layout",
      [r, l](const rpc::CallContext&, const std::string& path) {
        std::optional<federation::FileLayout> layout = l->get(path);
        if (!layout) {
          throw rpc::Fault(rpc::kFaultNotFound,
                           "no layout recorded for '" + path + "'");
        }
        rpc::Value v = layout_value(*layout);
        // The ring's current opinion rides along so an operator can see
        // placement drift (layout replicas vs. where the ring would put
        // the file today).
        rpc::Value owners = rpc::Value::array();
        for (const auto& node :
             r->route_owners(path, layout->replica_count)) {
          owners.push(node.id);
        }
        v.set("ring_owners", owners);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Replica layout of a file: target count, checksum, "
               "per-replica state",
       .params = {"path"}});

  registry.bind(
      "replica.list",
      [l](const rpc::CallContext&, const std::string& prefix) -> rpc::Value {
        rpc::Value out = rpc::Value::array();
        for (const auto& path : l->paths(prefix)) {
          if (std::optional<federation::FileLayout> layout = l->get(path)) {
            out.push(layout_value(*layout));
          }
        }
        return out;
      },
      {.help = "Layouts of every managed file under a prefix ('' = all)",
       .params = {"prefix"}});

  registry.bind(
      "replica.repair",
      [rep](const rpc::CallContext& context, const std::string& path) {
        std::string error;
        bool ok = rep->repair_file(path, writer_of(context), &error);
        rpc::Value v = rpc::Value::struct_();
        v.set("ok", ok);
        if (!ok) v.set("error", error);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Synchronously restore a file to its replica target",
       .params = {"path"}});

  registry.bind(
      "replica.drain",
      [rep](const rpc::CallContext&, const std::string& node_id) {
        return static_cast<std::int64_t>(rep->drain(node_id));
      },
      {.help = "Evacuate a storage node: re-replicate its files "
               "elsewhere, then purge its copies",
       .params = {"node_id"}});

  registry.bind(
      "replica.fsck",
      [rep](const rpc::CallContext&, const std::string& prefix) {
        return rpc::StructResult{fsck_value(rep->fsck(prefix))};
      },
      {.help = "Checksum-scrub every replica under a prefix ('' = all) "
               "and repair divergence",
       .params = {"prefix"}});

  registry.bind(
      "replica.status",
      [l, rep](const rpc::CallContext&) {
        federation::ReplicatorStats stats = rep->stats();
        rpc::Value v = rpc::Value::struct_();
        v.set("files", static_cast<std::int64_t>(l->size()));
        v.set("enqueued", static_cast<std::int64_t>(stats.enqueued));
        v.set("completed", static_cast<std::int64_t>(stats.completed));
        v.set("retried", static_cast<std::int64_t>(stats.retried));
        v.set("parked", static_cast<std::int64_t>(stats.parked));
        v.set("copies", static_cast<std::int64_t>(stats.copies));
        v.set("bytes_copied", static_cast<std::int64_t>(stats.bytes_copied));
        v.set("commits", static_cast<std::int64_t>(stats.commits));
        v.set("fsck_runs", static_cast<std::int64_t>(stats.fsck_runs));
        v.set("read_failures_reported",
              static_cast<std::int64_t>(stats.read_failures_reported));
        v.set("queue_depth", static_cast<std::int64_t>(stats.queue_depth));
        v.set("suspects", static_cast<std::int64_t>(stats.suspects));
        v.set("draining", static_cast<std::int64_t>(stats.draining));
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Repair-engine counters and queue state"});

  registry.bind(
      "replica.report",
      [rep](const rpc::CallContext&, const std::string& node_url) {
        rep->report_failure(node_url);
        return true;
      },
      {.help = "Client-side failure report: a redirect target did not "
               "answer; route reads elsewhere",
       .params = {"node_url"}});

  registry.bind(
      "replica.committed",
      [rep](const rpc::CallContext& context, const std::string& path,
            const std::string& node_id) {
        // A storage node authenticates this with a self-minted node
        // ticket; its scope is the committed path, so a leaked ticket
        // for one file cannot reopen another file's layout.
        check_ticket(context, path, /*write=*/false);
        rep->note_commit(path, node_id, writer_of(context));
        return true;
      },
      {.help = "Storage-node landed-write notice: newer bytes of a file "
               "sit on this node",
       .params = {"path", "node_id"}});
}

}  // namespace clarens::core::bindings
