// file.* — remote file access under virtual roots (paper §2.3).
#include "core/bindings/bindings.hpp"

#include "core/file_service.hpp"
#include "federation/node_ticket.hpp"
#include "util/error.hpp"

namespace clarens::core::bindings {

void check_ticket(const rpc::CallContext& context, const std::string& path,
                  bool write) {
  if (!context.via_ticket) return;
  if (write && !context.ticket_write) {
    throw AccessError("node ticket is read-only: " + path);
  }
  if (!federation::NodeTicket::scope_covers(context.ticket_scope, path)) {
    throw AccessError("node ticket does not cover path: " + path);
  }
}

namespace {

rpc::Value stat_value(const FileStat& st) {
  rpc::Value v = rpc::Value::struct_();
  v.set("name", st.name);
  v.set("is_directory", st.is_directory);
  v.set("size", st.size);
  v.set("mtime", rpc::DateTime{st.mtime});
  return v;
}

}  // namespace

void register_file_methods(FileService& files, rpc::Registry& registry,
                           CommitHook on_commit) {
  FileService* f = &files;
  // Fire the commit hook only for ticket-authorized mutations: those are
  // the writes a storage node executes on the head's behalf, and the
  // hook tells the head's layout table that newer bytes landed here.
  // Session-authenticated (local/standalone) writes have no layout.
  // The repair engine's own copies carry the signed replication bit and
  // are excluded: the head already knows what it is landing, and a
  // notice per copy chunk would reopen the layout it is completing.
  // A failed write notifies too: it may have left part of its bytes, and
  // either way it answers the redirect whose notice the head awaits.
  auto committed = [on_commit](const rpc::CallContext& context,
                               const std::string& path, auto&& write) {
    bool notify = on_commit && context.via_ticket && !context.replication;
    try {
      write();
    } catch (...) {
      if (notify) on_commit(context, path);
      throw;
    }
    if (notify) on_commit(context, path);
  };

  registry.bind(
      "file.read",
      [f](const rpc::CallContext& context, const std::string& path,
          std::int64_t offset, std::int64_t length)
          -> std::vector<std::uint8_t> {
        check_ticket(context, path, /*write=*/false);
        // When the transport can stream a file region zero-copy and the
        // request is large enough to be worth it, hand back the resolved
        // range instead of materializing the bytes; the dispatcher
        // splices it into the response framing with sendfile(2). The
        // empty return value is discarded.
        std::int64_t threshold = f->sendfile_threshold();
        if (context.offer_file_region && threshold >= 0 &&
            length >= threshold) {
          FileService::ResolvedRegion region =
              f->read_region(path, offset, length, caller_dn(context));
          context.file_region = {region.real_path, region.offset,
                                 region.length};
          return {};
        }
        return f->read(path, offset, length, caller_dn(context));
      },
      {.help = "Read a byte range of a remote file",
       .params = {"path", "offset", "length"}});

  registry.bind(
      "file.write",
      [f, committed](const rpc::CallContext& context, const std::string& path,
                     rpc::Blob data) {
        check_ticket(context, path, /*write=*/true);
        committed(context, path,
                  [&] { f->write(path, data.bytes, caller_dn(context)); });
        return true;
      },
      {.help = "Create or overwrite a remote file",
       .params = {"path", "data"}});

  registry.bind(
      "file.append",
      [f, committed](const rpc::CallContext& context, const std::string& path,
                     rpc::Blob data) {
        check_ticket(context, path, /*write=*/true);
        committed(context, path,
                  [&] { f->append(path, data.bytes, caller_dn(context)); });
        return true;
      },
      {.help = "Append to (creating if needed) a remote file",
       .params = {"path", "data"}});

  registry.bind(
      "file.ls",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        rpc::Array out;
        for (const auto& st : f->ls(path, caller_dn(context))) {
          out.push_back(stat_value(st));
        }
        return out;
      },
      {.help = "Directory listing", .params = {"path"}});

  registry.bind(
      "file.stat",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return rpc::StructResult{stat_value(f->stat(path, caller_dn(context)))};
      },
      {.help = "File or directory information", .params = {"path"}});

  registry.bind(
      "file.md5",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return f->md5(path, caller_dn(context));
      },
      {.help = "MD5 integrity hash of a file", .params = {"path"}});

  registry.bind(
      "file.checksum",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        FileService::FileChecksum sum = f->checksum(path, caller_dn(context));
        rpc::Value v = rpc::Value::struct_();
        v.set("md5", sum.md5);
        v.set("size", sum.size);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "MD5 hash and size in one pass (fsck scrub primitive)",
       .params = {"path"}});

  registry.bind(
      "file.size",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return f->size(path, caller_dn(context));
      },
      {.help = "Size of a file in bytes", .params = {"path"}});

  registry.bind(
      "file.find",
      [f](const rpc::CallContext& context, const std::string& path,
          const std::string& pattern) {
        check_ticket(context, path, /*write=*/false);
        return f->find(path, pattern, caller_dn(context));
      },
      {.help = "Recursive filename search", .params = {"path", "pattern"}});

  registry.bind(
      "file.mkdir",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/true);
        f->mkdir(path, caller_dn(context));
        return true;
      },
      {.help = "Create a directory", .params = {"path"}});

  registry.bind(
      "file.rm",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/true);
        f->remove(path, caller_dn(context));
        return true;
      },
      {.help = "Remove a file or directory tree", .params = {"path"}});

  registry.bind(
      "file.roots", [f] { return f->roots(); },
      {.help = "Configured virtual root prefixes"});
}

}  // namespace clarens::core::bindings
