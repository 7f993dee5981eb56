#include "core/file_service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "crypto/md5.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace clarens::core {

FileService::FileService(AclManager& acl) : acl_(acl) {}

void FileService::add_root(const std::string& virtual_prefix,
                           const std::string& directory) {
  if (virtual_prefix.empty() || virtual_prefix.front() != '/') {
    throw ParseError("virtual root must start with '/': " + virtual_prefix);
  }
  fs::path canonical = fs::weakly_canonical(directory);
  roots_[virtual_prefix] = canonical.string();
}

std::vector<std::string> FileService::roots() const {
  std::vector<std::string> out;
  for (const auto& [prefix, _] : roots_) out.push_back(prefix);
  return out;
}

std::string FileService::resolve(const std::string& path) const {
  if (path.empty() || path.front() != '/') {
    throw AccessError("file paths must be absolute: '" + path + "'");
  }
  // Longest matching virtual prefix wins.
  const std::string* best_prefix = nullptr;
  const std::string* best_dir = nullptr;
  for (const auto& [prefix, dir] : roots_) {
    bool matches = path == prefix || util::starts_with(path, prefix + "/") ||
                   prefix == "/";
    if (matches && (!best_prefix || prefix.size() > best_prefix->size())) {
      best_prefix = &prefix;
      best_dir = &dir;
    }
  }
  if (!best_prefix) {
    throw NotFoundError("no virtual root matches '" + path + "'");
  }
  std::string rest = path.substr(best_prefix->size() == 1 && (*best_prefix)[0] == '/'
                                     ? 0
                                     : best_prefix->size());
  // Normalize and enforce containment: the resolved path must stay under
  // the root directory even in the presence of ".." components.
  fs::path real = fs::path(*best_dir) / fs::path(rest).relative_path();
  fs::path normal = real.lexically_normal();
  fs::path root_normal = fs::path(*best_dir).lexically_normal();
  auto rel = normal.lexically_relative(root_normal);
  if (rel.empty() || (!rel.native().empty() && *rel.begin() == "..")) {
    throw AccessError("path escapes virtual root: '" + path + "'");
  }
  return normal.string();
}

void FileService::require_read(const std::string& path,
                               const pki::DistinguishedName& who) const {
  if (!acl_.check_file_read(path, who)) {
    throw AccessError("read access denied: '" + path + "'");
  }
}

void FileService::require_write(const std::string& path,
                                const pki::DistinguishedName& who) const {
  if (!acl_.check_file_write(path, who)) {
    throw AccessError("write access denied: '" + path + "'");
  }
}

std::vector<std::uint8_t> FileService::read(const std::string& path,
                                            std::int64_t offset,
                                            std::int64_t length,
                                            const pki::DistinguishedName& who) const {
  require_read(path, who);
  if (offset < 0 || length < 0) throw ParseError("negative offset or length");
  if (length > max_read_chunk_) {
    throw ParseError("read length " + std::to_string(length) +
                     " exceeds maximum chunk of " +
                     std::to_string(max_read_chunk_) + " bytes");
  }
  std::string real = resolve(path);
  std::ifstream in(real, std::ios::binary);
  if (!in) throw NotFoundError("cannot open file: '" + path + "'");
  // The length arrives from the wire; size the buffer by what the file
  // can actually yield, never by the request alone.
  in.seekg(0, std::ios::end);
  std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  std::int64_t remaining = file_size > offset ? file_size - offset : 0;
  std::int64_t to_read = std::min(length, remaining);
  in.seekg(offset);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(to_read));
  in.read(reinterpret_cast<char*>(out.data()), to_read);
  out.resize(static_cast<std::size_t>(in.gcount()));
  return out;
}

FileService::ResolvedRegion FileService::read_region(
    const std::string& path, std::int64_t offset, std::int64_t length,
    const pki::DistinguishedName& who) const {
  require_read(path, who);
  if (offset < 0 || length < 0) throw ParseError("negative offset or length");
  if (length > max_read_chunk_) {
    throw ParseError("read length " + std::to_string(length) +
                     " exceeds maximum chunk of " +
                     std::to_string(max_read_chunk_) + " bytes");
  }
  ResolvedRegion region;
  region.real_path = resolve(path);
  std::error_code ec;
  auto file_size =
      static_cast<std::int64_t>(fs::file_size(region.real_path, ec));
  if (ec) throw NotFoundError("cannot open file: '" + path + "'");
  std::int64_t remaining = file_size > offset ? file_size - offset : 0;
  region.offset = offset;
  region.length = std::min(length, remaining);
  return region;
}

std::vector<FileStat> FileService::ls(const std::string& path,
                                      const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  if (!fs::is_directory(real, ec)) {
    throw NotFoundError("not a directory: '" + path + "'");
  }
  std::vector<FileStat> out;
  for (const auto& entry : fs::directory_iterator(real, ec)) {
    FileStat st;
    st.name = entry.path().filename().string();
    st.is_directory = entry.is_directory(ec);
    if (!st.is_directory) {
      st.size = static_cast<std::int64_t>(entry.file_size(ec));
    }
    struct ::stat raw{};
    if (::stat(entry.path().c_str(), &raw) == 0) st.mtime = raw.st_mtime;
    out.push_back(std::move(st));
  }
  std::sort(out.begin(), out.end(),
            [](const FileStat& a, const FileStat& b) { return a.name < b.name; });
  return out;
}

FileStat FileService::stat(const std::string& path,
                           const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  struct ::stat raw{};
  if (::stat(real.c_str(), &raw) != 0) {
    throw NotFoundError("no such file: '" + path + "'");
  }
  FileStat st;
  std::size_t slash = path.rfind('/');
  st.name = slash == std::string::npos ? path : path.substr(slash + 1);
  st.is_directory = S_ISDIR(raw.st_mode);
  st.size = st.is_directory ? 0 : raw.st_size;
  st.mtime = raw.st_mtime;
  return st;
}

std::string FileService::md5(const std::string& path,
                             const pki::DistinguishedName& who) const {
  return checksum(path, who).md5;
}

FileService::FileChecksum FileService::checksum(
    const std::string& path, const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  FileChecksum out;
  std::optional<std::string> hex = crypto::Md5::file_hex(real, &out.size);
  if (!hex) throw NotFoundError("cannot open file: '" + path + "'");
  out.md5 = std::move(*hex);
  return out;
}

std::vector<std::string> FileService::find(const std::string& path,
                                           const std::string& pattern,
                                           const pki::DistinguishedName& who) const {
  require_read(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  std::vector<std::string> out;
  fs::path base(real);
  for (auto it = fs::recursive_directory_iterator(
           base, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    std::string name = it->path().filename().string();
    if (pattern == "*" || name.find(pattern) != std::string::npos) {
      // Report the virtual path: prefix + relative part.
      fs::path rel = it->path().lexically_relative(base);
      std::string virtual_path = path;
      if (virtual_path.back() != '/') virtual_path.push_back('/');
      virtual_path += rel.string();
      out.push_back(std::move(virtual_path));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t FileService::size(const std::string& path,
                               const pki::DistinguishedName& who) const {
  return stat(path, who).size;
}

void FileService::write(const std::string& path,
                        std::span<const std::uint8_t> data,
                        const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  // The detail is the resolved path: in-process cluster tests arm the
  // point against one node's data directory to fail just that node.
  if (CLARENS_FAULT("file.write.eio", real)) {
    throw SystemError("injected I/O error writing '" + path + "'");
  }
  std::ofstream out(real, std::ios::binary | std::ios::trunc);
  if (!out) throw SystemError("cannot write file: '" + path + "'");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.close();  // a full disk shows only when the buffer is flushed
  if (!out) throw SystemError("cannot write file: '" + path + "'");
}

void FileService::append(const std::string& path,
                         std::span<const std::uint8_t> data,
                         const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  if (CLARENS_FAULT("file.write.eio", real)) {
    throw SystemError("injected I/O error appending to '" + path + "'");
  }
  std::ofstream out(real, std::ios::binary | std::ios::app);
  if (!out) throw SystemError("cannot append to file: '" + path + "'");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.close();
  if (!out) throw SystemError("cannot append to file: '" + path + "'");
}

void FileService::mkdir(const std::string& path,
                        const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  fs::create_directories(real, ec);
  if (ec) throw SystemError("mkdir failed: '" + path + "': " + ec.message());
}

void FileService::remove(const std::string& path,
                         const pki::DistinguishedName& who) const {
  require_write(path, who);
  std::string real = resolve(path);
  std::error_code ec;
  if (!fs::remove_all(real, ec) || ec) {
    if (ec) throw SystemError("remove failed: '" + path + "': " + ec.message());
    throw NotFoundError("no such file: '" + path + "'");
  }
}

std::string FileService::resolve_for_read(const std::string& path,
                                          const pki::DistinguishedName& who) const {
  require_read(path, who);
  return resolve(path);
}

}  // namespace clarens::core
