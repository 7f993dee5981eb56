// Unit tests for the file service: virtual roots, containment, every
// file.* operation, and ACL gating.
#include <gtest/gtest.h>

#include <fstream>

#include "core/file_service.hpp"
#include "core/vo.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;

const char* kAliceStr = "/O=grid/CN=Alice";

pki::DistinguishedName alice() {
  return pki::DistinguishedName::parse(kAliceStr);
}

struct FileFixture : ::testing::Test {
  db::Store store;
  VoManager vo{store, {}};
  AclManager acl{store, vo, /*default_allow=*/false};
  FileService files{acl};
  TempDir tmp;
  std::string dir;

  FileFixture() : dir(tmp.sub("root")) {
    files.add_root("/data", dir);
    FileAcl open;
    open.read.allow_dns = {"*"};
    open.write.allow_dns = {"*"};
    acl.set_file_acl("/data", open);
    write_file("hello.txt", "hello world");
    std::filesystem::create_directories(dir + "/sub");
    write_file("sub/nested.bin", std::string(1000, 'x'));
  }

  void write_file(const std::string& rel, const std::string& content) {
    std::ofstream out(dir + "/" + rel, std::ios::binary);
    out << content;
  }
};

TEST_F(FileFixture, ReadWholeAndPartial) {
  auto all = files.read("/data/hello.txt", 0, 100, alice());
  EXPECT_EQ(std::string(all.begin(), all.end()), "hello world");
  auto mid = files.read("/data/hello.txt", 6, 5, alice());
  EXPECT_EQ(std::string(mid.begin(), mid.end()), "world");
  auto past_end = files.read("/data/hello.txt", 100, 10, alice());
  EXPECT_TRUE(past_end.empty());
  EXPECT_THROW(files.read("/data/hello.txt", -1, 5, alice()), ParseError);
}

TEST_F(FileFixture, ReadLengthIsClamped) {
  // The length arrives from the wire: beyond the configured chunk cap it
  // must be rejected before any allocation happens.
  files.set_max_read_chunk(64);
  EXPECT_THROW(files.read("/data/hello.txt", 0, 65, alice()), ParseError);
  auto ok = files.read("/data/hello.txt", 0, 64, alice());
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "hello world");
  // Within the cap, the buffer is sized by the file, not the request:
  // a 64-byte ask on an 11-byte file returns 11 bytes.
  EXPECT_EQ(ok.size(), 11u);
}

TEST_F(FileFixture, LsSortedWithTypes) {
  auto listing = files.ls("/data", alice());
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].name, "hello.txt");
  EXPECT_FALSE(listing[0].is_directory);
  EXPECT_EQ(listing[0].size, 11);
  EXPECT_EQ(listing[1].name, "sub");
  EXPECT_TRUE(listing[1].is_directory);
  EXPECT_THROW(files.ls("/data/hello.txt", alice()), NotFoundError);
}

TEST_F(FileFixture, StatAndSize) {
  FileStat st = files.stat("/data/hello.txt", alice());
  EXPECT_EQ(st.name, "hello.txt");
  EXPECT_EQ(st.size, 11);
  EXPECT_GT(st.mtime, 0);
  EXPECT_EQ(files.size("/data/sub/nested.bin", alice()), 1000);
  EXPECT_THROW(files.stat("/data/ghost", alice()), NotFoundError);
}

TEST_F(FileFixture, Md5MatchesDirectComputation) {
  EXPECT_EQ(files.md5("/data/hello.txt", alice()),
            crypto::Md5::hex("hello world"));
}

TEST_F(FileFixture, Md5StreamsFilesLargerThanTheReadChunkCap) {
  // Regression: file.md5/file.checksum must hash in fixed-size chunks,
  // not load the file — a file bigger than max_read_chunk (which caps a
  // single file.read) has to hash fine with bounded memory.
  files.set_max_read_chunk(64 * 1024);
  std::string payload;
  payload.reserve(200 * 1024);
  for (int i = 0; i < 200 * 1024; ++i) {
    payload.push_back(static_cast<char>('a' + i % 23));
  }
  write_file("big.bin", payload);
  ASSERT_GT(static_cast<std::int64_t>(payload.size()),
            files.max_read_chunk());
  EXPECT_THROW(files.read("/data/big.bin", 0,
                          static_cast<std::int64_t>(payload.size()), alice()),
               ParseError);  // a single read stays capped...
  EXPECT_EQ(files.md5("/data/big.bin", alice()),
            crypto::Md5::hex(payload));  // ...but hashing streams past it

  FileService::FileChecksum sum = files.checksum("/data/big.bin", alice());
  EXPECT_EQ(sum.md5, crypto::Md5::hex(payload));
  EXPECT_EQ(sum.size, static_cast<std::int64_t>(payload.size()));
}

TEST_F(FileFixture, ChecksumMatchesMd5AndStat) {
  FileService::FileChecksum sum = files.checksum("/data/hello.txt", alice());
  EXPECT_EQ(sum.md5, files.md5("/data/hello.txt", alice()));
  EXPECT_EQ(sum.size, 11);
  EXPECT_THROW(files.checksum("/data/ghost", alice()), NotFoundError);
}

TEST_F(FileFixture, AppendExtendsAndCreates) {
  auto span_of = [](const std::string& s) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  std::string first = "chunk-one|", second = "chunk-two";
  files.append("/data/log.txt", span_of(first), alice());  // creates
  files.append("/data/log.txt", span_of(second), alice());
  auto back = files.read("/data/log.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "chunk-one|chunk-two");
}

TEST_F(FileFixture, WriteToAFullDiskThrows) {
  // /dev/full accepts the open and fails the flush with ENOSPC, as a full
  // disk does: the bytes did not land, so the caller must hear about it.
  std::filesystem::create_symlink("/dev/full", dir + "/full.bin");
  std::string payload(4096, 'x');
  std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  EXPECT_THROW(files.write("/data/full.bin", bytes, alice()), SystemError);
  EXPECT_THROW(files.append("/data/full.bin", bytes, alice()), SystemError);
}

TEST_F(FileFixture, FindByPatternAndWildcard) {
  auto hits = files.find("/data", "nested", alice());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], "/data/sub/nested.bin");
  auto all = files.find("/data", "*", alice());
  EXPECT_EQ(all.size(), 3u);  // hello.txt, sub, sub/nested.bin
}

TEST_F(FileFixture, WriteMkdirRemove) {
  files.mkdir("/data/out", alice());
  std::string content = "payload";
  files.write("/data/out/result.txt",
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(content.data()),
                  content.size()),
              alice());
  auto back = files.read("/data/out/result.txt", 0, 100, alice());
  EXPECT_EQ(std::string(back.begin(), back.end()), "payload");
  files.remove("/data/out", alice());
  EXPECT_THROW(files.stat("/data/out", alice()), NotFoundError);
}

TEST_F(FileFixture, PathEscapeRefused) {
  EXPECT_THROW(files.read("/data/../../../etc/passwd", 0, 10, alice()),
               AccessError);
  EXPECT_THROW(files.read("/data/sub/../../escape", 0, 10, alice()),
               AccessError);
  // Normalized inner dotdots that stay inside the root are fine.
  auto ok = files.read("/data/sub/../hello.txt", 0, 5, alice());
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "hello");
}

TEST_F(FileFixture, RelativePathsRefused) {
  EXPECT_THROW(files.read("data/hello.txt", 0, 5, alice()), AccessError);
}

TEST_F(FileFixture, UnknownRootRefused) {
  // With read access granted, a path under no configured root is NotFound.
  FileAcl open;
  open.read.allow_dns = {"*"};
  acl.set_file_acl("/other", open);
  EXPECT_THROW(files.read("/other/x", 0, 5, alice()), NotFoundError);
  // Without any grant the ACL check fires first.
  EXPECT_THROW(files.read("/elsewhere/x", 0, 5, alice()), AccessError);
}

TEST_F(FileFixture, MultipleRootsLongestPrefixWins) {
  TempDir tmp2;
  std::string special = tmp2.sub("special");
  std::ofstream(special + "/only-here.txt") << "special";
  files.add_root("/data/special", special);
  FileAcl open;
  open.read.allow_dns = {"*"};
  acl.set_file_acl("/data/special", open);
  auto got = files.read("/data/special/only-here.txt", 0, 100, alice());
  EXPECT_EQ(std::string(got.begin(), got.end()), "special");
}

TEST_F(FileFixture, AclDeniesListedIdentityAtLowerLevel) {
  // A lower-level ACL that does not match falls through to the /data
  // grant (paper: grants at higher levels apply "unless specifically
  // denied at the lower level") — so an unmatched allow-list alone does
  // not lock Alice out...
  FileAcl unmatched;
  unmatched.read.allow_dns = {"/O=grid/CN=Someone Else"};
  acl.set_file_acl("/data/sub", unmatched);
  EXPECT_NO_THROW(files.read("/data/sub/nested.bin", 0, 5, alice()));
  // ...but a specific deny does.
  FileAcl denied;
  denied.read.deny_dns = {kAliceStr};
  acl.set_file_acl("/data/sub", denied);
  EXPECT_THROW(files.read("/data/sub/nested.bin", 0, 5, alice()), AccessError);
  // The sibling file is still covered by the /data wildcard grant.
  EXPECT_NO_THROW(files.read("/data/hello.txt", 0, 5, alice()));
}

TEST_F(FileFixture, WriteRequiresWriteAcl) {
  // Specifically deny writes below /data/sub; reads stay open.
  FileAcl read_only;
  read_only.read.allow_dns = {"*"};
  read_only.write.deny_dns = {"*"};
  acl.set_file_acl("/data/sub", read_only);
  std::string content = "x";
  EXPECT_THROW(
      files.write("/data/sub/new.txt",
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(content.data()), 1),
                  alice()),
      AccessError);
  EXPECT_NO_THROW(files.read("/data/sub/nested.bin", 0, 1, alice()));
}

TEST_F(FileFixture, ResolveForReadChecksAclFirst) {
  FileAcl closed;
  closed.read.deny_dns = {"*"};
  acl.set_file_acl("/data/sub", closed);
  EXPECT_THROW(files.resolve_for_read("/data/sub/nested.bin", alice()),
               AccessError);
  std::string real = files.resolve_for_read("/data/hello.txt", alice());
  EXPECT_TRUE(std::filesystem::exists(real));
}

}  // namespace
}  // namespace clarens::core
