// Unit tests for the self-healing replication layer: FileLayout
// encode/decode, the LayoutTable over db::Store, the FaultInjector
// switchboard, the client RetryPolicy schedule, the Replicator's event
// intake / suspect tracking without its worker thread, and the write
// path's landed-write notice, debounce and confirm poll against a live
// head + two storage nodes (node loss and bit rot are covered by
// federation_cluster_test).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/routed.hpp"
#include "core/server.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/layout.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "federation_fixtures.hpp"
#include "rpc/binding.hpp"
#include "test_fixtures.hpp"
#include "util/fault.hpp"

namespace clarens {
namespace {

namespace fs = std::filesystem;
using testing::eventually;

// ---------------------------------------------------------------------------
// FileLayout value format

TEST(FileLayout, EncodeDecodeRoundtrip) {
  federation::FileLayout layout;
  layout.path = "/data/run1/evt.bin";
  layout.replica_count = 3;
  layout.checksum = "d41d8cd98f00b204e9800998ecf8427e";
  layout.confirmed = true;
  layout.size = 4096;
  layout.generation = 7;
  layout.awaiting_notice = true;
  layout.updated_at = 1754700000;
  layout.dn = "/O=testgrid.org/OU=People/CN=Alice Able";  // embedded spaces
  layout.via_proxy = true;
  layout.proxy_serial = "0123ABCD";
  layout.replicas = {{"fedfarm/fst1", federation::ReplicaState::Healthy},
                     {"fedfarm/fst two", federation::ReplicaState::Pending},
                     {"fedfarm/fst3", federation::ReplicaState::Stale},
                     {"fedfarm/fst4", federation::ReplicaState::Missing}};

  auto decoded =
      federation::FileLayout::decode(layout.path, layout.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->path, layout.path);
  EXPECT_EQ(decoded->replica_count, 3);
  EXPECT_EQ(decoded->checksum, layout.checksum);
  EXPECT_TRUE(decoded->confirmed);
  EXPECT_EQ(decoded->size, 4096);
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_TRUE(decoded->awaiting_notice);
  EXPECT_EQ(decoded->updated_at, 1754700000);
  EXPECT_EQ(decoded->dn, layout.dn);
  EXPECT_TRUE(decoded->via_proxy);
  EXPECT_EQ(decoded->proxy_serial, "0123ABCD");
  ASSERT_EQ(decoded->replicas.size(), 4u);
  EXPECT_EQ(decoded->replicas[1].node_id, "fedfarm/fst two");
  EXPECT_EQ(decoded->replicas[1].state, federation::ReplicaState::Pending);
  EXPECT_EQ(decoded->replicas[3].state, federation::ReplicaState::Missing);
}

TEST(FileLayout, AdoptedChecksumRoundtripsAsUnconfirmed) {
  federation::FileLayout layout;
  layout.path = "/d/f";
  layout.checksum = "abc123";
  layout.confirmed = false;
  auto decoded = federation::FileLayout::decode("/d/f", layout.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->checksum, "abc123");
  EXPECT_FALSE(decoded->confirmed);
}

TEST(FileLayout, DecodeSkipsUnknownLinesAndBadReplicas) {
  // Forward compatibility: a layout written by a newer build with extra
  // keys must still load; malformed replica lines are dropped, not fatal.
  std::string value =
      "v1\n"
      "replica_count 2\n"
      "erasure_profile rs-6-3\n"  // future key
      "size 10\n"
      "replica healthy fedfarm/fst1\n"
      "replica warp-speed fedfarm/fst2\n"  // unknown state
      "replica healthy\n";                 // no node id
  auto decoded = federation::FileLayout::decode("/d/f", value);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->replica_count, 2);
  EXPECT_EQ(decoded->size, 10);
  ASSERT_EQ(decoded->replicas.size(), 1u);
  EXPECT_EQ(decoded->replicas[0].node_id, "fedfarm/fst1");
}

TEST(FileLayout, DecodeRejectsUnknownVersion) {
  EXPECT_FALSE(federation::FileLayout::decode("/d/f", "v999\nsize 1\n"));
  EXPECT_FALSE(federation::FileLayout::decode("/d/f", ""));
}

TEST(FileLayout, MarkAndCount) {
  federation::FileLayout layout;
  layout.mark("a", federation::ReplicaState::Pending);
  layout.mark("b", federation::ReplicaState::Healthy);
  layout.mark("a", federation::ReplicaState::Healthy);  // update, not append
  ASSERT_EQ(layout.replicas.size(), 2u);
  EXPECT_EQ(layout.count(federation::ReplicaState::Healthy), 2);
  EXPECT_EQ(layout.count(federation::ReplicaState::Pending), 0);
  ASSERT_NE(layout.find("b"), nullptr);
  EXPECT_EQ(layout.find("nope"), nullptr);
}

// ---------------------------------------------------------------------------
// LayoutTable persistence

TEST(LayoutTable, PutGetUpdateEraseAndPrefixScan) {
  db::Store store;
  federation::LayoutTable table(store);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.get("/data/run1/a").has_value());

  federation::FileLayout layout;
  layout.path = "/data/run1/a";
  layout.replica_count = 2;
  layout.mark("fedfarm/fst1", federation::ReplicaState::Pending);
  table.put(layout);
  layout.path = "/data/run2/b";
  table.put(layout);
  layout.path = "/other/c";
  table.put(layout);
  EXPECT_EQ(table.size(), 3u);

  auto loaded = table.get("/data/run1/a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->replica_count, 2);
  EXPECT_GT(loaded->updated_at, 0);  // put() stamps the write time
  ASSERT_EQ(loaded->replicas.size(), 1u);
  EXPECT_EQ(loaded->replicas[0].state, federation::ReplicaState::Pending);

  // Atomic read-modify-write: fn sees the stored copy, its edit persists.
  table.update("/data/run1/a", [](federation::FileLayout& l) {
    l.mark("fedfarm/fst1", federation::ReplicaState::Healthy);
    l.checksum = "feed";
    l.confirmed = true;
    return true;
  });
  loaded = table.get("/data/run1/a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->confirmed);
  EXPECT_EQ(loaded->replicas[0].state, federation::ReplicaState::Healthy);

  // Returning false leaves the row untouched.
  table.update("/data/run1/a", [](federation::FileLayout& l) {
    l.checksum = "discarded";
    return false;
  });
  EXPECT_EQ(table.get("/data/run1/a")->checksum, "feed");

  // update() on an absent path hands fn a fresh layout with path set.
  table.update("/new/file", [](federation::FileLayout& l) {
    EXPECT_EQ(l.path, "/new/file");
    EXPECT_TRUE(l.replicas.empty());
    return true;
  });
  EXPECT_TRUE(table.get("/new/file").has_value());

  std::vector<std::string> under_data = table.paths("/data");
  ASSERT_EQ(under_data.size(), 2u);
  EXPECT_EQ(under_data[0], "/data/run1/a");  // sorted
  EXPECT_EQ(under_data[1], "/data/run2/b");
  EXPECT_EQ(table.paths("").size(), 4u);

  table.erase("/other/c");
  EXPECT_FALSE(table.get("/other/c").has_value());
  EXPECT_EQ(table.size(), 3u);
}

// ---------------------------------------------------------------------------
// FaultInjector

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, UnarmedNeverFires) {
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/any"));
  EXPECT_EQ(util::FaultInjector::instance().fired("file.write.eio"), 0u);
}

TEST_F(FaultInjectorTest, DetailSubstringGatesTheFault) {
  auto& faults = util::FaultInjector::instance();
  faults.arm("file.write.eio", /*times=*/-1, "/fst2");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/data/fst1/x"));
  EXPECT_TRUE(util::FaultInjector::fire("file.write.eio", "/data/fst2/x"));
  EXPECT_FALSE(util::FaultInjector::fire("net.connect", "/data/fst2/x"));
  EXPECT_EQ(faults.fired("file.write.eio"), 1u);
  faults.disarm("file.write.eio");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/data/fst2/x"));
}

TEST_F(FaultInjectorTest, CountedArmExhaustsItsBudget) {
  auto& faults = util::FaultInjector::instance();
  faults.arm("net.connect", /*times=*/2);
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "a:1"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "b:2"));
  EXPECT_FALSE(util::FaultInjector::fire("net.connect", "c:3"));
  EXPECT_EQ(faults.fired("net.connect"), 2u);
}

TEST_F(FaultInjectorTest, ArmFromSpecParsesEntries) {
  auto& faults = util::FaultInjector::instance();
  faults.arm_from_spec("file.write.eio@/fst2=1;net.connect");
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/fst1/x"));
  EXPECT_TRUE(util::FaultInjector::fire("file.write.eio", "/fst2/x"));
  EXPECT_FALSE(util::FaultInjector::fire("file.write.eio", "/fst2/x"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", "anything"));
  EXPECT_TRUE(util::FaultInjector::fire("net.connect", ""));
}

TEST_F(FaultInjectorTest, BitFlipCorruptsOneBitAndPreservesMtime) {
  fs::path dir = fs::temp_directory_path() / "clarens_fault_test";
  fs::create_directories(dir);
  fs::path file = dir / "replica.bin";
  {
    std::ofstream out(file, std::ios::binary);
    out << "hello replica";
  }
  fs::file_time_type before = fs::last_write_time(file);
  // A rotted sector does not update timestamps; bit_flip must not either.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(util::FaultInjector::bit_flip(file.string(), 1, 0x40));
  EXPECT_EQ(fs::last_write_time(file), before);
  std::ifstream in(file, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "h%llo replica");  // 'e' ^ 0x40 == '%'
  EXPECT_EQ(content.size(), 13u);

  EXPECT_FALSE(util::FaultInjector::bit_flip(file.string(), 9999));
  EXPECT_FALSE(util::FaultInjector::bit_flip((dir / "absent").string(), 0));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RetryPolicy (client-side backoff schedule)

TEST(RetryPolicy, JitterlessScheduleIsExactCappedExponential) {
  client::RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 5000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  std::uint64_t state = policy.seed;
  std::vector<int> schedule;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    schedule.push_back(policy.delay_ms(attempt, state));
  }
  EXPECT_EQ(schedule, (std::vector<int>{100, 200, 400, 800, 1600, 3200, 5000,
                                        5000}));
  EXPECT_EQ(policy.delay_ms(0, state), 0);  // first attempt never waits
}

TEST(RetryPolicy, SameSeedSameSchedule) {
  client::RetryPolicy policy;  // defaults: jitter 0.25, seeded PRNG
  std::uint64_t a = policy.seed;
  std::uint64_t b = policy.seed;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_EQ(policy.delay_ms(attempt, a), policy.delay_ms(attempt, b))
        << "attempt " << attempt;
  }
  EXPECT_EQ(a, b);
}

TEST(RetryPolicy, JitterStaysWithinTheConfiguredBand) {
  client::RetryPolicy policy;
  policy.base_ms = 1000;
  policy.max_ms = 1000;  // flat, so the band is easy to state
  policy.jitter = 0.25;
  std::uint64_t state = policy.seed;
  bool saw_spread = false;
  for (int attempt = 1; attempt <= 50; ++attempt) {
    int delay = policy.delay_ms(attempt, state);
    EXPECT_GE(delay, 750);
    EXPECT_LE(delay, 1250);
    if (delay != 1000) saw_spread = true;
  }
  EXPECT_TRUE(saw_spread);  // jitter actually does something
}

TEST(RetryPolicy, TogglingJitterDoesNotShiftLaterDelays) {
  // The PRNG advances even at jitter=0, so two policies differing only
  // in jitter consume randomness identically.
  client::RetryPolicy flat;
  flat.jitter = 0.0;
  client::RetryPolicy jittered = flat;
  jittered.jitter = 0.25;
  std::uint64_t a = flat.seed;
  std::uint64_t b = jittered.seed;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    flat.delay_ms(attempt, a);
    jittered.delay_ms(attempt, b);
  }
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Replicator event intake (no worker thread, empty ring)

class ReplicatorTest : public ::testing::Test {
 protected:
  ReplicatorTest()
      : discovery_(store_, /*record_ttl=*/60),
        router_(discovery_, make_router_options()),
        layouts_(store_) {}

  static federation::RouterOptions make_router_options() {
    federation::RouterOptions options;
    options.secret = "replication-test-secret";
    options.refresh_ms = 0;
    return options;
  }

  federation::Replicator make_replicator(int replicas = 2) {
    federation::ReplicatorOptions options;
    options.replicas = replicas;
    options.suspect_ttl_ms = 60000;
    return federation::Replicator(router_, layouts_, std::move(options));
  }

  db::Store store_;
  discovery::DiscoveryServer discovery_;
  federation::Router router_;
  federation::LayoutTable layouts_;
  federation::WriterIdentity alice_{"/O=testgrid.org/CN=Alice", false, ""};
};

TEST_F(ReplicatorTest, NoteWriteRecordsPendingPrimaryAndWriter) {
  federation::Replicator replicator = make_replicator(/*replicas=*/2);
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);

  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->replica_count, 2);  // stamped from options
  EXPECT_TRUE(layout->checksum.empty());
  EXPECT_FALSE(layout->confirmed);
  EXPECT_EQ(layout->dn, alice_.dn);
  ASSERT_EQ(layout->replicas.size(), 1u);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst1");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
  EXPECT_EQ(replicator.stats().enqueued, 1u);
  EXPECT_EQ(replicator.stats().queue_depth, 1u);  // worker never started
}

TEST_F(ReplicatorTest, CommitReopensTheLayoutAndPromotesThePrimary) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", alice_);

  // The notice carries no hash: the layout stays open until the
  // debounced confirm poll, with the noticing node first.
  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_TRUE(layout->checksum.empty());
  EXPECT_FALSE(layout->confirmed);
  EXPECT_EQ(layout->generation, 2u);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst1");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
  EXPECT_EQ(replicator.stats().commits, 1u);
  // Both events collapsed onto one queued task.
  EXPECT_EQ(replicator.stats().enqueued, 1u);
  EXPECT_EQ(replicator.stats().queue_depth, 1u);
}

TEST_F(ReplicatorTest, RedirectAwaitsItsNoticeAndTheNoticeEndsTheWait) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  // The redirected bytes may land any time: a poll now is only adopted.
  EXPECT_TRUE(layouts_.get("/data/run1/a")->awaiting_notice);
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", alice_);
  EXPECT_FALSE(layouts_.get("/data/run1/a")->awaiting_notice);
  // A write on a reused ticket has no redirect to wait for.
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", alice_);
  EXPECT_FALSE(layouts_.get("/data/run1/a")->awaiting_notice);
}

TEST_F(ReplicatorTest, RewriteDemotesSurvivingHealthyReplicas) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_commit("/data/run1/a", "fedfarm/fst1", alice_);
  // Confirmed and replicated, then the file is overwritten via fst2.
  layouts_.update("/data/run1/a", [](federation::FileLayout& l) {
    l.checksum = "v1hash";
    l.confirmed = true;
    l.mark("fedfarm/fst1", federation::ReplicaState::Healthy);
    l.mark("fedfarm/fst2", federation::ReplicaState::Healthy);
    return true;
  });
  replicator.note_write("/data/run1/a", "fedfarm/fst2", alice_);

  auto layout = layouts_.get("/data/run1/a");
  ASSERT_TRUE(layout.has_value());
  EXPECT_TRUE(layout->checksum.empty());  // unknown until the next poll
  EXPECT_FALSE(layout->confirmed);
  // New primary first and pending; the old copy is stale, never served.
  ASSERT_EQ(layout->replicas.size(), 2u);
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst2");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
  ASSERT_NE(layout->find("fedfarm/fst1"), nullptr);
  EXPECT_EQ(layout->find("fedfarm/fst1")->state,
            federation::ReplicaState::Stale);
}

TEST_F(ReplicatorTest, CommitWithoutRedirectAdoptsTheFile) {
  // A client that wrote straight to a storage node with a ticket: the
  // head only learns of the file from the landed-write notice.
  federation::Replicator replicator = make_replicator();
  replicator.note_commit("/data/direct", "fedfarm/fst3", alice_);
  auto layout = layouts_.get("/data/direct");
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->replica_count, 2);
  EXPECT_EQ(layout->dn, alice_.dn);
  EXPECT_FALSE(layout->confirmed);  // until the confirm poll
  EXPECT_EQ(layout->replicas[0].node_id, "fedfarm/fst3");
  EXPECT_EQ(layout->replicas[0].state, federation::ReplicaState::Pending);
}

TEST_F(ReplicatorTest, NoteRemoveHonorsComponentBoundaries) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run10/b", "fedfarm/fst1", alice_);
  std::uint64_t before = replicator.stats().enqueued;
  // Tree remove of /data/run1 must purge itself and its child, but NOT
  // /data/run10/b (prefix string match would).
  replicator.note_remove("/data/run1");
  EXPECT_EQ(replicator.stats().enqueued - before, 2u);
}

TEST_F(ReplicatorTest, PickReadNodeIsEmptyOnAnEmptyRing) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  EXPECT_FALSE(replicator.pick_read_node("/data/run1/a").has_value());
  EXPECT_FALSE(replicator.pick_read_node("/unmanaged").has_value());
}

TEST_F(ReplicatorTest, ReportedFailuresMarkSuspectsByUrl) {
  federation::Replicator replicator = make_replicator();
  federation::NodeInfo node;
  node.id = "fedfarm/fst1";
  node.url = "http://127.0.0.1:9001/clarens";
  EXPECT_FALSE(replicator.is_suspect(node));
  replicator.report_failure(node.url);
  EXPECT_TRUE(replicator.is_suspect(node));
  EXPECT_EQ(replicator.stats().read_failures_reported, 1u);

  federation::NodeInfo other;
  other.id = "fedfarm/fst2";
  other.url = "http://127.0.0.1:9002/clarens";
  EXPECT_FALSE(replicator.is_suspect(other));
}

TEST_F(ReplicatorTest, DrainEnqueuesEveryFileTouchingTheNode) {
  federation::Replicator replicator = make_replicator();
  replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
  replicator.note_write("/data/run2/b", "fedfarm/fst2", alice_);
  replicator.note_write("/data/run3/c", "fedfarm/fst1", alice_);
  EXPECT_EQ(replicator.drain("fedfarm/fst1"), 2u);
  EXPECT_EQ(replicator.stats().draining, 1u);
  EXPECT_EQ(replicator.drain("fedfarm/absent"), 0u);
}

TEST_F(ReplicatorTest, StartStopIdempotentAndStopWithoutStartIsSafe) {
  {
    federation::Replicator replicator = make_replicator();
    replicator.stop();  // never started
  }
  {
    federation::Replicator replicator = make_replicator();
    replicator.start();
    replicator.start();  // second start is a no-op
    replicator.note_write("/data/run1/a", "fedfarm/fst1", alice_);
    replicator.stop();
    replicator.stop();
  }  // destructor after stop must not hang
}

// ---------------------------------------------------------------------------
// The write path against a live head + two storage nodes

constexpr const char* kAlice = "/O=testgrid.org/OU=People/CN=Alice Able";

/// One head (placement_replicas 2) and storage nodes fst0/fst1.
/// `debounce_ms` is the head's replication_retry_base_ms: how long
/// writes to a file must stay quiet before it is confirmed and copied.
/// `grace_ms` also sets the under-replication sweep cadence (at least
/// 1 s).
class ReplicationCluster {
 public:
  /// Runs on a storage node after its file.checksum computed a result
  /// and before the result is sent.
  using ChecksumHook =
      std::function<void(std::size_t node, const std::string& path)>;

  explicit ReplicationCluster(int debounce_ms, int grace_ms = 5000)
      : discovery_(discovery_store_, /*record_ttl=*/60) {
    discovery_.subscribe("127.0.0.1", station_.port());
    core::ClarensConfig config = testing::node_config(
        testing::TestPki::instance(), "head", core::NodeRole::Head, "", "",
        station_.port());
    config.placement_replicas = 2;
    config.replication_retry_base_ms = debounce_ms;
    // Writes may postpone a file's task for up to a minute, so the tests
    // pin the debounce, not how fast the host runs the uploads.
    config.replication_retry_max_ms = 60000;
    config.replication_grace_ms = grace_ms;
    head = std::make_unique<core::ClarensServer>(std::move(config));
    head->attach_discovery(discovery_);
    head->start();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      dirs[i] = tmp_.sub("fst" + std::to_string(i));
      nodes[i] = std::make_unique<core::ClarensServer>(
          testing::node_config(testing::TestPki::instance(),
                               "fst" + std::to_string(i),
                               core::NodeRole::Storage, dirs[i], head->url(),
                               station_.port()));
      nodes[i]->start();
    }
    ready = eventually(
        [&] { return head->router()->storage_nodes().size() == 2; }, 10);
  }

  ~ReplicationCluster() {
    for (auto& node : nodes) node->stop();
    head->stop();
    discovery_.stop();
    station_.stop();
  }

  /// Count file.checksum calls per node, running `hook` inside each.
  void count_checksums(ChecksumHook hook = {}) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      rpc::Registry& registry = nodes[i]->registry();
      std::shared_ptr<const rpc::Method> method =
          registry.find("file.checksum");
      registry.add(
          "file.checksum",
          [this, i, method, hook](const rpc::CallContext& context,
                                  const std::vector<rpc::Value>& params) {
            rpc::Value result = method->handler(context, params);
            ++checksums[i];
            if (hook) hook(i, params.at(0).as_string());
            return result;
          },
          method->info);
    }
  }

  std::unique_ptr<client::RoutedClient> client() const {
    client::ClientOptions base;
    base.credential = testing::TestPki::instance().alice;
    base.trust = &testing::TestPki::instance().trust;
    auto routed = std::make_unique<client::RoutedClient>(
        head->url(), base, /*max_attempts=*/20, /*retry_backoff_ms=*/50);
    routed->authenticate();
    return routed;
  }

  /// A plain client on storage node `node` presenting `ticket`.
  std::unique_ptr<client::ClarensClient> node_client(
      std::size_t node, const std::string& ticket) const {
    client::ClientOptions options;
    options.port = nodes[node]->port();
    auto direct = std::make_unique<client::ClarensClient>(options);
    direct->connect();
    direct->set_header("X-Clarens-Node-Ticket", ticket);
    return direct;
  }

  std::size_t index_of(const std::string& node_id) const {
    return node_id == "fedfarm/fst0" ? 0 : 1;
  }

  std::string disk(std::size_t node, const std::string& path) const {
    std::ifstream in(dirs[node] + path.substr(std::string("/data").size()),
                     std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  federation::FileLayout layout(const std::string& path) const {
    return head->layouts()->get(path).value_or(federation::FileLayout{});
  }

  /// Confirmed with `md5` and held healthy by both nodes.
  bool replicated(const std::string& path, const std::string& md5) const {
    federation::FileLayout l = layout(path);
    return l.confirmed && l.checksum == md5 &&
           l.count(federation::ReplicaState::Healthy) == 2;
  }

  std::array<std::unique_ptr<core::ClarensServer>, 2> nodes;
  std::array<std::string, 2> dirs;
  std::unique_ptr<core::ClarensServer> head;
  std::array<std::atomic<int>, 2> checksums{};
  bool ready = false;

 private:
  testing::TempDir tmp_;
  discovery::StationServer station_;
  db::Store discovery_store_;
  discovery::DiscoveryServer discovery_;
};

TEST(ReplicationCluster, AppendedFileIsHashedOnceAndCopiedOnce) {
  // Sweeps every second: the paced upload below outlasts two of them,
  // and neither may cut its quiet window short.
  ReplicationCluster c(/*debounce_ms=*/500, /*grace_ms=*/100);
  ASSERT_TRUE(c.ready);
  c.count_checksums();
  std::unique_ptr<client::RoutedClient> routed = c.client();
  client::RoutedClient& client = *routed;
  const std::string path = "/data/app/f.bin";
  client.call("file.mkdir", {rpc::Value("/data/app")});
  std::string content;
  for (int i = 0; i < 32; ++i) {
    std::string chunk(8192, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(client
                    .call(i == 0 ? "file.write" : "file.append",
                          {rpc::Value(path), rpc::Value(chunk)})
                    .as_bool());
    content += chunk;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  const std::string md5 = crypto::Md5::hex(content);
  ASSERT_TRUE(eventually([&] { return c.replicated(path, md5); }, 10));

  // 32 landed-write notices, but one confirm poll on the primary, one
  // copy, and one verifying hash on the copy's target.
  federation::ReplicatorStats stats = c.head->replicator()->stats();
  EXPECT_EQ(stats.commits, 32u);
  EXPECT_EQ(stats.copies, 1u);
  std::size_t primary = c.index_of(c.layout(path).replicas.at(0).node_id);
  EXPECT_EQ(c.checksums[primary].load(), 1);
  EXPECT_EQ(c.checksums[1 - primary].load(), 1);
  EXPECT_EQ(c.disk(0, path), content);
  EXPECT_EQ(c.disk(1, path), content);
}

TEST(ReplicationCluster, NoticeDuringTheConfirmPollDiscardsThePoll) {
  ReplicationCluster c(/*debounce_ms=*/100);
  ASSERT_TRUE(c.ready);
  const std::string path = "/data/race/f.bin";
  const std::string tail = "-bytes that landed during the poll";
  std::atomic<bool> injected{false};
  // The first checksum anywhere is the confirm poll on the primary.
  // Once it has hashed the file, a write lands and its notice arrives
  // before the poll's answer does.
  c.count_checksums([&](std::size_t node, const std::string& polled) {
    if (injected.exchange(true)) return;
    std::ofstream(c.dirs[node] + "/race/f.bin", std::ios::app) << tail;
    c.head->replicator()->note_commit(
        polled, "fedfarm/fst" + std::to_string(node),
        {kAlice, false, ""});
  });
  std::unique_ptr<client::RoutedClient> routed = c.client();
  client::RoutedClient& client = *routed;
  client.call("file.mkdir", {rpc::Value("/data/race")});
  const std::string body(20000, 'r');
  ASSERT_TRUE(
      client.call("file.write", {rpc::Value(path), rpc::Value(body)})
          .as_bool());

  // The hash of the pre-notice bytes was dropped; the second poll
  // confirmed what the primary holds now, and that is what was copied.
  const std::string md5 = crypto::Md5::hex(body + tail);
  ASSERT_TRUE(eventually([&] { return c.replicated(path, md5); }, 10))
      << "layout checksum " << c.layout(path).checksum;
  std::size_t primary = c.index_of(c.layout(path).replicas.at(0).node_id);
  EXPECT_EQ(c.checksums[primary].load(), 2);
  EXPECT_EQ(c.head->replicator()->stats().copies, 1u);
  EXPECT_EQ(c.disk(1 - primary, path), body + tail);
}

TEST(ReplicationCluster, LateWriteReopensTheLayoutAndFsckKeepsIt) {
  // A long quiet window: the scrub below meets the reopened layout
  // before the debounced task does.
  ReplicationCluster c(/*debounce_ms=*/3000);
  ASSERT_TRUE(c.ready);
  std::unique_ptr<client::RoutedClient> routed = c.client();
  client::RoutedClient& client = *routed;
  const std::string path = "/data/late/f.bin";
  const std::string v1 = "first version of the file";
  client.call("file.mkdir", {rpc::Value("/data/late")});
  ASSERT_TRUE(
      client.call("file.write", {rpc::Value(path), rpc::Value(v1)}).as_bool());
  // replica.repair confirms and copies now, without the quiet window.
  std::string error;
  ASSERT_TRUE(c.head->replicator()->repair_file(path, {kAlice, false, ""},
                                                &error))
      << error;
  ASSERT_TRUE(c.replicated(path, crypto::Md5::hex(v1)));
  std::size_t primary = c.index_of(c.layout(path).replicas.at(0).node_id);
  std::size_t secondary = 1 - primary;

  // A later write on the primary under a still-valid ticket.
  auto direct = c.node_client(
      primary, c.head->router()->mint_ticket(kAlice, false, "", "/data/late",
                                             /*write=*/true));
  const std::string v2 = v1 + " and its late tail";
  ASSERT_TRUE(direct
                  ->call("file.append", {rpc::Value(path),
                                         rpc::Value(std::string(
                                             v2.substr(v1.size())))})
                  .as_bool());

  // The notice reopened the layout: no checksum, the secondary stale.
  federation::FileLayout reopened = c.layout(path);
  EXPECT_FALSE(reopened.confirmed);
  EXPECT_TRUE(reopened.checksum.empty());
  ASSERT_EQ(reopened.replicas.size(), 2u);
  EXPECT_EQ(c.index_of(reopened.replicas[0].node_id), primary);
  ASSERT_NE(reopened.find("fedfarm/fst" + std::to_string(secondary)), nullptr);
  EXPECT_EQ(reopened.find("fedfarm/fst" + std::to_string(secondary))->state,
            federation::ReplicaState::Stale);

  // The scrub confirms the primary's new bytes and repairs the
  // secondary from them; it never reverts the primary.
  federation::FsckReport scrub = c.head->replicator()->fsck("/data/late");
  EXPECT_EQ(scrub.mismatched, 1);
  EXPECT_EQ(scrub.repaired, 1);
  EXPECT_EQ(scrub.failed, 0);
  EXPECT_TRUE(c.replicated(path, crypto::Md5::hex(v2)));
  EXPECT_EQ(c.disk(primary, path), v2);
  EXPECT_EQ(c.disk(secondary, path), v2);

  federation::FsckReport again = c.head->replicator()->fsck("/data/late");
  EXPECT_EQ(again.mismatched, 0);
  EXPECT_EQ(again.repaired, 0);
  EXPECT_EQ(c.disk(primary, path), v2);
  EXPECT_EQ(c.disk(secondary, path), v2);
}

TEST(ReplicationCluster, SlowWriteWithALostNoticeIsNeverReverted) {
  ReplicationCluster c(/*debounce_ms=*/100);
  ASSERT_TRUE(c.ready);
  std::unique_ptr<client::RoutedClient> routed = c.client();
  client::RoutedClient& client = *routed;
  const std::string path = "/data/slow/f.bin";
  const std::string v1 = "first version of the file";
  client.call("file.mkdir", {rpc::Value("/data/slow")});
  ASSERT_TRUE(
      client.call("file.write", {rpc::Value(path), rpc::Value(v1)}).as_bool());
  ASSERT_TRUE(eventually(
      [&] { return c.replicated(path, crypto::Md5::hex(v1)); }, 10));
  std::size_t primary = c.index_of(c.layout(path).replicas.at(0).node_id);
  std::size_t secondary = 1 - primary;

  // A rewrite is redirected, but its upload is slow: the debounced poll
  // runs first and still sees the old bytes.
  const std::string v2 = "second version, which lands after the poll";
  rpc::Value redirect =
      client.head().call("file.write", {rpc::Value(path), rpc::Value(v2)});
  ASSERT_TRUE(rpc::RedirectResult::is_redirect(redirect));
  ASSERT_TRUE(eventually(
      [&] {
        federation::FileLayout l = c.layout(path);
        return l.checksum == crypto::Md5::hex(v1) &&
               l.count(federation::ReplicaState::Healthy) == 2;
      },
      10));
  // The redirect's notice has not come in: the old hash is not the truth.
  EXPECT_FALSE(c.layout(path).confirmed);

  // The upload lands on the primary, and its notice is lost.
  std::ofstream(c.dirs[primary] + "/slow/f.bin",
                std::ios::binary | std::ios::trunc)
      << v2;

  // The scrub re-polls the primary and repairs the secondary from it.
  federation::FsckReport scrub = c.head->replicator()->fsck("/data/slow");
  EXPECT_EQ(scrub.mismatched, 1);
  EXPECT_EQ(scrub.repaired, 1);
  EXPECT_EQ(scrub.failed, 0);
  EXPECT_EQ(c.disk(primary, path), v2);
  EXPECT_EQ(c.disk(secondary, path), v2);
  federation::FileLayout scrubbed = c.layout(path);
  EXPECT_EQ(scrubbed.checksum, crypto::Md5::hex(v2));
  EXPECT_EQ(scrubbed.count(federation::ReplicaState::Healthy), 2);
}

TEST(ReplicationCluster, SpoofedReplicationHeaderStillSendsTheNotice) {
  ReplicationCluster c(/*debounce_ms=*/100);
  ASSERT_TRUE(c.ready);
  federation::Router& router = *c.head->router();
  // A user write ticket plus the header the repair engine once used to
  // mark its copies: the node must still tell the head.
  auto spoofer = c.node_client(
      0, router.mint_ticket(kAlice, false, "", "/data/spoof", true));
  spoofer->set_header("X-Clarens-Replication", "1");
  spoofer->call("file.mkdir", {rpc::Value("/data/spoof")});
  std::uint64_t before = c.head->replicator()->stats().commits;
  ASSERT_TRUE(spoofer
                  ->call("file.write", {rpc::Value("/data/spoof/f.bin"),
                                        rpc::Value(std::string("x"))})
                  .as_bool());
  EXPECT_EQ(c.head->replicator()->stats().commits, before + 1);
  federation::FileLayout layout = c.layout("/data/spoof/f.bin");
  ASSERT_FALSE(layout.replicas.empty());
  EXPECT_EQ(layout.replicas[0].node_id, "fedfarm/fst0");

  // Only the signed bit, which the head mints for its own copies,
  // suppresses the notice.
  auto repair = c.node_client(
      0, router.mint_ticket(kAlice, false, "", "/data/spoof", true,
                            /*replication=*/true));
  ASSERT_TRUE(repair
                  ->call("file.write", {rpc::Value("/data/spoof/g.bin"),
                                        rpc::Value(std::string("y"))})
                  .as_bool());
  EXPECT_EQ(c.head->replicator()->stats().commits, before + 1);
  EXPECT_FALSE(c.head->layouts()->get("/data/spoof/g.bin").has_value());
}

TEST(ReplicationCluster, FailedWriteStillSendsTheNotice) {
  ReplicationCluster c(/*debounce_ms=*/100);
  ASSERT_TRUE(c.ready);
  // A failed write may have left part of its bytes, and it answers the
  // redirect the head is waiting on all the same.
  const std::string path = "/data/nodir/f.bin";
  c.head->replicator()->note_write(path, "fedfarm/fst0", {kAlice, false, ""});
  auto writer = c.node_client(
      0, c.head->router()->mint_ticket(kAlice, false, "", "/data/nodir", true));
  std::uint64_t before = c.head->replicator()->stats().commits;
  EXPECT_THROW(writer->call("file.write",
                            {rpc::Value(path), rpc::Value(std::string("x"))}),
               std::exception);
  EXPECT_EQ(c.head->replicator()->stats().commits, before + 1);
  EXPECT_FALSE(c.layout(path).awaiting_notice);
}

}  // namespace
}  // namespace clarens
