// Adversarial-input robustness: random bytes fed to every parser and
// loader must produce a clean Status, never a crash, hang, or huge
// allocation. (Deterministic pseudo-fuzz: seeds are fixed.)

#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.h"
#include "common/strings.h"
#include "image/pnm_io.h"
#include "io/journal.h"
#include "metadata/durable_store.h"
#include "metadata/fsck.h"
#include "metadata/query_parser.h"
#include "metadata/repository.h"
#include "ml/neural_net.h"

namespace dievent {
namespace {

std::string WriteRandomFile(const std::string& name, size_t size,
                            Rng* rng) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  for (size_t i = 0; i < size; ++i) {
    out.put(static_cast<char>(rng->NextBelow(256)));
  }
  return path;
}

TEST(FuzzRobustness, RepositoryLoadSurvivesRandomBytes) {
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    size_t size = 1 + rng.NextBelow(4096);
    std::string path = WriteRandomFile("fuzz_repo.bin", size, &rng);
    auto result = MetadataRepository::Load(path);
    EXPECT_FALSE(result.ok()) << trial;
  }
}

TEST(FuzzRobustness, RepositoryLoadSurvivesCorruptedValidFile) {
  // Start from a valid file and flip bytes — exercises deeper parse
  // paths than pure noise (magic/version pass, then length fields lie).
  MetadataRepository repo;
  repo.set_fps(10.0);
  LookAtMatrix m(4);
  m.Set(0, 1, true);
  for (int f = 0; f < 20; ++f) {
    ASSERT_TRUE(repo.AddLookAt(LookAtRecord::FromMatrix(f, f / 10.0, m))
                    .ok());
  }
  std::string path = testing::TempDir() + "/fuzz_valid.dmr";
  ASSERT_TRUE(repo.Save(path).ok());
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  Rng rng(72);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = pristine;
    int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      size_t pos = rng.NextBelow(mutated.size());
      mutated[pos] = static_cast<char>(rng.NextBelow(256));
    }
    std::string mpath = testing::TempDir() + "/fuzz_mut.dmr";
    std::ofstream(mpath, std::ios::binary) << mutated;
    // Must not crash; may or may not load depending on what got hit.
    auto result = MetadataRepository::Load(mpath);
    if (result.ok()) {
      // Whatever loaded must be internally consistent.
      for (const auto& r : result.value().lookat_records()) {
        EXPECT_EQ(r.cells.size(),
                  static_cast<size_t>(r.n) * static_cast<size_t>(r.n));
      }
    }
  }
}

TEST(FuzzRobustness, PnmReaderSurvivesRandomBytes) {
  Rng rng(73);
  for (int trial = 0; trial < 40; ++trial) {
    std::string path =
        WriteRandomFile("fuzz_img.ppm", 1 + rng.NextBelow(2048), &rng);
    (void)ReadPpm(path);
  }
  // Header-shaped prefixes with lying dimensions.
  for (const char* header :
       {"P6\n999999999 999999999\n255\n", "P6\n-3 5\n255\n",
        "P6\n2 2\n255\nab", "P6\n\n\n"}) {
    std::string path = testing::TempDir() + "/fuzz_hdr.ppm";
    std::ofstream(path, std::ios::binary) << header;
    EXPECT_FALSE(ReadPpm(path).ok()) << header;
  }
}

TEST(FuzzRobustness, NeuralNetLoadSurvivesRandomBytes) {
  Rng rng(74);
  for (int trial = 0; trial < 40; ++trial) {
    std::string path =
        WriteRandomFile("fuzz_net.bin", 1 + rng.NextBelow(2048), &rng);
    EXPECT_FALSE(NeuralNet::Load(path).ok()) << trial;
  }
  // Valid magic + absurd layer sizes must be rejected, not allocated.
  std::string path = testing::TempDir() + "/fuzz_net2.bin";
  {
    std::ofstream out(path, std::ios::binary);
    uint32_t magic = 0x444E4E31, n = 3;
    uint32_t sizes[3] = {0xFFFFFFFF, 0xFFFFFFFF, 7};
    out.write(reinterpret_cast<char*>(&magic), 4);
    out.write(reinterpret_cast<char*>(&n), 4);
    out.write(reinterpret_cast<char*>(sizes), 12);
  }
  EXPECT_FALSE(NeuralNet::Load(path).ok());
}

// --- durability surfaces -------------------------------------------------

std::string FreshFuzzDir(const std::string& name) {
  FileSystem* fs = FileSystem::Default();
  const std::string dir = testing::TempDir() + "/" + name;
  if (fs->Exists(dir)) {
    auto names = fs->ListDir(dir);
    EXPECT_TRUE(names.ok());
    for (const std::string& n : names.value()) {
      EXPECT_TRUE(fs->Remove(JoinPath(dir, n)).ok());
    }
  } else {
    EXPECT_TRUE(fs->CreateDir(dir).ok());
  }
  return dir;
}

/// Builds a store with a snapshot AND live journal segments, then
/// returns every file's pristine bytes.
std::vector<std::pair<std::string, std::string>> BuildPristineStore(
    const std::string& dir) {
  FileSystem* fs = FileSystem::Default();
  auto store = DurableEventStore::Open(dir);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(store.value()->SetFps(24.0).ok());
  LookAtMatrix m(3);
  m.Set(0, 1, true);
  for (int f = 0; f < 6; ++f) {
    EXPECT_TRUE(
        store.value()
            ->AddLookAt(LookAtRecord::FromMatrix(f, f / 24.0, m))
            .ok());
    if (f == 2) EXPECT_TRUE(store.value()->Checkpoint().ok());
  }
  EXPECT_TRUE(store.value()->Close().ok());
  std::vector<std::pair<std::string, std::string>> files;
  auto names = fs->ListDir(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& n : names.value()) {
    auto data = fs->ReadFile(JoinPath(dir, n));
    EXPECT_TRUE(data.ok());
    files.emplace_back(n, data.value());
  }
  return files;
}

TEST(FuzzRobustness, JournalReplaySurvivesRandomSegmentBytes) {
  FileSystem* fs = FileSystem::Default();
  Rng rng(76);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string dir = FreshFuzzDir("fuzz_jrnl");
    std::string bytes;
    size_t size = rng.NextBelow(512);
    for (size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ASSERT_TRUE(
        AtomicWriteFile(fs, JoinPath(dir, "journal-000000.wal"), bytes).ok());
    JournalReplayInfo info;
    // Any outcome is fine — salvage or a descriptive Corruption — as
    // long as it is a Status and not a crash or runaway allocation.
    (void)ReplayJournal(
        fs, dir, [](std::string_view) { return Status::OK(); }, &info);
  }
}

TEST(FuzzRobustness, DurableStoreOpenSurvivesBitFlips) {
  FileSystem* fs = FileSystem::Default();
  const std::string pristine_dir = FreshFuzzDir("fuzz_store_src");
  const auto pristine = BuildPristineStore(pristine_dir);
  ASSERT_GE(pristine.size(), 2u);  // snapshot + at least one segment

  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string dir = FreshFuzzDir("fuzz_store_mut");
    const size_t victim = rng.NextBelow(pristine.size());
    for (size_t i = 0; i < pristine.size(); ++i) {
      std::string data = pristine[i].second;
      if (i == victim && !data.empty()) {
        int flips = 1 + static_cast<int>(rng.NextBelow(6));
        for (int k = 0; k < flips; ++k) {
          data[rng.NextBelow(data.size())] ^=
              static_cast<char>(1u << rng.NextBelow(8));
        }
      }
      ASSERT_TRUE(
          AtomicWriteFile(fs, JoinPath(dir, pristine[i].first), data).ok());
    }
    auto store = DurableEventStore::Open(dir);
    if (store.ok()) {
      // Whatever survived must be internally consistent.
      for (const auto& r : store.value()->repository().lookat_records()) {
        EXPECT_EQ(r.cells.size(),
                  static_cast<size_t>(r.n) * static_cast<size_t>(r.n));
      }
    } else {
      // Descriptive failure, never an empty message.
      EXPECT_FALSE(store.status().message().empty());
    }
  }
}

TEST(FuzzRobustness, FsckSurvivesAndRepairsBitFlips) {
  FileSystem* fs = FileSystem::Default();
  const std::string pristine_dir = FreshFuzzDir("fuzz_fsck_src");
  const auto pristine = BuildPristineStore(pristine_dir);

  Rng rng(78);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string dir = FreshFuzzDir("fuzz_fsck_mut");
    const size_t victim = rng.NextBelow(pristine.size());
    for (size_t i = 0; i < pristine.size(); ++i) {
      std::string data = pristine[i].second;
      if (i == victim && !data.empty()) {
        data[rng.NextBelow(data.size())] ^=
            static_cast<char>(1u << rng.NextBelow(8));
      }
      ASSERT_TRUE(
          AtomicWriteFile(fs, JoinPath(dir, pristine[i].first), data).ok());
    }
    auto verify = RunFsck(fs, dir, FsckOptions{});
    ASSERT_TRUE(verify.ok()) << verify.status().ToString();
    FsckOptions repair_opts;
    repair_opts.repair = true;
    auto repair = RunFsck(fs, dir, repair_opts);
    ASSERT_TRUE(repair.ok()) << repair.status().ToString();
    // Whatever fsck did, the directory must now open.
    auto store = DurableEventStore::Open(dir);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
  }
}

TEST(FuzzRobustness, QueryParserSurvivesRandomStrings) {
  MetadataRepository repo;
  repo.set_fps(10.0);
  LookAtMatrix m(3);
  ASSERT_TRUE(
      repo.AddLookAt(LookAtRecord::FromMatrix(0, 0.0, m)).ok());
  Rng rng(75);
  const char charset[] = "ecloktimfwandPh0123456789.,()[]>=& ";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    size_t len = rng.NextBelow(40);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(charset[rng.NextBelow(sizeof(charset) - 1)]);
    }
    auto query = ParseQuery(text, &repo);
    if (query.ok()) {
      (void)query.value().Execute();  // anything that parses must run
    }
  }
}

}  // namespace
}  // namespace dievent
