// Storage faults injected under ImageSequenceSource: every frame read
// goes through the injected FileSystem, so seeded mid-read EIO and
// short (torn) reads exercise the REAL decoder failure paths — the
// error surface the acquisition retry/breaker machinery consumes.

#include <gtest/gtest.h>

#include <string>

#include "common/strings.h"
#include "image/pnm_io.h"
#include "io/faulty_file.h"
#include "video/image_sequence_source.h"

namespace dievent {
namespace {

/// Writes `n` tiny PPM frames and returns the printf-style pattern.
std::string WriteFrames(const std::string& name, int n) {
  const std::string dir = testing::TempDir() + "/" + name;
  FileSystem* fs = FileSystem::Default();
  if (!fs->Exists(dir)) {
    EXPECT_TRUE(fs->CreateDir(dir).ok());
  }
  for (int i = 0; i < n; ++i) {
    ImageRgb img(6, 4, 3);
    img.Fill(static_cast<uint8_t>(40 + i));
    EXPECT_TRUE(
        WritePpm(img, StrFormat("%s/f_%04d.ppm", dir.c_str(), i)).ok());
  }
  return dir + "/f_%04d.ppm";
}

TEST(ImageSequenceFaults, HealthyFilesystemDecodesEveryFrame) {
  const std::string pattern = WriteFrames("seq_ok", 3);
  FaultyFileSystem fs(FileSystem::Default(), FileFaultSpec{});
  auto source = ImageSequenceSource::Open(pattern, 10.0, 0, &fs);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value().NumFrames(), 3);
  for (int i = 0; i < 3; ++i) {
    auto frame = source.value().GetFrame(i);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().image.at(0, 0, 0), 40 + i);
    EXPECT_DOUBLE_EQ(frame.value().timestamp_s, i / 10.0);
  }
}

TEST(ImageSequenceFaults, InjectedReadErrorSurfacesAsIoError) {
  const std::string pattern = WriteFrames("seq_eio", 2);
  FileFaultSpec spec;
  spec.read_error_probability = 1.0;
  FaultyFileSystem fs(FileSystem::Default(), spec);
  // Open probes existence only; the poisoned reads hit at GetFrame.
  auto source = ImageSequenceSource::Open(pattern, 10.0, 0, &fs);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto frame = source.value().GetFrame(0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
  EXPECT_GT(fs.counters().injected_read_errors, 0);
}

TEST(ImageSequenceFaults, TornReadIsCorruptionNeverAPartialImage) {
  const std::string pattern = WriteFrames("seq_torn", 4);
  FileFaultSpec spec;
  spec.seed = 21;
  spec.short_read_probability = 1.0;
  FaultyFileSystem fs(FileSystem::Default(), spec);
  auto source = ImageSequenceSource::Open(pattern, 10.0, 0, &fs);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  int failures = 0;
  for (int i = 0; i < 4; ++i) {
    auto frame = source.value().GetFrame(i);
    if (frame.ok()) continue;  // the torn prefix happened to parse whole
    ++failures;
    // A truncated PPM must decode to a descriptive Corruption — not a
    // crash, not a silently short image.
    EXPECT_EQ(frame.status().code(), StatusCode::kCorruption)
        << frame.status().ToString();
  }
  EXPECT_GT(failures, 0) << "short reads never tore a frame";
  EXPECT_GT(fs.counters().injected_short_reads, 0);
}

TEST(ImageSequenceFaults, IntermittentFaultsOnlyFailTheFaultedReads) {
  const std::string pattern = WriteFrames("seq_flaky", 20);
  FileFaultSpec spec;
  spec.seed = 4;
  spec.read_error_probability = 0.3;
  FaultyFileSystem fs(FileSystem::Default(), spec);
  auto source = ImageSequenceSource::Open(pattern, 10.0, 0, &fs);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  int ok = 0, failed = 0;
  for (int i = 0; i < 20; ++i) {
    auto frame = source.value().GetFrame(i);
    if (frame.ok()) {
      EXPECT_EQ(frame.value().image.at(0, 0, 0), 40 + i);
      ++ok;
    } else {
      EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
      ++failed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(failed, 0);
  EXPECT_EQ(failed, fs.counters().injected_read_errors);
}

}  // namespace
}  // namespace dievent
