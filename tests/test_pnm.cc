#include "image/pnm_io.h"

#include <gtest/gtest.h>

#include <fstream>

namespace dievent {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(PnmIo, PpmRoundTrip) {
  ImageRgb img(3, 4, 3);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 3; ++x)
      PutRgb(&img, x, y,
             Rgb{static_cast<uint8_t>(x * 80), static_cast<uint8_t>(y * 60),
                 200});
  std::string path = TempPath("roundtrip.ppm");
  ASSERT_TRUE(WritePpm(img, path).ok());
  auto back = ReadPpm(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back.value() == img);
}

TEST(PnmIo, WriteRejectsWrongChannelCount) {
  ImageU8 gray(2, 2, 1);
  EXPECT_EQ(WritePpm(gray, TempPath("bad.ppm")).code(),
            StatusCode::kInvalidArgument);
}

TEST(PnmIo, ReadMissingFileIsIoError) {
  EXPECT_EQ(ReadPpm("/nonexistent/nowhere.ppm").status().code(),
            StatusCode::kIoError);
}

TEST(PnmIo, ReadRejectsBadMagic) {
  std::string path = TempPath("badmagic.ppm");
  // P5 (binary PGM) is a well-formed PNM, but not one this reader takes.
  for (const char* magic : {"P9", "P5"}) {
    std::ofstream(path) << magic << "\n2 2\n255\nxxxxxxxxxxxx";
    EXPECT_EQ(ReadPpm(path).status().code(), StatusCode::kCorruption)
        << magic;
  }
}

TEST(PnmIo, ReadRejectsTruncatedPayload) {
  std::string path = TempPath("trunc.ppm");
  std::ofstream(path) << "P6\n10 10\n255\nshort";
  EXPECT_EQ(ReadPpm(path).status().code(), StatusCode::kCorruption);
}

TEST(PnmIo, ReadSkipsComments) {
  std::string path = TempPath("comments.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n# a comment line\n2 # inline\n1\n255\n";
    for (char c = 40; c < 46; ++c) out.put(c);
  }
  auto img = ReadPpm(path);
  ASSERT_TRUE(img.ok()) << img.status();
  EXPECT_EQ(GetRgb(img.value(), 0, 0), (Rgb{40, 41, 42}));
  EXPECT_EQ(GetRgb(img.value(), 1, 0), (Rgb{43, 44, 45}));
}

TEST(PnmIo, ReadRejectsNonNumericHeader) {
  std::string path = TempPath("nonnum.ppm");
  std::ofstream(path) << "P6\nabc def\n255\n";
  EXPECT_EQ(ReadPpm(path).status().code(), StatusCode::kCorruption);
  // A field must be a whole decimal number: one with trailing junk or a
  // sign is rejected, not read as its numeric prefix (2, 3, 1). Each
  // header is followed by enough payload for that prefix reading.
  const std::string payload(64, 'x');
  for (const char* header :
       {"P6\n2x 1\n255\n", "P6\n2 +3\n255\n", "P6\n1e3 1\n255\n"}) {
    auto img = ParsePpm(header + payload, "junk.ppm");
    EXPECT_EQ(img.status().code(), StatusCode::kCorruption) << header;
  }
}

}  // namespace
}  // namespace dievent
