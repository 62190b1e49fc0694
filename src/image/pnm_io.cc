#include "image/pnm_io.h"

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/strings.h"

namespace dievent {

namespace {

/// Reads one whitespace-delimited token, skipping '#' comments. Leaves
/// `*pos` one past the token's whitespace terminator — the byte where a
/// binary payload following the final header token begins.
Status NextToken(std::string_view data, size_t* pos, std::string* token) {
  token->clear();
  size_t i = *pos;
  while (i < data.size()) {
    if (data[i] == '#') {
      while (i < data.size() && data[i] != '\n') ++i;
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(data[i]))) break;
    ++i;
  }
  if (i >= data.size()) {
    return Status::Corruption("unexpected end of PNM header");
  }
  while (i < data.size() &&
         !std::isspace(static_cast<unsigned char>(data[i]))) {
    token->push_back(data[i]);
    ++i;
  }
  *pos = i < data.size() ? i + 1 : i;
  return Status::OK();
}

/// Parses a header field as a whole decimal integer: a token with any
/// character left over ("2x", "+3", "1e3") is rejected, not read as its
/// numeric prefix.
Status ParseHeaderField(const std::string& token, int* value) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  if (ec != std::errc() || ptr != end) {
    return Status::Corruption("non-numeric PNM header field: " + token);
  }
  return Status::OK();
}

}  // namespace

Status WritePpm(const ImageRgb& image, const std::string& path) {
  if (image.channels() != 3) {
    return Status::InvalidArgument(StrFormat(
        "expected 3-channel image, got %d channels", image.channels()));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "P6\n" << image.width() << " " << image.height() << "\n255\n";
  out.write(reinterpret_cast<const char*>(image.data().data()),
            static_cast<std::streamsize>(image.size()));
  if (!out) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<ImageRgb> ReadPpm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return ParsePpm(data, path);
}

Result<ImageRgb> ParsePpm(std::string_view data, const std::string& name) {
  size_t pos = 0;
  std::string tok;
  DIEVENT_RETURN_NOT_OK(NextToken(data, &pos, &tok));
  if (tok != "P6") {
    return Status::Corruption(StrFormat("bad magic '%s' in %s (want P6)",
                                        tok.c_str(), name.c_str()));
  }
  int dims[3];
  for (int& d : dims) {
    DIEVENT_RETURN_NOT_OK(NextToken(data, &pos, &tok));
    DIEVENT_RETURN_NOT_OK(ParseHeaderField(tok, &d));
  }
  if (dims[0] <= 0 || dims[1] <= 0 || dims[2] != 255) {
    return Status::Corruption("unsupported PNM dimensions/maxval");
  }
  // Dimension sanity cap: a corrupt or hostile header must not drive a
  // multi-gigabyte allocation. 8192 x 8192 is far beyond any frame this
  // project produces.
  constexpr int kMaxDim = 8192;
  if (dims[0] > kMaxDim || dims[1] > kMaxDim) {
    return Status::Corruption(
        StrFormat("implausible PNM dimensions %dx%d in %s", dims[0],
                  dims[1], name.c_str()));
  }
  ImageRgb img(dims[0], dims[1], 3);
  if (data.size() - pos < img.size()) {
    return Status::Corruption("truncated PNM payload: " + name);
  }
  std::memcpy(img.data().data(), data.data() + pos, img.size());
  return img;
}

}  // namespace dievent
