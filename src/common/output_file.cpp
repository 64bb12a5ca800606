#include "common/output_file.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/error.hpp"

namespace ictm {

struct OutputFile::Stream {
  std::ofstream out;
};

namespace {

void RemoveIfRegular(const std::string& path) noexcept {
  std::error_code ec;
  if (std::filesystem::symlink_status(path, ec).type() ==
      std::filesystem::file_type::regular) {
    std::remove(path.c_str());
  }
}

// `path` made absolute, with `.`, `..` and the symlinks of its
// existing prefix resolved; empty when that fails.
std::filesystem::path ResolvedPath(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path absolute = std::filesystem::absolute(path, ec);
  if (ec) return {};
  std::filesystem::path resolved =
      std::filesystem::weakly_canonical(absolute, ec);
  return ec ? std::filesystem::path() : resolved;
}

}  // namespace

OutputFile::OutputFile(const std::string& path)
    : path_(path), stream_(std::make_unique<Stream>()) {
  stream_->out.open(path, std::ios::binary);
  ICTM_REQUIRE(stream_->out.is_open(),
               "cannot open file for writing: " + path);
}

OutputFile::~OutputFile() {
  // Closed means committed, or a failed commit already cleaned up.
  if (!stream_->out.is_open()) return;
  stream_->out.close();
  RemoveIfRegular(path_);
}

std::ostream& OutputFile::stream() noexcept { return stream_->out; }

void OutputFile::commit() {
  std::ofstream& out = stream_->out;
  ICTM_REQUIRE(out.is_open(), "output file committed twice: " + path_);
  out.close();  // flushes; a short write or a full disk sets failbit
  if (!out.fail()) return;
  RemoveIfRegular(path_);
  throw Error("cannot write file completely (short write or full disk): " +
              path_);
}

void RequireDistinctOutput(const std::string& other,
                           const std::string& output) {
  // Existing files compare by identity, a file not created yet by its
  // resolved path; a path that cannot be resolved is distinct.
  std::error_code ec;
  const std::filesystem::path resolved = ResolvedPath(output);
  const bool same = std::filesystem::equivalent(other, output, ec) ||
                    (!resolved.empty() && resolved == ResolvedPath(other));
  ICTM_REQUIRE(!same,
               "output names the same file as " + other + ": " + output);
}

}  // namespace ictm
