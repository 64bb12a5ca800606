// One way to write an output file: complete, or gone.
//
// commit() closes the file and throws ictm::Error unless every byte
// landed.  A file destroyed uncommitted, or whose commit fails, is
// closed and removed, but only when the path names a regular file: a
// FIFO, a device or a symlink is never unlinked (a symlink's target
// keeps what was written).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

namespace ictm {

/// An output file that is either committed whole or removed.
class OutputFile {
 public:
  /// Creates or truncates `path` in binary mode; throws ictm::Error
  /// when it cannot be opened.
  explicit OutputFile(const std::string& path);
  /// Removes the file unless it was committed.
  ~OutputFile();

  OutputFile(const OutputFile&) = delete;             ///< non-copyable
  OutputFile& operator=(const OutputFile&) = delete;  ///< non-copyable

  /// The stream to write to; commit() sees every failed write.
  std::ostream& stream() noexcept;
  /// The path the file was opened with.
  const std::string& path() const noexcept { return path_; }
  /// Flushes and closes the file.  Unless every byte landed, removes
  /// it as the destructor would and throws ictm::Error.
  void commit();

 private:
  struct Stream;  // the file stream, kept out of this header
  std::string path_;
  std::unique_ptr<Stream> stream_;
};

/// Throws ictm::Error when `output` names the same file as `other`,
/// an input that opening `output` would truncate before it was read or
/// another output of the same command: the same existing file (another
/// spelling, a hard link or a symlink), or, for a file not created
/// yet, the same path once `.`, `..` and symlinks are resolved.
void RequireDistinctOutput(const std::string& other,
                           const std::string& output);

}  // namespace ictm
