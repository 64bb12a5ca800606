// OutputFile: a committed file holds every byte; an uncommitted or
// failed one is removed only when the path names a regular file, so a
// FIFO, a device or a symlink it was pointed at always survives.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "test_util.hpp"

namespace ictm {
namespace {

using test::TempPath;

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool IsSymlink(const std::string& path) {
  struct stat st {};
  return ::lstat(path.c_str(), &st) == 0 && S_ISLNK(st.st_mode);
}

bool IsFifo(const std::string& path) {
  struct stat st {};
  return ::lstat(path.c_str(), &st) == 0 && S_ISFIFO(st.st_mode);
}

bool Exists(const std::string& path) {
  struct stat st {};
  return ::lstat(path.c_str(), &st) == 0;
}

TEST(OutputFile, CommitWritesTheFile) {
  const std::string path = TempPath("of_commit.txt");
  {
    OutputFile file(path);
    file.stream() << "line 1\nline 2\n";
    file.commit();
    EXPECT_THROW(file.commit(), Error);  // a second commit is a bug
  }
  EXPECT_EQ(ReadText(path), "line 1\nline 2\n");
  ::unlink(path.c_str());
}

TEST(OutputFile, UncommittedRegularFileIsRemoved) {
  const std::string path = TempPath("of_uncommitted.txt");
  {
    OutputFile file(path);
    file.stream() << "partial";
  }
  EXPECT_FALSE(Exists(path));
}

TEST(OutputFile, UncommittedFifoIsKept) {
  const std::string fifo = TempPath("of_fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // Attach the reader first, so opening the writing end cannot block.
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  {
    OutputFile file(fifo);
    file.stream() << "partial";
  }
  EXPECT_TRUE(IsFifo(fifo)) << "the FIFO was unlinked";
  ::close(reader);
  ::unlink(fifo.c_str());
}

TEST(OutputFile, UncommittedSymlinkIsKept) {
  const std::string target = TempPath("of_target.txt");
  const std::string link = TempPath("of_link.txt");
  std::ofstream(target) << "user data\n";
  ASSERT_EQ(::symlink(target.c_str(), link.c_str()), 0);
  {
    OutputFile file(link);
    file.stream() << "partial";
  }
  EXPECT_TRUE(IsSymlink(link)) << "the symlink was unlinked";
  EXPECT_TRUE(Exists(target)) << "the symlink's target was unlinked";
  ::unlink(link.c_str());
  ::unlink(target.c_str());
}

TEST(OutputFile, FailedCommitThrowsAndKeepsTheDevice) {
  // /dev/full fails every flush with ENOSPC.  It is reached through a
  // symlink, and both must survive the failed commit.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const std::string link = TempPath("of_full");
  ASSERT_EQ(::symlink("/dev/full", link.c_str()), 0);
  {
    OutputFile file(link);
    file.stream() << "bytes that cannot land";
    EXPECT_THROW(file.commit(), Error);
  }
  EXPECT_TRUE(IsSymlink(link)) << "the symlink was unlinked";
  EXPECT_TRUE(Exists("/dev/full")) << "the device node was unlinked";
  ::unlink(link.c_str());
}

TEST(OutputFile, UnopenablePathThrows) {
  EXPECT_THROW(OutputFile(TempPath("no_such_dir") + "/out.txt"), Error);
}

TEST(OutputFile, RequireDistinctOutputSeesEverySpelling) {
  const std::string input = TempPath("of_input.txt");
  std::ofstream(input) << "input\n";
  const std::string dir = input.substr(0, input.rfind('/'));
  const std::string name = input.substr(input.rfind('/') + 1);
  const std::string link = TempPath("of_input_link.txt");
  ASSERT_EQ(::symlink(input.c_str(), link.c_str()), 0);

  EXPECT_THROW(RequireDistinctOutput(input, input), Error);
  EXPECT_THROW(RequireDistinctOutput(input, dir + "/./" + name), Error);
  EXPECT_THROW(RequireDistinctOutput(input, link), Error);
  EXPECT_NO_THROW(RequireDistinctOutput(input, TempPath("of_other.txt")));
  EXPECT_EQ(ReadText(input), "input\n");

  // Two outputs not created yet name the same file when their paths
  // resolve alike, through `.`, `..` or a symlinked directory.
  const std::string fresh = TempPath("of_fresh.txt");
  const std::string freshName = fresh.substr(fresh.rfind('/') + 1);
  const std::string dirLink = TempPath("of_dir_link");
  ASSERT_EQ(::symlink(dir.c_str(), dirLink.c_str()), 0);
  EXPECT_THROW(RequireDistinctOutput(fresh, dir + "/./" + freshName), Error);
  EXPECT_THROW(RequireDistinctOutput(fresh, dirLink + "/" + freshName),
               Error);
  EXPECT_NO_THROW(RequireDistinctOutput(fresh, TempPath("of_other.txt")));
  EXPECT_FALSE(Exists(fresh));
  ::unlink(dirLink.c_str());
  ::unlink(link.c_str());
  ::unlink(input.c_str());
}

}  // namespace
}  // namespace ictm
