// Lint fixture: MUST fire ICTM-D006 (and nothing else).
// A raw output stream reports success after ENOSPC unless its caller
// flushes, closes and checks it, and it leaves a partial file behind
// when writing fails; ictm::OutputFile commits the whole file or
// removes it.  Input streams stay legal.
#include <fstream>
#include <string>

void WriteGreeting(const std::string& path) {
  std::ofstream out(path);                              // ICTM-D006
  out << "hello\n";
}

void Rewrite(const std::string& path) {
  std::fstream io(path, std::ios::in | std::ios::out);  // ICTM-D006
  io << "x";
}

std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}
