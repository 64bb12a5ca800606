// Lint fixture: MUST fire ICTM-D005 (and nothing else).
// sprintf/strcpy overflow silently; atoi/atof accept trailing junk and
// return 0 on error; std::stoul accepts trailing junk and throws an
// untyped exception — the repo's strict strtod/from_chars parsers
// reject malformed input with a located error instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

int ParseLoosely(const char* text) {
  char buffer[16];
  std::strcpy(buffer, text);          // ICTM-D005
  std::sprintf(buffer, "%d", 42);     // ICTM-D005
  return std::atoi(buffer);           // ICTM-D005
}

double ParseRate(const char* text) {
  return std::atof(text);             // ICTM-D005
}

unsigned long ParseCount(const std::string& text) {
  return std::stoul(text);            // ICTM-D005
}
