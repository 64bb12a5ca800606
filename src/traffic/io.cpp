#include "traffic/io.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/output_file.hpp"

namespace ictm::traffic {

namespace {

// Header fields are parsed over the whole token: counts take no sign
// and no trailing junk, so "nodes=6x" or "bins=-1" is an error naming
// the field rather than a truncated or wrapped value.
std::size_t ParseHeaderCount(const std::string& value, const char* field) {
  std::size_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  ICTM_REQUIRE(ec == std::errc{} && ptr == end && !value.empty(),
               std::string("malformed TM CSV header: ") + field +
                   " is not a count: '" + value + "'");
  return v;
}

double ParseHeaderSeconds(const std::string& value, const char* field) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  ICTM_REQUIRE(ec == std::errc{} && ptr == end && std::isfinite(v) &&
                   v > 0.0,
               std::string("malformed TM CSV header: ") + field +
                   " is not a finite positive number: '" + value + "'");
  return v;
}

}  // namespace

CsvHeader ReadCsvHeader(std::istream& is) {
  std::string header;
  ICTM_REQUIRE(static_cast<bool>(std::getline(is, header)),
               "missing TM CSV header");
  CsvHeader h;
  {
    std::istringstream hs(header);
    std::string token;
    while (hs >> token) {
      if (token.rfind("nodes=", 0) == 0) {
        h.nodes = ParseHeaderCount(token.substr(6), "nodes");
      } else if (token.rfind("bins=", 0) == 0) {
        h.bins = ParseHeaderCount(token.substr(5), "bins");
      } else if (token.rfind("binSeconds=", 0) == 0) {
        h.binSeconds = ParseHeaderSeconds(token.substr(11), "binSeconds");
      }
    }
  }
  ICTM_REQUIRE(h.nodes > 0 && h.bins > 0 && h.binSeconds > 0.0,
               "malformed TM CSV header: " + header);
  return h;
}

void ReadCsvBin(std::istream& is, const CsvHeader& header,
                std::size_t binIndex, double* outBin) {
  const std::size_t n2 = header.nodes * header.nodes;
  // One heap string reused by callers looping over bins; reserve so a
  // typical full-precision row never reallocates while growing.
  static thread_local std::string line;
  line.reserve(n2 * 24);
  ICTM_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "TM CSV truncated at bin " + std::to_string(binIndex));

  const char* p = line.c_str();
  for (std::size_t k = 0; k < n2; ++k) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    ICTM_REQUIRE(end != p,
                 "TM CSV bin " + std::to_string(binIndex) +
                     ": non-numeric cell " + std::to_string(k));
    ICTM_REQUIRE(std::isfinite(v),
                 "TM CSV bin " + std::to_string(binIndex) +
                     ": non-finite value in cell " + std::to_string(k));
    ICTM_REQUIRE(v >= 0.0, "TM CSV bin " + std::to_string(binIndex) +
                               ": negative value in cell " +
                               std::to_string(k));
    outBin[k] = v;
    p = end;
    if (k + 1 < n2) {
      ICTM_REQUIRE(*p == ',',
                   "TM CSV bin " + std::to_string(binIndex) +
                       ": row holds fewer than " + std::to_string(n2) +
                       " cells");
      ++p;
    }
  }
  while (*p == ' ' || *p == '\r') ++p;
  ICTM_REQUIRE(*p == '\0', "TM CSV bin " + std::to_string(binIndex) +
                               ": row holds more than " +
                               std::to_string(n2) + " cells");
}

void WriteCsvHeader(std::ostream& os, const CsvHeader& header) {
  ICTM_REQUIRE(header.nodes > 0 && header.bins > 0 &&
                   header.binSeconds > 0.0,
               "invalid TM CSV header fields");
  os << "# ictm-tm nodes=" << header.nodes << " bins=" << header.bins
     << " binSeconds=" << std::setprecision(17) << header.binSeconds
     << "\n";
}

void WriteCsvBin(std::ostream& os, std::size_t nodes, const double* bin) {
  os << std::setprecision(17);
  const std::size_t n2 = nodes * nodes;
  for (std::size_t k = 0; k < n2; ++k) {
    if (k != 0) os << ',';
    os << bin[k];
  }
  os << '\n';
}

void WriteCsv(std::ostream& os, const TrafficMatrixSeries& series) {
  WriteCsvHeader(os, {series.nodeCount(), series.binCount(),
                      series.binSeconds()});
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    WriteCsvBin(os, series.nodeCount(), series.binData(t));
  }
  ICTM_REQUIRE(os.good(), "stream failure while writing TM CSV");
}

void WriteCsvFile(const std::string& path,
                  const TrafficMatrixSeries& series) {
  OutputFile out(path);
  WriteCsv(out.stream(), series);
  out.commit();
}

TrafficMatrixSeries ReadCsv(std::istream& is) {
  const CsvHeader h = ReadCsvHeader(is);
  TrafficMatrixSeries series(h.nodes, h.bins, h.binSeconds);
  for (std::size_t t = 0; t < h.bins; ++t) {
    ReadCsvBin(is, h, t, series.binData(t));
  }
  return series;
}

TrafficMatrixSeries ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  ICTM_REQUIRE(in.is_open(), "cannot open file for reading: " + path);
  return ReadCsv(in);
}

}  // namespace ictm::traffic
