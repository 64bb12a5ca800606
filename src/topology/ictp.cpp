#include "topology/ictp.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/output_file.hpp"

namespace ictm::topology {

namespace {

constexpr double kDefaultCapacityBps = 10e9;

[[noreturn]] void Fail(const std::string& source, std::size_t line,
                       const std::string& msg) {
  throw Error(source + ":" + std::to_string(line) + ": " + msg);
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

bool IsValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!IsNameChar(c)) return false;
  }
  return true;
}

// Splits a line into whitespace-separated fields, dropping everything
// from the first '#' on.
std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

// Strict positive-finite double parse (whole field must be consumed).
double ParsePositiveDouble(const std::string& field, const char* what,
                           const std::string& source, std::size_t line) {
  double value = 0.0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    Fail(source, line,
         std::string(what) + " is not a number: '" + field + "'");
  }
  if (!std::isfinite(value) || value <= 0.0) {
    Fail(source, line,
         std::string(what) + " must be finite and > 0, got: " + field);
  }
  return value;
}

// Shortest round-trip decimal form, as the JSON model uses — equal
// doubles always format to equal bytes.
std::string FormatDouble(double value) {
  std::array<char, 32> buf;
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  ICTM_REQUIRE(ec == std::errc{}, "double formatting failed");
  return std::string(buf.data(), ptr);
}

}  // namespace

Graph ParseIctp(std::istream& is, const std::string& source) {
  Graph g;
  std::unordered_map<std::string, NodeId> ids;
  std::string line;
  std::size_t lineNo = 0;
  bool sawMagic = false;

  auto nodeId = [&](const std::string& name) -> NodeId {
    const auto it = ids.find(name);
    if (it == ids.end()) {
      Fail(source, lineNo, "unknown node '" + name +
                               "' (nodes must be declared before links "
                               "reference them)");
    }
    return it->second;
  };

  while (std::getline(is, line)) {
    ++lineNo;
    const std::vector<std::string> fields = Fields(line);
    if (fields.empty()) continue;  // blank or comment-only line

    if (!sawMagic) {
      if (fields.size() != 2 || fields[0] != "ictp") {
        Fail(source, lineNo,
             "expected magic line 'ictp 1' before any directive");
      }
      if (fields[1] != "1") {
        Fail(source, lineNo,
             "unsupported ictp version: " + fields[1] +
                 " (this reader understands version 1)");
      }
      sawMagic = true;
      continue;
    }

    const std::string& directive = fields[0];
    if (directive == "node") {
      if (fields.size() != 2) {
        Fail(source, lineNo, "node takes exactly one field: node <name>");
      }
      const std::string& name = fields[1];
      if (!IsValidName(name)) {
        Fail(source, lineNo,
             "invalid node name '" + name +
                 "' (allowed characters: A-Za-z0-9_.-)");
      }
      if (ids.count(name) != 0) {
        Fail(source, lineNo, "duplicate node name '" + name + "'");
      }
      ids.emplace(name, g.addNode(name));
    } else if (directive == "link" || directive == "bilink") {
      if (fields.size() < 4 || fields.size() > 5) {
        Fail(source, lineNo,
             directive + " takes 3 or 4 fields: " + directive +
                 " <a> <b> <weight> [<capacity_bps>]");
      }
      const NodeId a = nodeId(fields[1]);
      const NodeId b = nodeId(fields[2]);
      if (a == b) {
        Fail(source, lineNo,
             "self-loop on node '" + fields[1] + "' is not allowed");
      }
      const double weight =
          ParsePositiveDouble(fields[3], "weight", source, lineNo);
      const double capacity =
          fields.size() == 5
              ? ParsePositiveDouble(fields[4], "capacity", source, lineNo)
              : kDefaultCapacityBps;
      if (directive == "link") {
        g.addLink(a, b, weight, capacity);
      } else {
        g.addBidirectionalLink(a, b, weight, capacity);
      }
    } else {
      Fail(source, lineNo,
           "unknown directive '" + directive +
               "' (expected node, link or bilink)");
    }
  }

  if (!sawMagic) {
    Fail(source, lineNo, "empty or truncated file: missing 'ictp 1' magic");
  }
  if (g.nodeCount() == 0) {
    Fail(source, lineNo, "topology declares no nodes");
  }
  if (!IsStronglyConnected(g)) {
    throw Error(source +
                ": topology is not strongly connected (every node must "
                "reach every other node)");
  }
  return g;
}

Graph ParseIctpString(const std::string& text, const std::string& source) {
  std::istringstream is(text);
  return ParseIctp(is, source);
}

Graph ReadIctpFile(const std::string& path) {
  std::ifstream is(path);
  ICTM_REQUIRE(is.is_open(), "cannot open file for reading: " + path);
  return ParseIctp(is, path);
}

void WriteIctp(std::ostream& os, const Graph& g) {
  os << "ictp 1\n";
  for (NodeId id = 0; id < g.nodeCount(); ++id) {
    const std::string& name = g.nodeName(id);
    ICTM_REQUIRE(IsValidName(name),
                 "node name not representable in .ictp: '" + name + "'");
    os << "node " << name << "\n";
  }
  for (LinkId id = 0; id < g.linkCount();) {
    const Link& l = g.link(id);
    // Fold the adjacent reverse pair addBidirectionalLink creates.
    if (id + 1 < g.linkCount()) {
      const Link& r = g.link(id + 1);
      if (r.src == l.dst && r.dst == l.src &&
          r.igpWeight == l.igpWeight && r.capacityBps == l.capacityBps) {
        os << "bilink " << g.nodeName(l.src) << ' ' << g.nodeName(l.dst)
           << ' ' << FormatDouble(l.igpWeight) << ' '
           << FormatDouble(l.capacityBps) << "\n";
        id += 2;
        continue;
      }
    }
    os << "link " << g.nodeName(l.src) << ' ' << g.nodeName(l.dst) << ' '
       << FormatDouble(l.igpWeight) << ' ' << FormatDouble(l.capacityBps)
       << "\n";
    ++id;
  }
}

std::string WriteIctpString(const Graph& g) {
  std::ostringstream os;
  WriteIctp(os, g);
  return os.str();
}

void WriteIctpFile(const std::string& path, const Graph& g) {
  OutputFile file(path);
  WriteIctp(file.stream(), g);
  file.commit();
}

}  // namespace ictm::topology
