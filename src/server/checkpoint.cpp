#include "server/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/error.hpp"
#include "common/output_file.hpp"
#include "server/bytes.hpp"
#include "stream/format.hpp"

namespace ictm::server {

using namespace detail;

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'I', 'C', 'K', 'S', '1', '\r', '\n', '\0'};
constexpr char kSuffix[] = ".icks";

std::string HexEncode(const std::string& raw) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() * 2);
  for (unsigned char ch : raw) {
    out.push_back(kDigits[ch >> 4]);
    out.push_back(kDigits[ch & 0x0f]);
  }
  return out;
}

void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  PutU64(out, s.size());
  PutBytes(out, s.data(), s.size());
}

void PutVector(std::vector<std::uint8_t>& out, const linalg::Vector& v) {
  PutU64(out, v.size());
  PutBytes(out, v.data(), v.size() * sizeof(double));
}

std::string GetString(ByteCursor& c) { return c.getString(c.getU64()); }

linalg::Vector GetVector(ByteCursor& c) {
  const std::uint64_t count = c.getU64();
  linalg::Vector v(c.holdsDoubles(count) ? static_cast<std::size_t>(count)
                                         : 0);
  if (!c.getDoubles(v.data(), count)) return {};
  return v;
}

std::vector<std::uint8_t> Serialize(const SessionCheckpoint& cp) {
  std::vector<std::uint8_t> body;
  PutString(body, cp.sessionKey);
  PutString(body, cp.topologySpec);
  PutU64(body, cp.topologySeed);
  PutF64(body, cp.f);
  PutU64(body, cp.window);
  PutU64(body, static_cast<std::uint64_t>(cp.solver));
  PutU64(body, cp.state.seq);
  PutVector(body, cp.state.preference);
  PutVector(body, cp.state.windowIngress);
  PutVector(body, cp.state.windowEgress);
  PutU64(body, cp.state.windowFill);
  return body;
}

bool Deserialize(const std::vector<std::uint8_t>& body,
                 SessionCheckpoint* out) {
  ByteCursor c(body);
  SessionCheckpoint cp;
  cp.sessionKey = GetString(c);
  cp.topologySpec = GetString(c);
  cp.topologySeed = c.getU64();
  cp.f = c.getF64();
  cp.window = c.getU64();
  const std::uint64_t solver = c.getU64();
  cp.state.seq = c.getU64();
  cp.state.preference = GetVector(c);
  cp.state.windowIngress = GetVector(c);
  cp.state.windowEgress = GetVector(c);
  cp.state.windowFill = static_cast<std::size_t>(c.getU64());
  if (!c.atEnd()) return false;
  switch (solver) {
    case static_cast<std::uint64_t>(core::SolverKind::kAuto):
    case static_cast<std::uint64_t>(core::SolverKind::kDense):
      cp.solver = static_cast<core::SolverKind>(solver);
      break;
    default:
      return false;
  }
  *out = cp;
  return true;
}

/// Parses "<hexkey>-<seq>.icks"; false for foreign files.
bool ParseFileName(const std::string& name, const std::string& hexKey,
                   std::uint64_t* seq) {
  const std::string prefix = hexKey + "-";
  if (name.rfind(prefix, 0) != 0) return false;
  const std::size_t suffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= prefix.size() + suffixLen) return false;
  if (name.compare(name.size() - suffixLen, suffixLen, kSuffix) != 0)
    return false;
  std::uint64_t value = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffixLen; ++i) {
    const char ch = name[i];
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  *seq = value;
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(std::max<std::size_t>(keep, 1)) {}

void CheckpointStore::save(const SessionCheckpoint& checkpoint) {
  ICTM_REQUIRE(!checkpoint.sessionKey.empty(),
               "cannot checkpoint a session without a key");
  fs::create_directories(dir_);
  const std::string hexKey = HexEncode(checkpoint.sessionKey);
  const std::vector<std::uint8_t> body = Serialize(checkpoint);
  const std::uint32_t crc = stream::Crc32(body.data(), body.size());
  const std::uint64_t bodyLen = body.size();

  const std::string finalPath = dir_ + "/" + hexKey + "-" +
                                std::to_string(checkpoint.state.seq) + kSuffix;
  const std::string tmpPath = finalPath + ".tmp";
  OutputFile file(tmpPath);
  std::ostream& os = file.stream();
  os.write(kMagic, sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&bodyLen), sizeof(bodyLen));
  os.write(reinterpret_cast<const char*>(body.data()),
           static_cast<std::streamsize>(body.size()));
  os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  file.commit();
  std::error_code ec;
  fs::rename(tmpPath, finalPath, ec);
  ICTM_REQUIRE(!ec, "cannot publish checkpoint " + finalPath + ": " +
                        ec.message());

  // Prune beyond the retention bound, oldest (lowest seq) first.
  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::uint64_t seq = 0;
    if (ParseFileName(entry.path().filename().string(), hexKey, &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  while (seqs.size() > keep_) {
    const std::string victim =
        dir_ + "/" + hexKey + "-" + std::to_string(seqs.front()) + kSuffix;
    fs::remove(victim, ec);  // best effort; a survivor is harmless
    seqs.erase(seqs.begin());
  }
}

std::optional<SessionCheckpoint> CheckpointStore::load(
    const std::string& sessionKey, std::uint64_t maxSeq) const {
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return std::nullopt;
  const std::string hexKey = HexEncode(sessionKey);

  std::vector<std::uint64_t> seqs;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t seq = 0;
    if (ParseFileName(entry.path().filename().string(), hexKey, &seq) &&
        seq <= maxSeq) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end(), std::greater<>());

  for (std::uint64_t seq : seqs) {  // newest usable wins; skip corrupt
    const std::string path =
        dir_ + "/" + hexKey + "-" + std::to_string(seq) + kSuffix;
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open()) continue;
    char magic[sizeof(kMagic)] = {};
    std::uint64_t bodyLen = 0;
    is.read(magic, sizeof(magic));
    is.read(reinterpret_cast<char*>(&bodyLen), sizeof(bodyLen));
    if (!is.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
      continue;
    if (bodyLen > (1ull << 32)) continue;
    std::vector<std::uint8_t> body(static_cast<std::size_t>(bodyLen));
    std::uint32_t crc = 0;
    is.read(reinterpret_cast<char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
    is.read(reinterpret_cast<char*>(&crc), sizeof(crc));
    if (!is.good() || stream::Crc32(body.data(), body.size()) != crc) continue;
    SessionCheckpoint cp;
    if (!Deserialize(body, &cp) || cp.sessionKey != sessionKey ||
        cp.state.seq != seq) {
      continue;
    }
    return cp;
  }
  return std::nullopt;
}

void CheckpointStore::drop(const std::string& sessionKey) {
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return;
  const std::string hexKey = HexEncode(sessionKey);
  std::vector<fs::path> victims;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::uint64_t seq = 0;
    if (ParseFileName(entry.path().filename().string(), hexKey, &seq)) {
      victims.push_back(entry.path());
    }
  }
  for (const auto& path : victims) fs::remove(path, ec);
}

}  // namespace ictm::server
