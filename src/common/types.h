// Core identifier and unit types shared by every coopfs module.
//
// The simulated system is a network file system: one server, many clients,
// files made of fixed-size blocks (8 KB in the paper). Blocks are the unit of
// caching, forwarding, and consistency.
#ifndef COOPFS_SRC_COMMON_TYPES_H_
#define COOPFS_SRC_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace coopfs {

// Simulated time and latency are expressed in microseconds, matching the
// paper's technology tables (Figures 1 and 3).
using Micros = std::int64_t;

// Identifies one client machine. Clients are numbered densely from 0.
using ClientId = std::uint32_t;

// Identifies one file on the server.
using FileId = std::uint32_t;

// Block index within a file (block 0 holds bytes [0, kBlockSizeBytes)).
using BlockIndex = std::uint32_t;

// Sentinel for "no client" (e.g. a block cached nowhere).
inline constexpr ClientId kNoClient = std::numeric_limits<ClientId>::max();

// The paper simulates 8 KB cache blocks and does not allocate partial blocks.
inline constexpr std::size_t kBlockSizeBytes = 8 * 1024;

// Uniquely identifies one cacheable file block across the whole system.
//
// BlockId is a value type: cheap to copy, totally ordered, and hashable, so
// it can key hash maps (cache indexes, the server directory) directly.
struct BlockId {
  FileId file = 0;
  BlockIndex block = 0;

  friend bool operator==(const BlockId&, const BlockId&) = default;
  friend auto operator<=>(const BlockId&, const BlockId&) = default;

  // Packs the id into one 64-bit word; used for hashing and compact storage.
  constexpr std::uint64_t Pack() const {
    return (static_cast<std::uint64_t>(file) << 32) | block;
  }

  static constexpr BlockId Unpack(std::uint64_t packed) {
    return BlockId{static_cast<FileId>(packed >> 32),
                   static_cast<BlockIndex>(packed & 0xffffffffu)};
  }

  std::string ToString() const {
    return "f" + std::to_string(file) + ":b" + std::to_string(block);
  }
};

// Storage hierarchy level that satisfied an access (paper Figures 4 and 5).
// Values double as indexes into per-level metric arrays.
enum class CacheLevel : std::uint8_t {
  kLocalMemory = 0,    // Requesting client's own cache.
  kRemoteClient = 1,   // Another client's memory (the cooperative level).
  kServerMemory = 2,   // Central server cache.
  kServerDisk = 3,     // Backing disk.
};

inline constexpr std::size_t kNumCacheLevels = 4;

// Human-readable level name, for tables and logs.
constexpr const char* CacheLevelName(CacheLevel level) {
  switch (level) {
    case CacheLevel::kLocalMemory:
      return "Local Memory";
    case CacheLevel::kRemoteClient:
      return "Remote Client";
    case CacheLevel::kServerMemory:
      return "Server Memory";
    case CacheLevel::kServerDisk:
      return "Server Disk";
  }
  return "Unknown";
}

// Converts a byte count to a whole number of cache blocks (rounding down;
// cache capacities in the paper are exact multiples of the block size).
constexpr std::size_t BytesToBlocks(std::size_t bytes) { return bytes / kBlockSizeBytes; }

constexpr std::size_t MiB(std::size_t mib) { return mib * 1024 * 1024; }

// SplitMix64 finalizer: cheap, invertible, and well distributed for the
// dense sequential ids (packed BlockId, FileId, ClientId) this codebase
// keys on. The one copy: the BlockId hash, FlatHash, the count-min sketch,
// the SplitMix64 generator and, through it, shard routing all call it.
constexpr std::uint64_t MixHash64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace coopfs

template <>
struct std::hash<coopfs::BlockId> {
  std::size_t operator()(const coopfs::BlockId& id) const noexcept {
    return static_cast<std::size_t>(coopfs::MixHash64(id.Pack()));
  }
};

#endif  // COOPFS_SRC_COMMON_TYPES_H_
