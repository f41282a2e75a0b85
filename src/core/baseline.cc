#include "src/core/baseline.h"

#include <optional>

namespace coopfs {

ReadOutcome BaselinePolicy::Read(ClientId client, BlockId block) {
  if (std::optional<ReadOutcome> hit = ReadLocal(client, block)) {
    return *hit;
  }
  if (std::optional<ReadOutcome> hit = ReadServerMemory(client, block)) {
    return *hit;
  }
  return ReadDisk(client, block);
}

}  // namespace coopfs
