#include "src/common/profiler.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>

#include "src/common/format.h"
#include "src/common/json.h"
#include "src/common/version.h"

namespace coopfs {

std::atomic<bool> Profiler::enabled_{false};
std::atomic<std::uint64_t> Profiler::allocation_count_{0};

namespace internal {

// Node of a thread's live call tree. Child lists are tiny (a handful of
// distinct span names per level), so linear scans beat a map.
struct LiveNode {
  const char* name = "";
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::vector<std::unique_ptr<LiveNode>> children;

  LiveNode* FindOrAddChild(const char* child_name) {
    for (const auto& child : children) {
      // Names are string literals: pointer equality is the common case, the
      // strcmp covers identical literals deduplicated differently per TU.
      if (child->name == child_name || std::strcmp(child->name, child_name) == 0) {
        return child.get();
      }
    }
    children.push_back(std::make_unique<LiveNode>());
    children.back()->name = child_name;
    return children.back().get();
  }
};

}  // namespace internal

namespace {

std::mutex& GlobalMutex() {
  static auto* mutex = new std::mutex();
  return *mutex;
}

// Exited threads' trees, merged. Guarded by GlobalMutex().
std::vector<Profiler::Node>& GlobalForest() {
  static auto* forest = new std::vector<Profiler::Node>();
  return *forest;
}

void MergeNode(const Profiler::Node& from, std::vector<Profiler::Node>& siblings) {
  for (Profiler::Node& sibling : siblings) {
    if (sibling.name == from.name) {
      sibling.count += from.count;
      sibling.total_ns += from.total_ns;
      for (const Profiler::Node& child : from.children) {
        MergeNode(child, sibling.children);
      }
      return;
    }
  }
  siblings.push_back(from);
}

void MergeLiveChildren(const internal::LiveNode& root, std::vector<Profiler::Node>& into);

Profiler::Node ConvertLive(const internal::LiveNode& live) {
  Profiler::Node node;
  node.name = live.name;
  node.count = live.count;
  node.total_ns = live.total_ns;
  MergeLiveChildren(live, node.children);
  return node;
}

void MergeLiveChildren(const internal::LiveNode& root, std::vector<Profiler::Node>& into) {
  for (const auto& child : root.children) {
    MergeNode(ConvertLive(*child), into);
  }
}

void SortForest(std::vector<Profiler::Node>& forest) {
  std::sort(forest.begin(), forest.end(),
            [](const Profiler::Node& a, const Profiler::Node& b) { return a.name < b.name; });
  for (Profiler::Node& node : forest) {
    SortForest(node.children);
  }
}

struct ThreadProfile {
  internal::LiveNode root;                  // Sentinel; only children matter.
  std::vector<internal::LiveNode*> stack{&root};

  ~ThreadProfile() {
    if (root.children.empty()) {
      return;
    }
    std::lock_guard<std::mutex> lock(GlobalMutex());
    MergeLiveChildren(root, GlobalForest());
  }
};

ThreadProfile& LocalProfile() {
  thread_local ThreadProfile profile;
  return profile;
}

}  // namespace

std::uint64_t Profiler::Node::ChildrenTotalNs() const {
  std::uint64_t sum = 0;
  for (const Node& child : children) {
    sum += child.total_ns;
  }
  return sum;
}

std::uint64_t Profiler::Node::SelfNs() const {
  const std::uint64_t children_ns = ChildrenTotalNs();
  return children_ns >= total_ns ? 0 : total_ns - children_ns;
}

void Profiler::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

void Profiler::Reset() {
  ThreadProfile& profile = LocalProfile();
  assert(profile.stack.size() == 1 && "Profiler::Reset with spans open");
  profile.root.children.clear();
  profile.stack.assign(1, &profile.root);
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalForest().clear();
}

std::vector<Profiler::Node> Profiler::Snapshot() {
  std::vector<Node> forest;
  {
    std::lock_guard<std::mutex> lock(GlobalMutex());
    forest = GlobalForest();
  }
  MergeLiveChildren(LocalProfile().root, forest);
  SortForest(forest);
  return forest;
}

void ProfileSpan::Begin(const char* name) {
  ThreadProfile& profile = LocalProfile();
  internal::LiveNode* node = profile.stack.back()->FindOrAddChild(name);
  profile.stack.push_back(node);
  node_ = node;
  start_ = std::chrono::steady_clock::now();
}

void ProfileSpan::End() {
  auto* node = static_cast<internal::LiveNode*>(node_);
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  node->total_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  ++node->count;
  ThreadProfile& profile = LocalProfile();
  // Spans are strictly scoped, so this span is the top of its thread's stack
  // unless Enable() flipped mid-nesting; find-and-truncate stays correct.
  while (profile.stack.size() > 1 && profile.stack.back() != node) {
    profile.stack.pop_back();
  }
  if (profile.stack.size() > 1) {
    profile.stack.pop_back();
  }
}

namespace {

void WriteNode(JsonWriter& json, const Profiler::Node& node) {
  json.BeginObject();
  json.Key("name").Value(node.name);
  json.Key("count").Value(node.count);
  json.Key("total_ns").Value(node.total_ns);
  json.Key("self_ns").Value(node.SelfNs());
  json.Key("children").BeginArray();
  for (const Profiler::Node& child : node.children) {
    WriteNode(json, child);
  }
  json.EndArray();
  json.EndObject();
}

Status ParseNode(const JsonValue& value, Profiler::Node& node) {
  std::uint64_t self_ns = 0;
  const JsonValue* children = value.FindArray("children");
  COOPFS_RETURN_IF_ERROR(ReadMembers(value, "name", &node.name, "count", &node.count,
                                     "total_ns", &node.total_ns, "self_ns", &self_ns));
  if (children == nullptr) {
    return Status::DataLoss("profile node '" + node.name + "' missing 'children' array");
  }
  node.children.resize(children->size());
  for (std::size_t i = 0; i < children->size(); ++i) {
    COOPFS_RETURN_IF_ERROR(ParseNode(children->items()[i], node.children[i]));
  }
  if (self_ns != node.SelfNs()) {
    return Status::DataLoss("profile node '" + node.name +
                            "': self_ns inconsistent with total_ns and children");
  }
  return Status::Ok();
}

}  // namespace

std::string ProfileToJson(const std::vector<Profiler::Node>& roots) {
  JsonWriter json(2);
  json.BeginObject();
  json.Key("schema").Value(kProfileSchema);
  json.Key("coopfs_version").Value(kVersionString);
  json.Key("roots").BeginArray();
  for (const Profiler::Node& root : roots) {
    WriteNode(json, root);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Result<std::vector<Profiler::Node>> ParseProfileDocument(std::string_view text) {
  Result<JsonValue> parsed = ParseJson(text);
  COOPFS_RETURN_IF_ERROR(parsed.status());
  std::string schema;
  COOPFS_RETURN_IF_ERROR(ReadMembers(*parsed, "schema", &schema));
  if (schema != kProfileSchema) {
    return Status::DataLoss("unsupported profile schema '" + schema + "'");
  }
  COOPFS_RETURN_IF_ERROR(
      RequireMembers<std::string>(*parsed, "profile document", {"coopfs_version"}));
  const JsonValue* roots = parsed->FindArray("roots");
  if (roots == nullptr) {
    return Status::DataLoss("profile document missing 'roots' array");
  }
  std::vector<Profiler::Node> forest(roots->size());
  for (std::size_t i = 0; i < roots->size(); ++i) {
    COOPFS_RETURN_IF_ERROR(ParseNode(roots->items()[i], forest[i]));
  }
  return forest;
}

Status ValidateProfileDocument(std::string_view text) {
  return ParseProfileDocument(text).status();
}

namespace {

void FlattenInto(const std::vector<Profiler::Node>& forest,
                 std::vector<ProfileFlatRow>& rows) {
  for (const Profiler::Node& node : forest) {
    ProfileFlatRow* row = nullptr;
    for (ProfileFlatRow& existing : rows) {
      if (existing.name == node.name) {
        row = &existing;
        break;
      }
    }
    if (row == nullptr) {
      rows.push_back(ProfileFlatRow{node.name, 0, 0, 0});
      row = &rows.back();
    }
    row->count += node.count;
    row->total_ns += node.total_ns;
    row->self_ns += node.SelfNs();
    FlattenInto(node.children, rows);
  }
}

}  // namespace

std::vector<ProfileFlatRow> FlattenProfileBySelfTime(const std::vector<Profiler::Node>& roots) {
  std::vector<ProfileFlatRow> rows;
  FlattenInto(roots, rows);
  std::sort(rows.begin(), rows.end(), [](const ProfileFlatRow& a, const ProfileFlatRow& b) {
    if (a.self_ns != b.self_ns) {
      return a.self_ns > b.self_ns;
    }
    return a.name < b.name;
  });
  return rows;
}

std::string ProfileSelfTimeTable(const std::vector<Profiler::Node>& roots,
                                 std::size_t max_rows) {
  std::vector<ProfileFlatRow> rows = FlattenProfileBySelfTime(roots);
  std::uint64_t root_total_ns = 0;
  for (const Profiler::Node& root : roots) {
    root_total_ns += root.total_ns;
  }
  if (max_rows != 0 && rows.size() > max_rows) {
    rows.resize(max_rows);
  }
  TableFormatter table({"Span", "Count", "Total", "Self", "Self %"});
  for (const ProfileFlatRow& row : rows) {
    const double share = root_total_ns == 0
                             ? 0.0
                             : static_cast<double>(row.self_ns) /
                                   static_cast<double>(root_total_ns);
    table.AddRow({row.name, std::to_string(row.count),
                  FormatMicros(static_cast<double>(row.total_ns) / 1000.0),
                  FormatMicros(static_cast<double>(row.self_ns) / 1000.0),
                  FormatPercent(share)});
  }
  return table.ToString();
}

std::string Profiler::ToJson() { return ProfileToJson(Snapshot()); }

std::string Profiler::SelfTimeTable(std::size_t max_rows) {
  return ProfileSelfTimeTable(Snapshot(), max_rows);
}

Status Profiler::WriteFile(const std::string& path) {
  const std::string document = ToJson();
  COOPFS_RETURN_IF_ERROR(ValidateProfileDocument(document));
  return WriteTextFile(path, document);
}

}  // namespace coopfs
