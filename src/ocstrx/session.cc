#include "src/ocstrx/session.h"

#include <mutex>
#include <utility>
#include <vector>

#include "src/common/contracts.h"

namespace ihbd::ocstrx {
namespace {

struct SessionTable {
  std::mutex mu;
  std::map<std::string, std::uint32_t, std::less<>> ids;
  std::vector<const std::string*> names;  ///< by id; keys of `ids`
};

SessionTable& table() {
  static SessionTable t;
  return t;
}

/// Names a thread remembers having resolved. Ids never change once
/// assigned, so a remembered id stays right and the lookup skips the
/// table's lock; a small bound keeps the scan short.
constexpr std::size_t kThreadCacheSize = 8;

}  // namespace

SessionId intern_session(std::string_view name) {
  thread_local std::vector<std::pair<const std::string*, SessionId>> cache;
  for (const auto& [known, id] : cache) {
    if (*known == name) return id;
  }
  SessionTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(name);
  if (it == t.ids.end()) {
    it = t.ids.emplace(std::string(name),
                       static_cast<std::uint32_t>(t.names.size()))
             .first;
    t.names.push_back(&it->first);
  }
  const SessionId id{it->second};
  if (cache.size() < kThreadCacheSize) cache.emplace_back(&it->first, id);
  return id;
}

const std::string& session_name(SessionId id) {
  SessionTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  IHBD_EXPECTS(id.index < t.names.size());
  return *t.names[id.index];
}

}  // namespace ihbd::ocstrx
