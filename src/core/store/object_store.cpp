#include "core/store/object_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"

namespace rebench::store {

namespace fs = std::filesystem;

std::string ObjectStore::hashBytes(std::string_view bytes) {
  return Hasher{}.update(bytes).hex();
}

std::string ObjectStore::objectPath(const std::string& hash) const {
  return (fs::path(dir_) / "objects" / hash).string();
}

ObjectStore::ObjectStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      indexPath_((fs::path(dir_) / "index.jsonl").string()),
      options_(options) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw Error("cannot create object store at '" + dir_ +
                "': " + ec.message());
  }
  openJsonLog(indexPath_, kStoreSchema, [&](const obs::json::Value& record) {
    const std::string kind = record.stringOr("kind", "");
    if (kind == "put") {
      const std::string hash = record.stringOr("hash", "");
      Entry entry;
      entry.bytes = static_cast<std::uint64_t>(record.numberOr("bytes", 0));
      entry.lastUse = static_cast<std::uint64_t>(record.numberOr("tick", 0));
      entries_[hash] = entry;
      tick_ = std::max(tick_, entry.lastUse + 1);
    } else if (kind == "touch") {
      auto it = entries_.find(record.stringOr("hash", ""));
      if (it != entries_.end()) {
        it->second.lastUse =
            static_cast<std::uint64_t>(record.numberOr("tick", 0));
        tick_ = std::max(tick_, it->second.lastUse + 1);
      }
    } else if (kind == "ref") {
      refs_[record.stringOr("name", "")] = record.stringOr("hash", "");
    } else if (kind == "evict") {
      entries_.erase(record.stringOr("hash", ""));
    } else if (kind == "pin") {
      pinned_.insert(record.stringOr("hash", ""));
    } else if (kind == "unpin") {
      pinned_.erase(record.stringOr("hash", ""));
    }
  });
  // Drop entries whose blob vanished behind our back (manual deletion);
  // the store never trusts the index over the filesystem.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!fs::exists(objectPath(it->first))) {
      it = entries_.erase(it);
    } else {
      totalBytes_ += it->second.bytes;
      ++it;
    }
  }
  // A pin on a vanished object protects nothing.
  for (auto it = pinned_.begin(); it != pinned_.end();) {
    if (!entries_.contains(*it)) {
      it = pinned_.erase(it);
    } else {
      ++it;
    }
  }
}

void ObjectStore::appendIndex(const std::string& line) {
  std::ofstream out(indexPath_, std::ios::app);
  if (!out) throw Error("cannot append to store index '" + indexPath_ + "'");
  out << line << "\n";
}

void ObjectStore::touch(const std::string& hash) {
  auto it = entries_.find(hash);
  if (it == entries_.end()) return;
  it->second.lastUse = tick_++;
  appendIndex("{\"kind\":\"touch\",\"hash\":" + obs::json::quote(hash) +
              ",\"tick\":" + std::to_string(it->second.lastUse) + "}");
}

void ObjectStore::removeObject(const std::string& hash) {
  auto it = entries_.find(hash);
  if (it != entries_.end()) {
    totalBytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  std::error_code ec;
  fs::remove(objectPath(hash), ec);
  appendIndex("{\"kind\":\"evict\",\"hash\":" + obs::json::quote(hash) + "}");
}

void ObjectStore::evictToFit(std::uint64_t incoming,
                             const std::string& protect) {
  if (options_.maxBytes == 0) return;
  while (totalBytes_ + incoming > options_.maxBytes && !entries_.empty()) {
    // Least-recently-used victim, skipping the object being protected
    // and anything pinned.
    const Entry* oldest = nullptr;
    std::string victim;
    for (const auto& [hash, entry] : entries_) {
      if (hash == protect || pinned_.contains(hash)) continue;
      if (oldest == nullptr || entry.lastUse < oldest->lastUse) {
        oldest = &entry;
        victim = hash;
      }
    }
    if (oldest == nullptr) return;  // only protected/pinned objects remain
    const std::uint64_t victimBytes = oldest->bytes;
    removeObject(victim);
    ++stats_.evictions;
    if (tracer_ != nullptr) {
      tracer_->event("store.evict",
                     {{"hash", victim},
                      {"bytes", std::to_string(victimBytes)}});
    }
    if (metrics_ != nullptr) metrics_->counter("store.evict").inc();
  }
}

void ObjectStore::setObservability(obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics) {
  std::lock_guard lock(mutex_);
  tracer_ = tracer;
  metrics_ = metrics;
}

std::string ObjectStore::put(std::string_view bytes) {
  std::lock_guard lock(mutex_);
  const std::string hash = hashBytes(bytes);
  ++stats_.puts;
  if (auto it = entries_.find(hash);
      it != entries_.end() && fs::exists(objectPath(hash))) {
    ++stats_.dedupedPuts;
    touch(hash);
    return hash;
  }
  evictToFit(bytes.size(), hash);
  // Atomic publication: a concurrent writer of the same content races to
  // an identical file, and rename() makes whichever lands last win whole.
  const std::string tmp =
      (fs::path(dir_) / ("tmp-" + hash + "-" +
                         std::to_string(static_cast<unsigned>(tick_))))
          .string();
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw Error("cannot write store object '" + tmp + "'");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::error_code ec;
  fs::rename(tmp, objectPath(hash), ec);
  if (ec) {
    fs::remove(tmp);
    throw Error("cannot publish store object '" + hash +
                "': " + ec.message());
  }
  Entry entry;
  entry.bytes = bytes.size();
  entry.lastUse = tick_++;
  totalBytes_ += entry.bytes;
  entries_[hash] = entry;
  appendIndex("{\"kind\":\"put\",\"hash\":" + obs::json::quote(hash) +
              ",\"bytes\":" + std::to_string(entry.bytes) +
              ",\"tick\":" + std::to_string(entry.lastUse) + "}");
  return hash;
}

std::optional<std::string> ObjectStore::readVerified(const std::string& hash,
                                                     bool& corrupt) const {
  std::optional<std::string> bytes = readWholeFile(objectPath(hash));
  corrupt = bytes && hashBytes(*bytes) != hash;
  if (corrupt) bytes.reset();
  return bytes;
}

std::optional<std::string> ObjectStore::get(const std::string& hash) {
  std::lock_guard lock(mutex_);
  bool corrupt = false;
  std::optional<std::string> bytes = readVerified(hash, corrupt);
  if (corrupt) {
    // Truncated or tampered blob: drop it so the caller rebuilds rather
    // than trusting bytes that no longer match their address.
    ++stats_.corrupt;
    removeObject(hash);
    if (metrics_ != nullptr) metrics_->counter("store.corrupt").inc();
  } else if (bytes) {
    touch(hash);
  }
  return bytes;
}

std::optional<std::string> ObjectStore::peek(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  if (!entries_.contains(hash)) return std::nullopt;
  bool corrupt = false;
  return readVerified(hash, corrupt);
}

bool ObjectStore::contains(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  return entries_.contains(hash) && fs::exists(objectPath(hash));
}

void ObjectStore::setRef(std::string_view name, const std::string& hash) {
  std::lock_guard lock(mutex_);
  refs_[std::string(name)] = hash;
  appendIndex("{\"kind\":\"ref\",\"name\":" + obs::json::quote(name) +
              ",\"hash\":" + obs::json::quote(hash) + "}");
}

std::optional<std::string> ObjectStore::ref(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = refs_.find(name);
  if (it == refs_.end()) return std::nullopt;
  // A ref whose target was evicted or deleted reads as unset.
  if (!entries_.contains(it->second)) return std::nullopt;
  return it->second;
}

void ObjectStore::pin(const std::string& hash) {
  std::lock_guard lock(mutex_);
  if (!entries_.contains(hash)) return;  // nothing to protect
  if (!pinned_.insert(hash).second) return;
  appendIndex("{\"kind\":\"pin\",\"hash\":" + obs::json::quote(hash) + "}");
}

void ObjectStore::unpin(const std::string& hash) {
  std::lock_guard lock(mutex_);
  if (pinned_.erase(hash) == 0) return;
  appendIndex("{\"kind\":\"unpin\",\"hash\":" + obs::json::quote(hash) + "}");
}

bool ObjectStore::pinned(const std::string& hash) const {
  std::lock_guard lock(mutex_);
  return pinned_.contains(hash);
}

std::size_t ObjectStore::compactIndex() {
  std::lock_guard lock(mutex_);
  // Puts must be replayed in tick order so a future reopen reconstructs
  // the same LRU ordering the live store has now.
  std::vector<std::pair<std::uint64_t, const std::string*>> byTick;
  byTick.reserve(entries_.size());
  for (const auto& [hash, entry] : entries_) {
    byTick.emplace_back(entry.lastUse, &hash);
  }
  std::sort(byTick.begin(), byTick.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : *a.second < *b.second;
            });
  std::ostringstream out;
  std::size_t lines = 0;
  out << "{\"kind\":\"meta\",\"schema\":" << obs::json::quote(kStoreSchema)
      << "}\n";
  ++lines;
  for (const auto& [tick, hash] : byTick) {
    out << "{\"kind\":\"put\",\"hash\":" << obs::json::quote(*hash)
        << ",\"bytes\":" << entries_.at(*hash).bytes
        << ",\"tick\":" << tick << "}\n";
    ++lines;
  }
  for (const auto& [name, hash] : refs_) {
    out << "{\"kind\":\"ref\",\"name\":" << obs::json::quote(name)
        << ",\"hash\":" << obs::json::quote(hash) << "}\n";
    ++lines;
  }
  for (const std::string& hash : pinned_) {
    out << "{\"kind\":\"pin\",\"hash\":" << obs::json::quote(hash) << "}\n";
    ++lines;
  }
  // A crash mid-compaction leaves either the old index or the new one.
  durableWriteFile(indexPath_, out.str());
  return lines;
}

}  // namespace rebench::store
