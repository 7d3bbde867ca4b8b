#include "src/pubsub/subscription.h"

#include <algorithm>

namespace et::pubsub {

namespace {

using Entry = SubscriptionTable::Entry;

struct ByPattern {
  bool operator()(const Entry& e, const std::string& p) const {
    return e.pattern < p;
  }
};

/// Wildcard-free patterns go on the binary-search path: such a pattern
/// matches a topic iff their canonical strings are equal.
bool pattern_has_wildcard(const TopicPath& pattern) {
  return std::any_of(
      pattern.segments().begin(), pattern.segments().end(),
      [](const std::string& s) { return is_wildcard_segment(s); });
}

const Entry* find_exact(const std::vector<Entry>& sorted,
                        const std::string& canon) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), canon, ByPattern{});
  if (it != sorted.end() && it->pattern == canon) return &*it;
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Read path

std::array<const SubscriptionTable::Shard*, 2>
SubscriptionTable::candidate_shards(const TopicPath& topic) const {
  const Shard* wildcard = &shards_[kShardCount];
  if (topic.empty()) {
    // Only patterns like "#" (wildcard bucket) can match an empty topic.
    return {wildcard, nullptr};
  }
  const std::size_t i = segment_hash(topic[0]) % kShardCount;
  return {&shards_[i], wildcard};
}

std::set<transport::NodeId> SubscriptionTable::match(
    const TopicPath& topic) const {
  std::set<transport::NodeId> out;
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    if (const Entry* e = find_exact(shard->exact, canon)) {
      out.insert(e->subs.begin(), e->subs.end());
    }
    for (const Entry& e : shard->wild) {
      if (topic_matches(e.compiled, topic)) {
        out.insert(e.subs.begin(), e.subs.end());
      }
    }
  }
  return out;
}

bool SubscriptionTable::any_match(const TopicPath& topic) const {
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    if (find_exact(shard->exact, canon) != nullptr) return true;
    for (const Entry& e : shard->wild) {
      if (topic_matches(e.compiled, topic)) return true;
    }
  }
  return false;
}

bool SubscriptionTable::endpoint_matches(transport::NodeId endpoint,
                                         const TopicPath& topic) const {
  const std::string canon = topic.canonical();
  for (const Shard* shard : candidate_shards(topic)) {
    if (shard == nullptr) continue;
    const Entry* e = find_exact(shard->exact, canon);
    if (e != nullptr && e->subs.contains(endpoint)) return true;
    for (const Entry& w : shard->wild) {
      if (w.subs.contains(endpoint) && topic_matches(w.compiled, topic)) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::string> SubscriptionTable::patterns() const {
  std::vector<std::string> out;
  out.reserve(count_);
  for (const Shard& shard : shards_) {
    for (const Entry& e : shard.exact) out.push_back(e.pattern);
    for (const Entry& e : shard.wild) out.push_back(e.pattern);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Write path

std::size_t SubscriptionTable::shard_of_pattern(const TopicPath& pattern) {
  if (pattern.empty() || is_wildcard_segment(pattern[0])) return kShardCount;
  return segment_hash(pattern[0]) % kShardCount;
}

bool SubscriptionTable::add(const TopicPath& pattern,
                            transport::NodeId endpoint) {
  Shard& shard = shards_[shard_of_pattern(pattern)];
  std::vector<Entry>& vec =
      pattern_has_wildcard(pattern) ? shard.wild : shard.exact;
  std::string canon = pattern.canonical();
  auto it = std::lower_bound(vec.begin(), vec.end(), canon, ByPattern{});
  if (it == vec.end() || it->pattern != canon) {
    vec.insert(it, Entry{std::move(canon), pattern, {endpoint}});
    ++count_;
    return true;
  }
  const bool first = it->subs.empty();
  it->subs.insert(endpoint);
  return first;
}

bool SubscriptionTable::remove(const TopicPath& pattern,
                               transport::NodeId endpoint) {
  Shard& shard = shards_[shard_of_pattern(pattern)];
  std::vector<Entry>& vec =
      pattern_has_wildcard(pattern) ? shard.wild : shard.exact;
  const std::string canon = pattern.canonical();
  auto it = std::lower_bound(vec.begin(), vec.end(), canon, ByPattern{});
  if (it == vec.end() || it->pattern != canon) return false;
  it->subs.erase(endpoint);
  if (!it->subs.empty()) return false;
  vec.erase(it);
  --count_;
  return true;
}

std::vector<std::string> SubscriptionTable::remove_endpoint(
    transport::NodeId endpoint) {
  std::vector<std::string> emptied;
  for (Shard& shard : shards_) {
    for (std::vector<Entry>* vec : {&shard.exact, &shard.wild}) {
      for (auto it = vec->begin(); it != vec->end();) {
        if (it->subs.erase(endpoint) != 0 && it->subs.empty()) {
          emptied.push_back(std::move(it->pattern));
          it = vec->erase(it);
          --count_;
        } else {
          ++it;
        }
      }
    }
  }
  std::sort(emptied.begin(), emptied.end());
  return emptied;
}

}  // namespace et::pubsub
