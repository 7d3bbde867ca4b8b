// Subscription bookkeeping for one broker.
//
// A broker tracks two kinds of interest:
//   * local consumers — directly connected clients (and broker-local
//     services such as the tracing service) keyed by endpoint;
//   * remote interest — neighbouring brokers that propagated a pattern,
//     used by reverse-path forwarding over the (acyclic) broker overlay.
//
// Patterns are hierarchical topics with optional wildcards (see
// common/topic_path.h). Each pattern is split into segments once, at
// registration; matching walks precompiled patterns against a split-once
// TopicPath of the inbound topic.
//
// Scaling design (DESIGN.md §9): the table is sharded by the pattern's
// top-level segment. A topic can only be matched by patterns in the shard
// of its first segment plus the wildcard bucket (patterns starting with
// '*' or '#'), so a match scans two buckets, not the whole table.
//
// Threading: single-writer, mutated in place. The owning broker's node
// context is the only reader and writer. Results are deterministic
// (sorted) regardless of shard hashing, keeping VirtualTimeNetwork runs
// bit-for-bit reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/topic_path.h"
#include "src/transport/network.h"

namespace et::pubsub {

/// Interest registry mapping topic patterns to endpoints.
class SubscriptionTable {
 public:
  /// Shards 0..kShardCount-1 hold patterns keyed by their first segment;
  /// shard kShardCount is the wildcard bucket consulted on every match.
  static constexpr std::size_t kShardCount = 8;

  struct Entry {
    std::string pattern;  // canonical form (sort key within a shard)
    TopicPath compiled;   // pattern split once at registration
    std::set<transport::NodeId> subs;
  };
  /// One shard, split by matching strategy. A pattern without wildcard
  /// segments can only match the one topic whose canonical form equals
  /// it, so exact patterns resolve by binary search on the topic string;
  /// only wildcard patterns are scanned. Trace workloads (UUID-specific
  /// publication topics, the paper's hot path) are almost entirely
  /// exact, so a match is O(log n) in the shard plus the handful of
  /// wildcard entries. Both vectors sorted by pattern.
  struct Shard {
    std::vector<Entry> exact;
    std::vector<Entry> wild;
  };

  /// Adds interest; returns true when this is the pattern's first
  /// subscriber (the caller should then propagate interest upstream).
  bool add(const TopicPath& pattern, transport::NodeId endpoint);
  bool add(const std::string& pattern, transport::NodeId endpoint) {
    return add(TopicPath(pattern), endpoint);
  }

  /// Removes one endpoint's interest; returns true when the pattern has
  /// no subscribers left (caller should propagate the unsubscribe).
  bool remove(const TopicPath& pattern, transport::NodeId endpoint);
  bool remove(const std::string& pattern, transport::NodeId endpoint) {
    return remove(TopicPath(pattern), endpoint);
  }

  /// Drops every subscription held by `endpoint` (client disconnect).
  /// Returns the patterns that became empty, sorted.
  std::vector<std::string> remove_endpoint(transport::NodeId endpoint);

  // Queries take a compiled TopicPath — there are deliberately no string
  // overloads, so no call site can re-split a topic per query.

  /// All endpoints whose patterns match `topic` (deduplicated, sorted).
  [[nodiscard]] std::set<transport::NodeId> match(
      const TopicPath& topic) const;

  /// True when at least one pattern matches `topic`.
  [[nodiscard]] bool any_match(const TopicPath& topic) const;

  /// True when `endpoint` holds a subscription matching `topic`.
  [[nodiscard]] bool endpoint_matches(transport::NodeId endpoint,
                                      const TopicPath& topic) const;

  /// All patterns currently registered, sorted (for interest propagation
  /// to a newly joined neighbour).
  [[nodiscard]] std::vector<std::string> patterns() const;

  [[nodiscard]] std::size_t pattern_count() const { return count_; }

 private:
  /// Shard index for a registered pattern (wildcard bucket when its first
  /// segment could match any top-level segment).
  static std::size_t shard_of_pattern(const TopicPath& pattern);

  /// The shards that can contain a pattern matching `topic`: the one
  /// hashed from its first segment, plus the wildcard bucket.
  [[nodiscard]] std::array<const Shard*, 2> candidate_shards(
      const TopicPath& topic) const;

  std::array<Shard, kShardCount + 1> shards_;
  std::size_t count_ = 0;  // total registered patterns
};

}  // namespace et::pubsub
