#include "src/pubsub/subscription.h"

#include <gtest/gtest.h>

namespace et::pubsub {
namespace {

// Read helpers compile the probe once; the table's read API is
// TopicPath-only so every test exercises the compiled path.
std::set<transport::NodeId> match(const SubscriptionTable& t,
                                  const std::string& topic) {
  return t.match(TopicPath(topic));
}

TEST(SubscriptionTableTest, AddReturnsTrueOnFirstSubscriber) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add("a/b", 1));
  EXPECT_FALSE(t.add("a/b", 2));
  EXPECT_TRUE(t.add("a/c", 1));
  EXPECT_EQ(t.pattern_count(), 2u);
}

TEST(SubscriptionTableTest, NormalizesPatterns) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add("/a/b/", 1));
  EXPECT_FALSE(t.add("a//b", 2));  // same pattern after normalization
  EXPECT_EQ(t.pattern_count(), 1u);
}

TEST(SubscriptionTableTest, MatchCollectsAllEndpoints) {
  SubscriptionTable t;
  t.add("a/b", 1);
  t.add("a/b", 2);
  t.add("a/*", 3);
  t.add("a/c", 4);
  EXPECT_EQ(match(t, "a/b"), (std::set<transport::NodeId>{1, 2, 3}));
}

TEST(SubscriptionTableTest, MatchWithMultiLevelWildcard) {
  SubscriptionTable t;
  t.add("Constrained/Traces/#", 9);
  EXPECT_TRUE(
      match(t, "Constrained/Traces/Broker/Publish-Only/x").contains(9));
  EXPECT_TRUE(match(t, "Constrained/Traces").contains(9));
  EXPECT_TRUE(match(t, "Other/Topic").empty());
}

TEST(SubscriptionTableTest, LeadingWildcardPatternsMatchAnyFirstSegment) {
  // Patterns starting with a wildcard live in the shared wildcard shard
  // and must match regardless of the topic's first segment.
  SubscriptionTable t;
  t.add("*/status", 1);
  t.add("#", 2);
  EXPECT_EQ(match(t, "alpha/status"), (std::set<transport::NodeId>{1, 2}));
  EXPECT_EQ(match(t, "beta/status"), (std::set<transport::NodeId>{1, 2}));
  EXPECT_EQ(match(t, "gamma/other"), (std::set<transport::NodeId>{2}));
}

TEST(SubscriptionTableTest, RemoveReturnsTrueWhenEmptied) {
  SubscriptionTable t;
  t.add("a/b", 1);
  t.add("a/b", 2);
  EXPECT_FALSE(t.remove("a/b", 1));
  EXPECT_TRUE(t.remove("a/b", 2));
  EXPECT_EQ(t.pattern_count(), 0u);
}

TEST(SubscriptionTableTest, RemoveUnknownPatternIsNoop) {
  SubscriptionTable t;
  EXPECT_FALSE(t.remove("nope", 1));
}

TEST(SubscriptionTableTest, RemoveEndpointDropsEverything) {
  SubscriptionTable t;
  t.add("a", 1);
  t.add("b", 1);
  t.add("b", 2);
  const auto emptied = t.remove_endpoint(1);
  EXPECT_EQ(emptied, (std::vector<std::string>{"a"}));
  EXPECT_TRUE(match(t, "a").empty());
  EXPECT_TRUE(match(t, "b").contains(2));
}

TEST(SubscriptionTableTest, RemoveEndpointReturnsSortedPatterns) {
  SubscriptionTable t;
  // Spread across shards: sortedness must not depend on shard hashing.
  t.add("zeta/x", 1);
  t.add("alpha/y", 1);
  t.add("#", 1);
  t.add("mid/z", 1);
  EXPECT_EQ(t.remove_endpoint(1),
            (std::vector<std::string>{"#", "alpha/y", "mid/z", "zeta/x"}));
}

TEST(SubscriptionTableTest, AnyMatch) {
  SubscriptionTable t;
  t.add("x/*/z", 1);
  EXPECT_TRUE(t.any_match(TopicPath("x/y/z")));
  EXPECT_FALSE(t.any_match(TopicPath("x/y")));
}

TEST(SubscriptionTableTest, EndpointMatches) {
  SubscriptionTable t;
  t.add("a/#", 1);
  t.add("b", 2);
  EXPECT_TRUE(t.endpoint_matches(1, TopicPath("a/deep/topic")));
  EXPECT_FALSE(t.endpoint_matches(2, TopicPath("a/deep/topic")));
}

TEST(SubscriptionTableTest, PrecompiledAddAgreesWithStringAdd) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add(TopicPath("x/*/z"), 1));
  EXPECT_FALSE(t.add("x/*/z", 2));  // same pattern, string overload
  EXPECT_EQ(match(t, "x/y/z"), (std::set<transport::NodeId>{1, 2}));
  EXPECT_FALSE(t.remove(TopicPath("x/*/z"), 1));
  EXPECT_TRUE(t.remove("x/*/z", 2));
}

TEST(SubscriptionTableTest, AddNormalizesPatternOnce) {
  SubscriptionTable t;
  EXPECT_TRUE(t.add("/a/b/", 1));
  EXPECT_FALSE(t.add("a//b", 2));  // same pattern after normalization
  EXPECT_EQ(t.pattern_count(), 1u);
  EXPECT_EQ(match(t, "a/b"), (std::set<transport::NodeId>{1, 2}));
}

TEST(SubscriptionTableTest, PatternsEnumerationIsSorted) {
  SubscriptionTable t;
  t.add("b", 1);
  t.add("a", 1);
  t.add("#", 2);
  const auto p = t.patterns();
  EXPECT_EQ(p, (std::vector<std::string>{"#", "a", "b"}));
}

TEST(SubscriptionTableTest, EmptyTopicOnlyReachesWildcardPatterns) {
  SubscriptionTable t;
  t.add("#", 1);
  t.add("a", 2);
  EXPECT_EQ(match(t, ""), (std::set<transport::NodeId>{1}));
}

TEST(SubscriptionTableTest, ManyFirstSegmentsAllRouteCorrectly) {
  // More distinct first segments than shards: every hashed bucket gets
  // exercised, and matches must never leak across segments.
  SubscriptionTable t;
  constexpr int kSegments = 64;
  for (int i = 0; i < kSegments; ++i) {
    const std::string seg = "seg" + std::to_string(i);
    t.add(seg + "/data", static_cast<transport::NodeId>(i + 1));
  }
  EXPECT_EQ(t.pattern_count(), static_cast<std::size_t>(kSegments));
  for (int i = 0; i < kSegments; ++i) {
    const std::string seg = "seg" + std::to_string(i);
    EXPECT_EQ(
        match(t, seg + "/data"),
        (std::set<transport::NodeId>{static_cast<transport::NodeId>(i + 1)}))
        << seg;
    EXPECT_TRUE(match(t, seg + "/other").empty()) << seg;
  }
}

}  // namespace
}  // namespace et::pubsub
