#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/murmur.h"
#include "common/status.h"

/// \file partition_map.h
/// Bucket-based data placement. Partitioning keys hash (MurmurHash 2.0,
/// as in Section 8.1) into a fixed universe of buckets; a PartitionMap
/// assigns every bucket to a partition. Reconfigurations are expressed as
/// a new PartitionMap, and the diff between two maps is exactly the set
/// of bucket migrations Squall must perform.

namespace pstore {

using PartitionId = int32_t;
using BucketId = int32_t;

/// Maps a key's MurmurHash64A into [0, num_buckets).
inline BucketId BucketOfHash(uint64_t key_hash, int32_t num_buckets) {
  return static_cast<BucketId>(key_hash % static_cast<uint64_t>(num_buckets));
}

/// Hashes a partitioning key into [0, num_buckets).
inline BucketId KeyToBucket(int64_t key, int32_t num_buckets) {
  return BucketOfHash(MurmurHash64A(key), num_buckets);
}

/// One bucket relocation: `bucket` moves from partition `from` to `to`.
struct BucketMove {
  BucketId bucket;
  PartitionId from;
  PartitionId to;

  bool operator==(const BucketMove& other) const {
    return bucket == other.bucket && from == other.from && to == other.to;
  }
};

/// \brief Versioned assignment of buckets to partitions.
class PartitionMap {
 public:
  /// Creates a map over `num_buckets` buckets spread round-robin across
  /// `num_partitions` partitions (the balanced initial layout).
  PartitionMap(int32_t num_buckets, int32_t num_partitions);

  int32_t num_buckets() const {
    return static_cast<int32_t>(assignment_.size());
  }

  /// Number of distinct partitions this map spreads data over.
  int32_t num_partitions() const { return num_partitions_; }

  /// The partition owning a bucket.
  PartitionId PartitionOfBucket(BucketId b) const {
    return assignment_[static_cast<size_t>(b)];
  }

  /// The partition owning a key.
  PartitionId PartitionOfKey(int64_t key) const {
    return PartitionOfBucket(KeyToBucket(key, num_buckets()));
  }

  /// Buckets owned by one partition, ascending.
  std::vector<BucketId> BucketsOfPartition(PartitionId p) const;

  /// Per-partition bucket counts, indexed by partition id, length
  /// max(partition id)+1.
  std::vector<int32_t> BucketCounts() const;

  /// Reassigns one bucket (used when applying a migration step).
  /// O(1) amortized: per-partition counts are maintained incrementally,
  /// so failover/migration churn never rescans the bucket universe.
  void Assign(BucketId b, PartitionId p);

  /// \brief Produces the balanced target map over `target_partitions`
  /// partitions (ids 0..target-1) that moves as few buckets as possible
  /// from this map.
  ///
  /// Guarantees: every partition in the target owns either
  /// floor(num_buckets/target) or ceil(num_buckets/target) buckets; on
  /// scale-out only new partitions receive buckets (senders keep what
  /// they can); on scale-in only surviving partitions receive. This is
  /// the paper's invariant that "at the beginning and end of every move,
  /// all servers always have the same amount of data".
  PartitionMap Rebalanced(int32_t target_partitions) const;

  /// The bucket moves required to turn this map into `target`.
  std::vector<BucketMove> DiffTo(const PartitionMap& target) const;

  /// Monotonically increasing version, bumped by the owner on swap.
  int64_t version() const { return version_; }
  void set_version(int64_t v) { version_ = v; }

  std::string ToString() const;

 private:
  /// Rebuilds counts_ / max_partition_end_ from assignment_ (O(buckets);
  /// construction and Rebalanced only — never on the Assign path).
  void RebuildCounts();

  std::vector<PartitionId> assignment_;
  /// counts_[p] = buckets assigned to p; length >= max_partition_end_.
  std::vector<int32_t> counts_;
  /// max assigned partition id + 1 (what Assign folds num_partitions_ to).
  int32_t max_partition_end_ = 0;
  int32_t num_partitions_ = 0;
  int64_t version_ = 0;
};

}  // namespace pstore
