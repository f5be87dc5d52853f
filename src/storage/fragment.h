#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/partition_map.h"
#include "storage/schema.h"
#include "storage/value.h"

/// \file fragment.h
/// Per-partition storage. Each partition holds a StorageFragment: for
/// every table, the rows of the buckets this partition currently owns,
/// grouped by bucket so live migration can extract or install a bucket's
/// rows as a unit.
///
/// Rows are stored packed: each row is one contiguous heap record (its
/// modelled Row::ByteSize() followed by its tagged values, string bytes
/// inline), and each (table, bucket) is a flat open-addressing table of
/// {key, record} slots. Get decodes a record; Insert and Upsert encode
/// one. See DESIGN.md §17.

namespace pstore {

/// Probe hash of a partitioning key inside its bucket's row table: a
/// table of 2^n slots starts probing at the low n bits. Exposed so tests
/// can build keys that share one probe chain.
uint64_t RowProbeHash(int64_t key);

/// One packed row; the layout is private to fragment.cc.
struct RowRecord;

/// \brief The rows of one (table, bucket): the unit ExtractBucket hands
/// out and InstallBucket takes back. Opaque and move-only; a moved-from
/// BucketRows is empty. Destroying it frees the rows it still holds.
class BucketRows {
 public:
  BucketRows() = default;
  BucketRows(BucketRows&& other) noexcept;
  BucketRows& operator=(BucketRows&& other) noexcept;
  BucketRows(const BucketRows&) = delete;
  BucketRows& operator=(const BucketRows&) = delete;
  ~BucketRows();

  /// Rows held.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend class StorageFragment;
  struct Slot {
    int64_t key;
    RowRecord* record;  // nullptr: free slot.
  };

  Slot* Find(int64_t key, uint64_t probe) const;
  /// Adds a record for a key that is not present.
  void Add(int64_t key, uint64_t probe, RowRecord* record);
  /// Unlinks the key's slot (backward-shift deletion) and returns its
  /// record, or nullptr if absent. The caller owns the record.
  RowRecord* Remove(int64_t key, uint64_t probe);
  void Grow();
  void Release();

  Slot* slots_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;  // 0 or a power of two.
};

/// \brief All data a single partition owns.
///
/// Byte sizes are tracked incrementally so migration chunking and the
/// "fraction of database migrated" accounting (Equation 7's f) are O(1).
class StorageFragment {
 public:
  /// \param catalog shared table registry (not owned; must outlive this)
  /// \param num_buckets bucket universe size (matches the PartitionMap)
  StorageFragment(const Catalog* catalog, int32_t num_buckets);

  /// Inserts a row; fails with AlreadyExists if the key is present.
  Status Insert(TableId table, const Row& row);

  /// Inserts or replaces the row for its key.
  Status Upsert(TableId table, const Row& row);

  /// Fetches a row by key; NotFound if absent.
  Result<Row> Get(TableId table, int64_t key) const;

  /// True if the key is present.
  bool Contains(TableId table, int64_t key) const;

  /// Deletes a row by key; NotFound if absent.
  Status Delete(TableId table, int64_t key);

  /// Number of rows stored for a table across all buckets.
  int64_t RowCount(TableId table) const;

  /// Total rows across tables.
  int64_t TotalRowCount() const;

  /// Approximate bytes held for one bucket across all tables.
  int64_t BucketBytes(BucketId bucket) const;

  /// Rows held for one bucket across all tables (the invariant checker
  /// uses this to detect rows stranded on a partition that does not own
  /// the bucket).
  int64_t BucketRowCount(BucketId bucket) const;

  /// Approximate total bytes held.
  int64_t TotalBytes() const { return total_bytes_; }

  /// \brief Removes and returns all rows of one bucket (all tables), as
  /// (table, rows) pairs — the unit of data the migration system ships.
  std::vector<std::pair<TableId, BucketRows>> ExtractBucket(BucketId bucket);

  /// \brief Installs rows previously extracted from another fragment.
  /// Keys must not already exist here (buckets are owned exclusively).
  Status InstallBucket(BucketId bucket,
                       std::vector<std::pair<TableId, BucketRows>> data);

  /// Keys present for a table in one bucket (for tests/verification).
  std::vector<int64_t> BucketKeys(TableId table, BucketId bucket) const;

  int32_t num_buckets() const { return num_buckets_; }

 private:
  struct TableStore {
    // Indexed by BucketId; sized to num_buckets_ on the table's first
    // row, so tables a fragment never holds cost nothing.
    std::vector<BucketRows> buckets;
    int64_t row_count = 0;
  };

  TableStore& StoreFor(TableId table);
  /// The table's rows of one bucket, or nullptr if the table has never
  /// held a row here.
  BucketRows* RowsFor(TableId table, BucketId bucket);
  const BucketRows* RowsFor(TableId table, BucketId bucket) const;
  /// Accounts a record entering (+) or leaving (-) a bucket.
  void AddBytes(BucketId bucket, int64_t bytes);

  const Catalog* catalog_;
  int32_t num_buckets_;
  std::vector<TableStore> tables_;
  std::vector<int64_t> bucket_bytes_;  // Indexed by BucketId.
  int64_t total_bytes_ = 0;
};

}  // namespace pstore
