// Seeded property test for the packed row store: random Insert / Upsert
// / Delete / Get / Extract / Install sequences on two fragments, checked
// step by step against a std::map reference model, plus the byte and
// row-count identities migration relies on. Records are hand-packed
// heap blocks, so this suite also runs under ASan + UBSan (label
// `storage`).

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/fragment.h"

namespace pstore {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

using Model = std::map<std::pair<TableId, int64_t>, Row>;

class PackedStoreTest : public ::testing::Test {
 protected:
  PackedStoreTest() {
    // Key column first, last, and the only column.
    wide_ = *catalog_.AddTable(Schema("WIDE",
                                      {{"id", ColumnType::kInt64},
                                       {"s", ColumnType::kString},
                                       {"d", ColumnType::kDouble},
                                       {"n", ColumnType::kInt64}},
                                      0));
    tail_key_ = *catalog_.AddTable(Schema(
        "TAIL", {{"s", ColumnType::kString}, {"id", ColumnType::kInt64}}, 1));
    key_only_ =
        *catalog_.AddTable(Schema("KEY", {{"id", ColumnType::kInt64}}, 0));
  }

  static Value RandomString(Rng* rng) {
    switch (rng->NextBounded(4)) {
      case 0:
        return Value();
      case 1:
        return Value(std::string());
      case 2:
        return Value(std::string(300 + rng->NextBounded(5000),
                                 static_cast<char>('a' + rng->NextBounded(26))));
      default:
        return Value(std::string(1 + rng->NextBounded(12), 'x'));
    }
  }

  Row RandomRow(Rng* rng, TableId table, int64_t key) const {
    if (table == wide_) {
      Row row({Value(key), RandomString(rng), Value(), Value()});
      if (!rng->NextBernoulli(0.2)) row.Set(2, rng->NextDouble() * 1e6 - 5e5);
      if (!rng->NextBernoulli(0.2)) {
        row.Set(3, static_cast<int64_t>(rng->Next()));
      }
      return row;
    }
    if (table == tail_key_) return Row({RandomString(rng), Value(key)});
    return Row({Value(key)});
  }

  // The identities migration relies on, plus row-for-row equality with
  // the model: Σ BucketBytes == TotalBytes == Σ Row::ByteSize of the
  // live rows, and per-table RowCount == the live rows of that table.
  void ExpectMatches(const StorageFragment& frag, const Model& model) const {
    int64_t bucket_sum = 0;
    int64_t row_bytes = 0;
    std::vector<int64_t> rows_per_table(catalog_.num_tables(), 0);
    for (BucketId b = 0; b < frag.num_buckets(); ++b) {
      int64_t in_bucket = 0;
      int64_t rows_in_bucket = 0;
      for (TableId t = 0; t < static_cast<TableId>(catalog_.num_tables());
           ++t) {
        for (int64_t key : frag.BucketKeys(t, b)) {
          EXPECT_EQ(KeyToBucket(key, frag.num_buckets()), b);
          Result<Row> row = frag.Get(t, key);
          ASSERT_TRUE(row.ok()) << "table " << t << " key " << key;
          auto it = model.find({t, key});
          ASSERT_NE(it, model.end()) << "table " << t << " key " << key;
          EXPECT_EQ(*row, it->second);
          in_bucket += static_cast<int64_t>(row->ByteSize());
          ++rows_in_bucket;
          ++rows_per_table[static_cast<size_t>(t)];
        }
      }
      EXPECT_EQ(frag.BucketBytes(b), in_bucket) << "bucket " << b;
      EXPECT_EQ(frag.BucketRowCount(b), rows_in_bucket) << "bucket " << b;
      bucket_sum += frag.BucketBytes(b);
      row_bytes += in_bucket;
    }
    EXPECT_EQ(bucket_sum, frag.TotalBytes());
    EXPECT_EQ(row_bytes, frag.TotalBytes());
    int64_t total_rows = 0;
    for (TableId t = 0; t < static_cast<TableId>(catalog_.num_tables());
         ++t) {
      EXPECT_EQ(frag.RowCount(t), rows_per_table[static_cast<size_t>(t)]);
      total_rows += rows_per_table[static_cast<size_t>(t)];
    }
    EXPECT_EQ(frag.TotalRowCount(), total_rows);
    EXPECT_EQ(static_cast<size_t>(total_rows), model.size());
  }

  Catalog catalog_;
  TableId wide_;
  TableId tail_key_;
  TableId key_only_;
};

// Keys drawn with repeats, including the extremes and zero.
std::vector<int64_t> KeyPool(Rng* rng) {
  std::vector<int64_t> pool = {0, 1, -1, kMin, kMin + 1, kMax, kMax - 1};
  for (int64_t k = -40; k <= 40; ++k) pool.push_back(k * 977);
  for (int i = 0; i < 80; ++i) pool.push_back(static_cast<int64_t>(rng->Next()));
  return pool;
}

TEST_F(PackedStoreTest, RandomOperationsMatchReferenceModel) {
  constexpr int32_t kBuckets = 4;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::vector<int64_t> pool = KeyPool(&rng);
    StorageFragment frags[2] = {StorageFragment(&catalog_, kBuckets),
                                StorageFragment(&catalog_, kBuckets)};
    Model models[2];
    const TableId tables[] = {wide_, tail_key_, key_only_};
    for (int step = 0; step < 3000; ++step) {
      const int f = static_cast<int>(rng.NextBounded(2));
      StorageFragment& frag = frags[f];
      Model& model = models[f];
      const TableId t = tables[rng.NextBounded(3)];
      const int64_t key = pool[rng.NextBounded(pool.size())];
      const bool present = model.count({t, key}) > 0;
      const uint64_t op = rng.NextBounded(100);
      if (op < 25) {
        const Row row = RandomRow(&rng, t, key);
        const Status s = frag.Insert(t, row);
        if (present) {
          EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          model[{t, key}] = row;
        }
      } else if (op < 50) {
        const Row row = RandomRow(&rng, t, key);
        ASSERT_TRUE(frag.Upsert(t, row).ok());
        model[{t, key}] = row;
      } else if (op < 65) {
        const Status s = frag.Delete(t, key);
        EXPECT_TRUE(present ? s.ok() : s.IsNotFound()) << s.ToString();
        model.erase({t, key});
      } else if (op < 85) {
        const Result<Row> row = frag.Get(t, key);
        EXPECT_EQ(frag.Contains(t, key), present);
        ASSERT_EQ(row.ok(), present);
        if (present) {
          EXPECT_EQ(*row, model.at({t, key}));
        }
      } else {
        // Move one bucket to the other fragment. A moved-from BucketRows
        // must be empty and installing it must add nothing; the extracted
        // batch is sometimes dropped unmoved (its destructor frees it).
        const BucketId b = static_cast<BucketId>(rng.NextBounded(kBuckets));
        auto data = frag.ExtractBucket(b);
        EXPECT_EQ(frag.BucketBytes(b), 0);
        EXPECT_EQ(frag.BucketRowCount(b), 0);
        for (const auto& [table, rows] : data) EXPECT_FALSE(rows.empty());
        Model moved;
        for (auto it = model.begin(); it != model.end();) {
          if (KeyToBucket(it->first.second, kBuckets) == b) {
            moved.insert(*it);
            it = model.erase(it);
          } else {
            ++it;
          }
        }
        StorageFragment& other = frags[1 - f];
        Model& other_model = models[1 - f];
        bool collides = false;
        for (const auto& [k, row] : moved) {
          collides = collides || other_model.count(k) > 0;
        }
        if (rng.NextBernoulli(0.1) || collides) continue;
        std::vector<std::pair<TableId, decltype(data[0].second)>> split;
        if (!data.empty()) {
          auto taken = std::move(data.back().second);
          EXPECT_TRUE(data.back().second.empty());
          EXPECT_EQ(data.back().second.size(), 0u);
          split.emplace_back(data.back().first, std::move(taken));
        }
        ASSERT_TRUE(other.InstallBucket(b, std::move(data)).ok());
        ASSERT_TRUE(other.InstallBucket(b, std::move(split)).ok());
        other_model.insert(moved.begin(), moved.end());
      }
      if (step % 100 == 99) {
        ExpectMatches(frags[0], models[0]);
        ExpectMatches(frags[1], models[1]);
      }
    }
    ExpectMatches(frags[0], models[0]);
    ExpectMatches(frags[1], models[1]);
  }
}

// Keys whose probe starts at the last slot, or at slots 0 and 1, of every
// table of up to 4096 slots: one long chain that wraps around the end of
// the table, so backward-shift deletion must move entries across the
// wrap and past entries it must leave alone.
std::vector<int64_t> CollidingKeys(size_t per_home) {
  std::map<uint64_t, std::vector<int64_t>> by_home;
  for (int64_t k = 0; by_home[0xFFF].size() < per_home ||
                      by_home[0].size() < per_home ||
                      by_home[1].size() < per_home;
       ++k) {
    const uint64_t home = RowProbeHash(k) & 0xFFF;
    if ((home == 0xFFF || home <= 1) && by_home[home].size() < per_home) {
      by_home[home].push_back(k);
    }
  }
  std::vector<int64_t> keys;
  for (size_t i = 0; i < per_home; ++i) {
    for (uint64_t home : {0xFFFull, 0ull, 1ull}) keys.push_back(by_home[home][i]);
  }
  return keys;
}

TEST_F(PackedStoreTest, BackwardShiftDeletionKeepsOneProbeChainFindable) {
  const std::vector<int64_t> keys = CollidingKeys(20);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // One bucket: every key shares one row table.
    StorageFragment frag(&catalog_, 1);
    Model model;
    for (int step = 0; step < 2000; ++step) {
      const int64_t key = keys[rng.NextBounded(keys.size())];
      if (model.count({wide_, key}) > 0 && rng.NextBernoulli(0.55)) {
        ASSERT_TRUE(frag.Delete(wide_, key).ok());
        model.erase({wide_, key});
      } else {
        const Row row = RandomRow(&rng, wide_, key);
        ASSERT_TRUE(frag.Upsert(wide_, row).ok());
        model[{wide_, key}] = row;
      }
      for (int64_t k : keys) {
        const bool present = model.count({wide_, k}) > 0;
        ASSERT_EQ(frag.Contains(wide_, k), present) << "step " << step;
      }
    }
    ExpectMatches(frag, model);
    for (const auto& [k, row] : Model(model)) {
      ASSERT_TRUE(frag.Delete(k.first, k.second).ok());
      model.erase(k);
    }
    ExpectMatches(frag, model);
    EXPECT_EQ(frag.TotalBytes(), 0);
  }
}

TEST_F(PackedStoreTest, ExtremeKeysAndValuesRoundTrip) {
  StorageFragment frag(&catalog_, 16);
  Model model;
  const std::string long_string(100000, 'z');
  const std::vector<Row> rows = {
      Row({Value(kMin), Value(), Value(), Value()}),
      Row({Value(kMax), Value(std::string()), Value(-0.0), Value(kMin)}),
      Row({Value(int64_t{0}), Value(long_string), Value(1e308), Value(kMax)}),
      Row({Value(int64_t{-1}), Value(std::string("a\0b", 3)),
           Value(std::numeric_limits<double>::denorm_min()), Value()}),
  };
  for (const Row& row : rows) {
    ASSERT_TRUE(frag.Insert(wide_, row).ok());
    model[{wide_, row.at(0).as_int64()}] = row;
  }
  ExpectMatches(frag, model);
  EXPECT_EQ(frag.Get(wide_, 0)->at(1).as_string().size(), long_string.size());
  EXPECT_EQ(frag.Get(wide_, -1)->at(1).as_string(), std::string("a\0b", 3));
}

TEST_F(PackedStoreTest, FailedInstallKeepsAccountingConsistent) {
  StorageFragment a(&catalog_, 1);
  StorageFragment b(&catalog_, 1);
  Model model_b;
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(a.Insert(key_only_, Row({Value(k)})).ok());
  }
  ASSERT_TRUE(b.Insert(key_only_, Row({Value(int64_t{7})})).ok());
  model_b[{key_only_, 7}] = Row({Value(int64_t{7})});
  Status s = b.InstallBucket(0, a.ExtractBucket(0));
  EXPECT_TRUE(s.IsInternal());
  // Whatever landed before the collision is fully accounted; the rest
  // was freed with the batch.
  for (int64_t key : b.BucketKeys(key_only_, 0)) {
    model_b[{key_only_, key}] = Row({Value(key)});
  }
  ExpectMatches(b, model_b);
  ExpectMatches(a, Model());
}

}  // namespace
}  // namespace pstore
