#include "storage/fragment.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace pstore {

// A row packed into one heap block: this header, then `num_values`
// tagged values. A value is a Tag byte followed by 8 bytes (kInt64,
// kDouble), by a uint32 length and that many bytes (kString), or by
// nothing (kNull). Multi-byte fields are unaligned and go through memcpy.
struct RowRecord {
  // Row::ByteSize() of the encoded row, so byte accounting never decodes
  // and a bucket's migrated kilobytes match the unpacked row's exactly.
  uint32_t model_bytes;
  uint32_t num_values;
};

namespace {

enum class Tag : uint8_t { kNull, kInt64, kDouble, kString };

// Slots in a row table's first allocation; it doubles past 3/4 full.
constexpr uint32_t kMinSlots = 8;

uint64_t ProbeOfHash(uint64_t key_hash) { return key_hash >> 32; }

struct KeyLocation {
  BucketId bucket;
  uint64_t probe;
};

// One MurmurHash64A per key: its remainder picks the bucket (exactly as
// KeyToBucket) and its high half the probe start within the bucket.
KeyLocation Locate(int64_t key, int32_t num_buckets) {
  const uint64_t h = MurmurHash64A(key);
  return {BucketOfHash(h, num_buckets), ProbeOfHash(h)};
}

unsigned char* Payload(RowRecord* record) {
  return reinterpret_cast<unsigned char*>(record + 1);
}

const unsigned char* Payload(const RowRecord* record) {
  return reinterpret_cast<const unsigned char*>(record + 1);
}

// Packs `row` into a new malloc'd record the caller owns. The modelled
// size bounds every string length and the value count, so checking it
// alone makes each narrowing to uint32 below safe.
Status Encode(const Row& row, RowRecord** out) {
  const size_t model_bytes = row.ByteSize();
  if (model_bytes > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("row of " + std::to_string(model_bytes) +
                                   " bytes exceeds the 4 GiB record limit");
  }
  size_t len = sizeof(RowRecord);
  for (const Value& v : row.values()) {
    len += 1;
    if (v.is_int64() || v.is_double()) {
      len += 8;
    } else if (v.is_string()) {
      len += sizeof(uint32_t) + v.as_string().size();
    }
  }
  auto* record = static_cast<RowRecord*>(std::malloc(len));
  if (record == nullptr) std::abort();
  record->model_bytes = static_cast<uint32_t>(model_bytes);
  record->num_values = static_cast<uint32_t>(row.size());
  unsigned char* p = Payload(record);
  for (const Value& v : row.values()) {
    if (v.is_int64()) {
      *p++ = static_cast<unsigned char>(Tag::kInt64);
      const int64_t x = v.as_int64();
      std::memcpy(p, &x, 8);
      p += 8;
    } else if (v.is_double()) {
      *p++ = static_cast<unsigned char>(Tag::kDouble);
      const double x = v.as_double();
      std::memcpy(p, &x, 8);
      p += 8;
    } else if (v.is_string()) {
      *p++ = static_cast<unsigned char>(Tag::kString);
      const std::string& s = v.as_string();
      const auto n = static_cast<uint32_t>(s.size());
      std::memcpy(p, &n, sizeof(n));
      p += sizeof(n);
      std::memcpy(p, s.data(), n);
      p += n;
    } else {
      *p++ = static_cast<unsigned char>(Tag::kNull);
    }
  }
  *out = record;
  return Status::OK();
}

Row Decode(const RowRecord* record) {
  std::vector<Value> values;
  values.reserve(record->num_values);
  const unsigned char* p = Payload(record);
  for (uint32_t i = 0; i < record->num_values; ++i) {
    switch (static_cast<Tag>(*p++)) {
      case Tag::kNull:
        values.emplace_back();
        break;
      case Tag::kInt64: {
        int64_t x = 0;
        std::memcpy(&x, p, 8);
        p += 8;
        values.emplace_back(x);
        break;
      }
      case Tag::kDouble: {
        double x = 0;
        std::memcpy(&x, p, 8);
        p += 8;
        values.emplace_back(x);
        break;
      }
      case Tag::kString: {
        uint32_t n = 0;
        std::memcpy(&n, p, sizeof(n));
        p += sizeof(n);
        values.emplace_back(std::string(reinterpret_cast<const char*>(p), n));
        p += n;
        break;
      }
    }
  }
  return Row(std::move(values));
}

Status KeyNotFound(int64_t key) {
  return Status::NotFound("key " + std::to_string(key) + " not found");
}

}  // namespace

uint64_t RowProbeHash(int64_t key) { return ProbeOfHash(MurmurHash64A(key)); }

// ----------------------------------------------------------- BucketRows

BucketRows::BucketRows(BucketRows&& other) noexcept
    : slots_(std::exchange(other.slots_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

BucketRows& BucketRows::operator=(BucketRows&& other) noexcept {
  if (this != &other) {
    Release();
    slots_ = std::exchange(other.slots_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

BucketRows::~BucketRows() { Release(); }

void BucketRows::Release() {
  for (uint32_t i = 0; i < capacity_; ++i) std::free(slots_[i].record);
  delete[] slots_;
  slots_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

BucketRows::Slot* BucketRows::Find(int64_t key, uint64_t probe) const {
  if (size_ == 0) return nullptr;
  const uint64_t mask = capacity_ - 1;
  for (uint64_t i = probe & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.record == nullptr) return nullptr;
    if (slot.key == key) return &slot;
  }
}

void BucketRows::Add(int64_t key, uint64_t probe, RowRecord* record) {
  if ((uint64_t{size_} + 1) * 4 > uint64_t{capacity_} * 3) Grow();
  const uint64_t mask = capacity_ - 1;
  uint64_t i = probe & mask;
  while (slots_[i].record != nullptr) i = (i + 1) & mask;
  slots_[i] = {key, record};
  ++size_;
}

void BucketRows::Grow() {
  Slot* old = slots_;
  const uint32_t old_capacity = capacity_;
  capacity_ = old_capacity == 0 ? kMinSlots : old_capacity * 2;
  slots_ = new Slot[capacity_]();
  const uint64_t mask = capacity_ - 1;
  for (uint32_t j = 0; j < old_capacity; ++j) {
    if (old[j].record == nullptr) continue;
    uint64_t i = RowProbeHash(old[j].key) & mask;
    while (slots_[i].record != nullptr) i = (i + 1) & mask;
    slots_[i] = old[j];
  }
  delete[] old;
}

RowRecord* BucketRows::Remove(int64_t key, uint64_t probe) {
  Slot* slot = Find(key, probe);
  if (slot == nullptr) return nullptr;
  RowRecord* record = slot->record;
  // Backward shift: walk the cluster after the hole and pull back every
  // entry whose probe path [home, j) passes through the hole, so probes
  // never need tombstones.
  const uint64_t mask = capacity_ - 1;
  uint64_t hole = static_cast<uint64_t>(slot - slots_);
  for (uint64_t j = (hole + 1) & mask; slots_[j].record != nullptr;
       j = (j + 1) & mask) {
    const uint64_t home = RowProbeHash(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].record = nullptr;
  --size_;
  return record;
}

// ------------------------------------------------------ StorageFragment

StorageFragment::StorageFragment(const Catalog* catalog, int32_t num_buckets)
    : catalog_(catalog), num_buckets_(num_buckets) {
  assert(catalog != nullptr);
  assert(num_buckets > 0);
  tables_.resize(catalog->num_tables());
  bucket_bytes_.resize(static_cast<size_t>(num_buckets));
}

StorageFragment::TableStore& StorageFragment::StoreFor(TableId table) {
  if (static_cast<size_t>(table) >= tables_.size()) {
    tables_.resize(static_cast<size_t>(table) + 1);
  }
  TableStore& store = tables_[static_cast<size_t>(table)];
  if (store.buckets.empty()) {
    store.buckets.resize(static_cast<size_t>(num_buckets_));
  }
  return store;
}

BucketRows* StorageFragment::RowsFor(TableId table, BucketId bucket) {
  if (table < 0 || static_cast<size_t>(table) >= tables_.size() ||
      bucket < 0 || bucket >= num_buckets_) {
    return nullptr;
  }
  std::vector<BucketRows>& buckets =
      tables_[static_cast<size_t>(table)].buckets;
  return buckets.empty() ? nullptr : &buckets[static_cast<size_t>(bucket)];
}

const BucketRows* StorageFragment::RowsFor(TableId table,
                                           BucketId bucket) const {
  return const_cast<StorageFragment*>(this)->RowsFor(table, bucket);
}

void StorageFragment::AddBytes(BucketId bucket, int64_t bytes) {
  bucket_bytes_[static_cast<size_t>(bucket)] += bytes;
  total_bytes_ += bytes;
}

Status StorageFragment::Insert(TableId table, const Row& row) {
  const Schema& schema = catalog_->GetSchema(table);
  PSTORE_RETURN_NOT_OK(schema.Validate(row));
  const int64_t key = schema.PartitionKey(row);
  const KeyLocation loc = Locate(key, num_buckets_);
  TableStore& store = StoreFor(table);
  BucketRows& rows = store.buckets[static_cast<size_t>(loc.bucket)];
  if (rows.Find(key, loc.probe) != nullptr) {
    return Status::AlreadyExists("key " + std::to_string(key) +
                                 " already exists in table '" +
                                 schema.name() + "'");
  }
  RowRecord* record = nullptr;
  PSTORE_RETURN_NOT_OK(Encode(row, &record));
  rows.Add(key, loc.probe, record);
  AddBytes(loc.bucket, record->model_bytes);
  ++store.row_count;
  return Status::OK();
}

Status StorageFragment::Upsert(TableId table, const Row& row) {
  const Schema& schema = catalog_->GetSchema(table);
  PSTORE_RETURN_NOT_OK(schema.Validate(row));
  const int64_t key = schema.PartitionKey(row);
  const KeyLocation loc = Locate(key, num_buckets_);
  RowRecord* record = nullptr;
  PSTORE_RETURN_NOT_OK(Encode(row, &record));
  TableStore& store = StoreFor(table);
  BucketRows& rows = store.buckets[static_cast<size_t>(loc.bucket)];
  int64_t delta = record->model_bytes;
  if (BucketRows::Slot* slot = rows.Find(key, loc.probe)) {
    delta -= slot->record->model_bytes;
    std::free(slot->record);
    slot->record = record;
  } else {
    rows.Add(key, loc.probe, record);
    ++store.row_count;
  }
  AddBytes(loc.bucket, delta);
  return Status::OK();
}

Result<Row> StorageFragment::Get(TableId table, int64_t key) const {
  const KeyLocation loc = Locate(key, num_buckets_);
  if (const BucketRows* rows = RowsFor(table, loc.bucket)) {
    if (const BucketRows::Slot* slot = rows->Find(key, loc.probe)) {
      return Decode(slot->record);
    }
  }
  return KeyNotFound(key);
}

bool StorageFragment::Contains(TableId table, int64_t key) const {
  const KeyLocation loc = Locate(key, num_buckets_);
  const BucketRows* rows = RowsFor(table, loc.bucket);
  return rows != nullptr && rows->Find(key, loc.probe) != nullptr;
}

Status StorageFragment::Delete(TableId table, int64_t key) {
  const KeyLocation loc = Locate(key, num_buckets_);
  BucketRows* rows = RowsFor(table, loc.bucket);
  RowRecord* record =
      rows == nullptr ? nullptr : rows->Remove(key, loc.probe);
  if (record == nullptr) return KeyNotFound(key);
  AddBytes(loc.bucket, -static_cast<int64_t>(record->model_bytes));
  std::free(record);
  --tables_[static_cast<size_t>(table)].row_count;
  return Status::OK();
}

int64_t StorageFragment::RowCount(TableId table) const {
  if (table < 0 || static_cast<size_t>(table) >= tables_.size()) return 0;
  return tables_[static_cast<size_t>(table)].row_count;
}

int64_t StorageFragment::TotalRowCount() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t.row_count;
  return total;
}

int64_t StorageFragment::BucketRowCount(BucketId bucket) const {
  int64_t rows = 0;
  for (TableId t = 0; t < static_cast<TableId>(tables_.size()); ++t) {
    if (const BucketRows* r = RowsFor(t, bucket)) {
      rows += static_cast<int64_t>(r->size());
    }
  }
  return rows;
}

int64_t StorageFragment::BucketBytes(BucketId bucket) const {
  if (bucket < 0 || bucket >= num_buckets_) return 0;
  return bucket_bytes_[static_cast<size_t>(bucket)];
}

std::vector<std::pair<TableId, BucketRows>> StorageFragment::ExtractBucket(
    BucketId bucket) {
  assert(bucket >= 0 && bucket < num_buckets_);
  std::vector<std::pair<TableId, BucketRows>> out;
  for (TableId t = 0; t < static_cast<TableId>(tables_.size()); ++t) {
    BucketRows* rows = RowsFor(t, bucket);
    if (rows == nullptr || rows->empty()) continue;
    tables_[static_cast<size_t>(t)].row_count -=
        static_cast<int64_t>(rows->size());
    out.emplace_back(t, std::move(*rows));
  }
  total_bytes_ -= bucket_bytes_[static_cast<size_t>(bucket)];
  bucket_bytes_[static_cast<size_t>(bucket)] = 0;
  return out;
}

Status StorageFragment::InstallBucket(
    BucketId bucket, std::vector<std::pair<TableId, BucketRows>> data) {
  assert(bucket >= 0 && bucket < num_buckets_);
  for (auto& [table, rows] : data) {
    TableStore& store = StoreFor(table);
    BucketRows& dest = store.buckets[static_cast<size_t>(bucket)];
    // Records move as they are, never re-encoded. When the bucket holds
    // no rows of this table here (every migration), the whole row table
    // moves in one step.
    const bool adopt = dest.empty();
    for (uint32_t i = 0; i < rows.capacity_; ++i) {
      BucketRows::Slot& slot = rows.slots_[i];
      if (slot.record == nullptr) continue;
      const int64_t bytes = slot.record->model_bytes;
      if (!adopt) {
        const uint64_t probe = RowProbeHash(slot.key);
        if (dest.Find(slot.key, probe) != nullptr) {
          return Status::Internal("bucket " + std::to_string(bucket) +
                                  " key " + std::to_string(slot.key) +
                                  " already present at destination");
        }
        dest.Add(slot.key, probe, std::exchange(slot.record, nullptr));
        --rows.size_;
      }
      AddBytes(bucket, bytes);
      ++store.row_count;
    }
    if (adopt) dest = std::move(rows);
  }
  return Status::OK();
}

std::vector<int64_t> StorageFragment::BucketKeys(TableId table,
                                                 BucketId bucket) const {
  std::vector<int64_t> keys;
  const BucketRows* rows = RowsFor(table, bucket);
  if (rows == nullptr) return keys;
  keys.reserve(rows->size());
  for (uint32_t i = 0; i < rows->capacity_; ++i) {
    if (rows->slots_[i].record != nullptr) keys.push_back(rows->slots_[i].key);
  }
  return keys;
}

}  // namespace pstore
