#include "util/shard_plan.h"

#include <algorithm>

#include "util/stats.h"

namespace causumx {

static_assert(kSummationBlockRows == 64,
              "shard alignment assumes 64-row summation blocks (= one "
              "bitset word)");

namespace {

size_t AlignUpToBlock(size_t rows) {
  const size_t block = kSummationBlockRows;
  if (rows == 0) return block;
  return ((rows + block - 1) / block) * block;
}

}  // namespace

ShardPlan::ShardPlan(size_t num_rows)
    : num_rows_(num_rows), shard_rows_(AlignUpToBlock(num_rows)) {}

ShardPlan::ShardPlan(size_t num_rows, size_t shard_rows)
    : num_rows_(num_rows), shard_rows_(AlignUpToBlock(shard_rows)) {}

ShardPlan ShardPlan::ForShardCount(size_t num_rows, size_t requested_shards,
                                   size_t auto_shards) {
  size_t shards = requested_shards;
  if (shards == 0) shards = std::max<size_t>(1, auto_shards);
  // One shard per summation block is the finest legal split; a larger
  // request clamps there (shard_rows_ floors at one block).
  const size_t per_shard = (num_rows + shards - 1) / std::max<size_t>(1, shards);
  return ShardPlan(num_rows, per_shard);
}

size_t ShardPlan::NumShards() const {
  if (num_rows_ == 0) return 1;
  return (num_rows_ + shard_rows_ - 1) / shard_rows_;
}

size_t ShardPlan::ShardBegin(size_t shard) const {
  return std::min(shard * shard_rows_, num_rows_);
}

size_t ShardPlan::ShardEnd(size_t shard) const {
  return std::min((shard + 1) * shard_rows_, num_rows_);
}

}  // namespace causumx
