//! Table ownership for the scatter/gather query path.
//!
//! A sharded query splits one logical catalog **by table** over
//! `shard_count` scatter legs. Every leg holds the full index; ownership
//! only decides which leg materializes a search candidate (see
//! `ver_search::SearchContext::search_shard`), so the legs' outputs
//! partition the single-engine output exactly (determinism invariant 11).

use ver_common::fxhash::fx_step;
use ver_common::ids::TableId;

/// Owning shard of a table: a pure hash of `(table id, shard_count)`.
///
/// This mapping is the sharding contract: it decides which scatter leg
/// materializes a candidate at query time. It must be the same in every
/// process of a deployment, or a router's legs would disagree on who owns
/// what and the merged answer would lose or duplicate views.
pub fn shard_of_table(table: TableId, shard_count: usize) -> usize {
    assert!(shard_count >= 1, "shard_count must be at least 1");
    // One fx round over a fixed seed scatters consecutive table ids; plain
    // modulo would lane all early tables onto shard 0 for small catalogs.
    (fx_step(0x5ee0_5ee0_5ee0_5ee0, table.0 as u64) % shard_count as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for count in 1..8usize {
            for t in 0..200u32 {
                let s = shard_of_table(TableId(t), count);
                assert!(s < count);
                assert_eq!(s, shard_of_table(TableId(t), count), "deterministic");
            }
        }
        // Not everything lands on one shard for a small catalog.
        let hits: std::collections::HashSet<usize> =
            (0..16u32).map(|t| shard_of_table(TableId(t), 4)).collect();
        assert!(hits.len() > 1, "hash must scatter small table ids");
    }
}
