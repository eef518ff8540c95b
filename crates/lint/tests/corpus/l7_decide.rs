//! Seeded L7 (`decide-before-apply`) cases. The corpus config routes this
//! file into `twopc_path`: applying a staged slice must be dominated by the
//! prepare round's join, `join_prepares(..)`, in the same function — it
//! returns once every participant's prepare is durable (DESIGN.md §12
//! A1/A2). Never compiled.

pub fn ok_join_then_apply(&self, txn_id: u64, marker: ShardTxnMarker) -> Result<()> {
    self.join_prepares(marker, slices)?;
    for shard in &self.shards {
        shard.txn_apply(txn_id)?;
    }
    Ok(())
}

pub fn bad_apply_without_join(&self, txn_id: u64) -> Result<()> {
    self.shards[0].txn_apply(txn_id)?; // SEED(decide-before-apply)
    Ok(())
}

pub fn bad_apply_before_join(&self, txn_id: u64, marker: ShardTxnMarker) -> Result<()> {
    self.shards[0].txn_apply(txn_id)?; // SEED(decide-before-apply)
    self.join_prepares(marker, slices)?;
    Ok(())
}

pub fn allowed_open_apply(&self, txn_id: u64) -> Result<()> {
    // The open judged the durable prepares and floors. bolt-lint: allow(decide-before-apply)
    self.shards[0].txn_apply(txn_id)?;
    Ok(())
}
