//! K-way merged iteration over per-shard iterators.
//!
//! Every key lives on exactly one shard (the router is a total function),
//! so the merge never sees duplicate user keys: it simply surfaces the
//! minimum current key among the valid children. With a range router the
//! children's key ranges are disjoint and the merge degenerates into
//! visiting shards in order; with a hash router it interleaves.

use bolt_common::Result;
use bolt_core::DbIterator;

/// A forward iterator over the union of all shards' live keys, in key
/// order.
pub struct ShardedIterator {
    children: Vec<DbIterator>,
    current: Option<usize>,
}

impl ShardedIterator {
    pub(crate) fn new(children: Vec<DbIterator>) -> ShardedIterator {
        ShardedIterator {
            children,
            current: None,
        }
    }

    fn pick_min(&mut self) {
        self.current = self
            .children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.valid())
            .min_by(|(_, a), (_, b)| a.key().cmp(b.key()))
            .map(|(i, _)| i);
    }

    /// `true` while positioned on an entry.
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Position on the smallest key of any shard. An error leaves the
    /// iterator invalid, as every positioning call's does.
    ///
    /// # Errors
    ///
    /// Returns read errors from the shards.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.current = None;
        for child in &mut self.children {
            child.seek_to_first()?;
        }
        self.pick_min();
        Ok(())
    }

    /// Position on the smallest key `>= user_key` across all shards.
    ///
    /// # Errors
    ///
    /// Returns read errors from the shards.
    pub fn seek(&mut self, user_key: &[u8]) -> Result<()> {
        self.current = None;
        for child in &mut self.children {
            child.seek(user_key)?;
        }
        self.pick_min();
        Ok(())
    }

    /// Advance to the next key in the merged order.
    ///
    /// # Errors
    ///
    /// Returns read errors from the shards.
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        if let Some(i) = self.current.take() {
            self.children[i].next()?;
            self.pick_min();
        }
        Ok(())
    }

    /// Current user key. Panics when not [`ShardedIterator::valid`].
    pub fn key(&self) -> &[u8] {
        let i = self.current.expect("iterator is valid");
        self.children[i].key()
    }

    /// Current value. Panics when not [`ShardedIterator::valid`].
    pub fn value(&self) -> &[u8] {
        let i = self.current.expect("iterator is valid");
        self.children[i].value()
    }

    /// Shard the current entry came from. Panics when not
    /// [`ShardedIterator::valid`].
    pub fn shard(&self) -> usize {
        self.current.expect("iterator is valid")
    }
}
