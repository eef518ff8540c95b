//! Key → shard routing, persisted so a database reopens with the exact
//! partitioning it was created with.
//!
//! Two strategies ship: [`Router::hash`] (FNV-1a over the user key,
//! uniform and order-oblivious — the default) and [`Router::range`]
//! (explicit split points, keeping each shard a contiguous keyspace so
//! range scans touch few shards). The chosen router is written to the
//! `SHARDS` file at creation and validated on every reopen: a key must
//! route to the same shard for the lifetime of the database, or
//! single-key reads would silently miss data written before a restart.

use bolt_common::{Error, Result};
use bolt_env::{join_path, Env};

/// Magic first line of the `SHARDS` file.
const SHARDS_HEADER: &str = "bolt-shards v1";

/// Path of the `SHARDS` file of the sharded database in directory `db`.
pub(crate) fn shards_file(db: &str) -> String {
    join_path(db, "SHARDS")
}

/// A deterministic, persistent key → shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Router {
    /// FNV-1a hash of the user key modulo the shard count.
    Hash {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// Range partitioning: shard `i` owns keys in
    /// `[split[i-1], split[i])`, with the first shard owning everything
    /// below `split[0]` and the last everything at or above the final
    /// split point. `splits` must be strictly ascending.
    Range {
        /// The `shards - 1` split points, strictly ascending.
        splits: Vec<Vec<u8>>,
    },
}

/// FNV-1a, 64-bit. Stable across platforms and releases by construction —
/// this value is part of the on-disk contract.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Router {
    /// Hash routing over `shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `shards` is 0 or above 64
    /// (the 2PC shard bitmap is a `u64`).
    pub fn hash(shards: usize) -> Result<Router> {
        Router::Hash { shards }.validated()
    }

    /// Range routing with the given ascending split points
    /// (`splits.len() + 1` shards).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if the splits are not strictly
    /// ascending or imply more than 64 shards.
    pub fn range(splits: Vec<Vec<u8>>) -> Result<Router> {
        Router::Range { splits }.validated()
    }

    fn validated(self) -> Result<Router> {
        let shards = self.shards();
        if shards == 0 {
            return Err(Error::InvalidArgument(
                "a ShardedDb needs at least one shard".into(),
            ));
        }
        if shards > 64 {
            return Err(Error::InvalidArgument(format!(
                "at most 64 shards are supported (the transaction shard \
                 bitmap is a u64), got {shards}"
            )));
        }
        if let Router::Range { splits } = &self {
            if !splits.windows(2).all(|w| w[0] < w[1]) {
                return Err(Error::InvalidArgument(
                    "range split points must be strictly ascending".into(),
                ));
            }
        }
        Ok(self)
    }

    /// Number of shards this router spreads keys over.
    pub fn shards(&self) -> usize {
        match self {
            Router::Hash { shards } => *shards,
            Router::Range { splits } => splits.len() + 1,
        }
    }

    /// The shard owning `key`. Total and deterministic: every key routes
    /// to exactly one shard, stably across process restarts.
    pub fn route(&self, key: &[u8]) -> usize {
        match self {
            Router::Hash { shards } => (fnv1a(key) % *shards as u64) as usize,
            Router::Range { splits } => splits.partition_point(|s| s.as_slice() <= key),
        }
    }

    /// The inclusive span of shard indexes that may own keys in
    /// `[begin, end)`. Hash routing scatters a key range over every shard;
    /// range routing confines it to the shards whose ownership intervals
    /// the range overlaps.
    pub fn route_span(&self, begin: &[u8], end: &[u8]) -> (usize, usize) {
        match self {
            Router::Hash { shards } => (0, shards - 1),
            Router::Range { splits } => {
                let first = self.route(begin);
                // Highest shard owning any key strictly below `end`: the
                // number of split points strictly below it.
                let last = splits.partition_point(|s| s.as_slice() < end);
                (first, last.max(first))
            }
        }
    }

    /// Shard `i`'s ownership interval as `(lower, upper)` bounds, `None`
    /// meaning unbounded. Hash shards own the whole keyspace.
    pub fn shard_bounds(&self, i: usize) -> (Option<&[u8]>, Option<&[u8]>) {
        match self {
            Router::Hash { .. } => (None, None),
            Router::Range { splits } => {
                let lo = i.checked_sub(1).and_then(|p| splits.get(p));
                let hi = splits.get(i);
                (lo.map(Vec::as_slice), hi.map(Vec::as_slice))
            }
        }
    }

    /// Serialize for the `SHARDS` file.
    pub fn encode(&self) -> String {
        match self {
            Router::Hash { shards } => format!("{SHARDS_HEADER}\nhash {shards}\n"),
            Router::Range { splits } => {
                let mut out = format!("{SHARDS_HEADER}\nrange {}\n", splits.len());
                for s in splits {
                    for b in s {
                        out.push_str(&format!("{b:02x}"));
                    }
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Read the router pinned in `db`'s `SHARDS` file: `None` when there is
    /// no such file, i.e. `db` is not (yet) a sharded database.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env, and [`Error::Corruption`] for a file
    /// that is not UTF-8 or does not decode.
    pub fn load(env: &dyn Env, db: &str) -> Result<Option<Router>> {
        let path = shards_file(db);
        if !env.file_exists(&path) {
            return Ok(None);
        }
        let file = env.new_random_access_file(&path)?;
        let raw = file.read(0, file.len() as usize)?;
        let text =
            String::from_utf8(raw).map_err(|_| Error::corruption("SHARDS file: not UTF-8"))?;
        Router::decode(&text).map(Some)
    }

    /// Parse a `SHARDS` file body.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on any malformed content.
    pub fn decode(text: &str) -> Result<Router> {
        let bad = |what: &str| Error::Corruption(format!("SHARDS file: {what}"));
        let mut lines = text.lines();
        if lines.next() != Some(SHARDS_HEADER) {
            return Err(bad("missing header"));
        }
        let spec = lines.next().ok_or_else(|| bad("missing router line"))?;
        let router = match spec.split_once(' ') {
            Some(("hash", n)) => Router::Hash {
                shards: n.parse().map_err(|_| bad("bad shard count"))?,
            },
            Some(("range", n)) => {
                let n: usize = n.parse().map_err(|_| bad("bad split count"))?;
                // The count is read, never trusted: nothing is allocated
                // from it, and a missing line ends the loop.
                let mut splits = Vec::new();
                let nibble = |c: u8| {
                    char::from(c)
                        .to_digit(16)
                        .ok_or_else(|| bad("non-hex split point"))
                };
                for _ in 0..n {
                    let hex = lines.next().ok_or_else(|| bad("missing split point"))?;
                    if hex.len() % 2 != 0 {
                        return Err(bad("odd-length split point"));
                    }
                    // Hex is decoded from bytes: a multi-byte char is not a
                    // digit, never a slice across a char boundary.
                    let bytes: Result<Vec<u8>> = (hex.as_bytes().chunks(2))
                        .map(|pair| Ok((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
                        .collect();
                    splits.push(bytes?);
                }
                Router::Range { splits }
            }
            _ => return Err(bad("unknown router kind")),
        };
        router
            .validated()
            .map_err(|e| Error::Corruption(format!("SHARDS file: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_total_and_stable() {
        let r = Router::hash(4).unwrap();
        assert_eq!(r.shards(), 4);
        for i in 0..1000u32 {
            let key = format!("user{i:08}");
            let s = r.route(key.as_bytes());
            assert!(s < 4);
            assert_eq!(s, r.route(key.as_bytes()));
        }
        // The known FNV-1a constant pins the on-disk contract.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn range_routing_respects_split_points() {
        let r = Router::range(vec![b"g".to_vec(), b"p".to_vec()]).unwrap();
        assert_eq!(r.shards(), 3);
        assert_eq!(r.route(b"apple"), 0);
        assert_eq!(r.route(b"g"), 1); // split point belongs to the right shard
        assert_eq!(r.route(b"melon"), 1);
        assert_eq!(r.route(b"p"), 2);
        assert_eq!(r.route(b"zebra"), 2);
    }

    #[test]
    fn invalid_routers_are_rejected() {
        assert!(Router::hash(0).is_err());
        assert!(Router::hash(65).is_err());
        assert!(Router::range(vec![b"b".to_vec(), b"a".to_vec()]).is_err());
        assert!(Router::range(vec![b"a".to_vec(), b"a".to_vec()]).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for r in [
            Router::hash(1).unwrap(),
            Router::hash(8).unwrap(),
            Router::range(vec![b"key5".to_vec(), vec![0xFF, 0x00]]).unwrap(),
        ] {
            assert_eq!(Router::decode(&r.encode()).unwrap(), r);
        }
        assert!(Router::decode("garbage").is_err());
        assert!(Router::decode("bolt-shards v1\nhash 0\n").is_err());
    }

    /// A split point of even byte length that is not ASCII (`aéb` is four
    /// bytes), and a split count that cannot be allocated: `Corruption`,
    /// where hex slicing panicked off a char boundary and
    /// `Vec::with_capacity` overflowed.
    #[test]
    fn lying_shards_files_are_corruption() {
        for text in [
            "bolt-shards v1\nrange 1\na\u{e9}b\n",
            "bolt-shards v1\nrange 18446744073709551615\n6b\n",
        ] {
            let err = Router::decode(text).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{err:?}");
        }
    }

    /// Every damaged copy of an encoded range router that is still UTF-8
    /// (the opener rejects the rest) decodes as `Ok` or `Corruption`.
    #[test]
    fn every_damaged_shards_file_is_ok_or_corruption() {
        let router = Router::range(vec![b"a".to_vec(), b"key5".to_vec(), vec![0xFF, 0x00]]);
        let good = router.unwrap().encode().into_bytes();
        for (case, data) in crate::damage::damaged(&good).enumerate() {
            let Ok(text) = std::str::from_utf8(&data) else {
                continue;
            };
            if let Err(err) = Router::decode(text) {
                assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}");
            }
        }
    }
}
