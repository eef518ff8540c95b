//! Database file naming, LevelDB-style.
//!
//! All data files — standalone SSTables and BoLT compaction files alike —
//! share the `.sst` suffix: a compaction file *is* a sequence of tables, and
//! recovery does not need to distinguish them.

use bolt_env::join_path;

/// Kinds of files inside a database directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileType {
    /// Write-ahead log (`NNNNNN.log`).
    Log(u64),
    /// Data file — SSTable or compaction file (`NNNNNN.sst`).
    Table(u64),
    /// MANIFEST log (`MANIFEST-NNNNNN`).
    Manifest(u64),
    /// The `CURRENT` pointer file.
    Current,
    /// Temporary file (`NNNNNN.tmp`).
    Temp(u64),
    /// Value-log segment (`NNNNNN.vlog`) — holds separated large values.
    ValueLog(u64),
}

impl FileType {
    /// Path of this file inside `db`.
    pub fn path(self, db: &str) -> String {
        match self {
            FileType::Log(n) => log_file(db, n),
            FileType::Table(n) => table_file(db, n),
            FileType::Manifest(n) => manifest_file(db, n),
            FileType::Current => current_file(db),
            FileType::Temp(n) => temp_file(db, n),
            FileType::ValueLog(n) => vlog_file(db, n),
        }
    }
}

/// Path of WAL number `n` inside `db`.
pub fn log_file(db: &str, n: u64) -> String {
    join_path(db, &format!("{n:06}.log"))
}

/// Path of data file number `n` inside `db`.
pub fn table_file(db: &str, n: u64) -> String {
    join_path(db, &format!("{n:06}.sst"))
}

/// Path of MANIFEST number `n` inside `db`.
pub fn manifest_file(db: &str, n: u64) -> String {
    join_path(db, &format!("MANIFEST-{n:06}"))
}

/// Path of the CURRENT pointer inside `db`.
pub fn current_file(db: &str) -> String {
    join_path(db, "CURRENT")
}

/// Path of temp file number `n` inside `db`.
pub fn temp_file(db: &str, n: u64) -> String {
    join_path(db, &format!("{n:06}.tmp"))
}

/// Path of value-log segment number `n` inside `db`.
pub fn vlog_file(db: &str, n: u64) -> String {
    join_path(db, &format!("{n:06}.vlog"))
}

/// Classify a directory entry name.
pub fn parse_file_name(name: &str) -> Option<FileType> {
    if name == "CURRENT" {
        return Some(FileType::Current);
    }
    if let Some(rest) = name.strip_prefix("MANIFEST-") {
        return rest.parse().ok().map(FileType::Manifest);
    }
    if let Some(stem) = name.strip_suffix(".log") {
        return stem.parse().ok().map(FileType::Log);
    }
    if let Some(stem) = name.strip_suffix(".sst") {
        return stem.parse().ok().map(FileType::Table);
    }
    if let Some(stem) = name.strip_suffix(".tmp") {
        return stem.parse().ok().map(FileType::Temp);
    }
    if let Some(stem) = name.strip_suffix(".vlog") {
        return stem.parse().ok().map(FileType::ValueLog);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parser() {
        assert_eq!(parse_file_name("000012.log"), Some(FileType::Log(12)));
        assert_eq!(parse_file_name("000345.sst"), Some(FileType::Table(345)));
        assert_eq!(
            parse_file_name("MANIFEST-000007"),
            Some(FileType::Manifest(7))
        );
        assert_eq!(parse_file_name("CURRENT"), Some(FileType::Current));
        assert_eq!(parse_file_name("000009.tmp"), Some(FileType::Temp(9)));
        assert_eq!(parse_file_name("000011.vlog"), Some(FileType::ValueLog(11)));
        assert_eq!(parse_file_name("garbage"), None);
        assert_eq!(parse_file_name("xx.sst"), None);
    }

    #[test]
    fn paths_embed_directory() {
        assert_eq!(log_file("db", 3), "db/000003.log");
        assert_eq!(table_file("db", 3), "db/000003.sst");
        assert_eq!(manifest_file("db", 1), "db/MANIFEST-000001");
        assert_eq!(current_file("db"), "db/CURRENT");
    }
}
