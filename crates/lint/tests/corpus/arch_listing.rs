//! Seeded `architecture` case, a pattern pinned to one place: the open lists
//! the directory once, in `VersionSet::recover`; the engine knows every
//! other file from its own state. Never compiled.

impl VersionSet {
    pub fn recover(&mut self) -> Result<Vec<u64>> {
        for name in self.env.list_dir(&self.db)? {}
    }
}

impl DbInner {
    fn delete_obsolete_logs(&self, boundary: u64) {
        if let Ok(names) = self.env.list_dir(&self.name) {} // SEED(architecture)
    }
}
