//! Seeded `architecture` case, one forbidden pattern in several places:
//! files are unlinked by the reclaim batch only; a WAL retirement and a
//! sink's never-committed outputs build a batch, recovery condemns, and a
//! flush leaves its garbage to the reclaim pass. Never compiled.

impl ReclaimBatch {
    pub fn execute(self, env: &dyn Env) {
        env.delete_file(&path);
    }
}

fn delete_obsolete_logs(db: &DbInner) {
    db.env.delete_file(&log); // SEED(architecture)
}

impl<'a> OutputSink<'a> {
    fn abandon(&mut self) {
        self.inner.env.delete_file(&output); // SEED(architecture)
    }
}

impl VersionSet {
    pub fn recover(&mut self) {
        self.env.delete_file(&stale); // SEED(architecture)
    }
}

fn flush_memtable(db: &DbInner) {
    db.env.delete_file(&orphan); // SEED(architecture)
}
