//! Seeded `architecture` case, one forbidden pattern in several places:
//! files are unlinked by the reclaim batch, the oldest-first WAL sweep and a
//! sink's never-committed outputs only; recovery condemns, and a flush
//! leaves its garbage to the reclaim pass. Never compiled.

impl ReclaimBatch {
    pub fn execute(self, env: &dyn Env) {
        env.delete_file(&path);
    }
}

fn delete_logs_oldest_first(db: &DbInner) {
    db.env.delete_file(&log);
}

impl<'a> OutputSink<'a> {
    fn abandon(&mut self) {
        self.inner.env.delete_file(&output);
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
