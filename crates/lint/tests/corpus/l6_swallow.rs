//! Seeded L6 (`swallowed-io-error`) cases. The corpus config routes this
//! file into `crash_path`, one of the module sets where a discarded
//! fallible I/O `Result` voids the durability argument. Never compiled.

pub fn bad_let_underscore(file: &mut dyn WritableFile) {
    let _ = file.sync(); // SEED(swallowed-io-error)
}

pub fn bad_terminal_ok(wal: &mut LogWriter) {
    wal.append(b"record").ok(); // SEED(swallowed-io-error)
}

pub fn bad_unused_return(manifest: &mut LogWriter) {
    manifest.add_record(b"edit"); // SEED(swallowed-io-error)
}

pub fn ok_propagated(file: &mut dyn WritableFile) -> Result<()> {
    file.sync()?;
    Ok(())
}

pub fn ok_bound_result(file: &mut dyn WritableFile) -> Result<()> {
    let r = file.sync();
    r
}

pub fn ok_checked_inline(file: &mut dyn WritableFile) -> bool {
    if file.sync().is_ok() {
        return true;
    }
    false
}

pub fn allowed_discard(file: &mut dyn WritableFile) {
    // Best-effort flush on shutdown; errors resurface at the next open. bolt-lint: allow(swallowed-io-error)
    let _ = file.sync();
}

pub fn bad_listing_read_as_empty(env: &dyn Env, db: &str) {
    for name in env.list_dir(db).unwrap_or_default() { // SEED(swallowed-io-error)
        visit(name);
    }
}

pub fn bad_bound_default(env: &dyn Env, db: &str) -> usize {
    let names = env.list_dir(db).unwrap_or_default(); // SEED(swallowed-io-error)
    names.len()
}

pub fn ok_listing_propagated(env: &dyn Env, db: &str) -> Result<usize> {
    Ok(env.list_dir(db)?.len())
}
