//! An `architecture` case that is not flagged: the corpus config forbids
//! the field name `punched` in this file, and it appears only where a text
//! grep would see it and the token rule must not. Never compiled.

// punched: the field this file no longer has.
fn describe() -> &'static str {
    "punched: 0 holes"
}

fn live(stats: &ReclaimStats) -> u64 {
    stats.holes_punched
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixture() {
        let old = OldStats { punched: 109, holes_punched: 109 };
    }
}
