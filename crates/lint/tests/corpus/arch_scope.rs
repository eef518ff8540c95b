//! SEED(architecture): a scope that selects nothing is a finding, reported
//! on the first line of the file it searched. The corpus config narrows a
//! rule to `fn pick_victims`, which this file renamed. Never compiled.

fn pick_victims_by_ratio(level: &[Table]) -> Vec<usize> {
    level.iter().map(|t| t.size).collect()
}
