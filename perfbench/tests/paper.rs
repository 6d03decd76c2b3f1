//! The paper-gap score is zero exactly when the measured headlines sit
//! on the paper's values.

use flexsnoop_perfbench::paper::{gap_pct, references, Headlines};

fn at(pick: impl Fn(f64, f64) -> f64) -> Headlines {
    references()
        .into_iter()
        .map(|r| ((r.group, r.quantity), pick(r.low, r.high)))
        .collect()
}

#[test]
fn references_cover_the_headlines() {
    let refs = references();
    assert_eq!(refs.len(), 9);
    assert!(refs.iter().all(|r| r.low <= r.high));
}

#[test]
fn paper_values_score_zero() {
    assert_eq!(gap_pct(&at(|low, _| low)), 0.0);
    assert_eq!(gap_pct(&at(|_, high| high)), 0.0);
    assert_eq!(gap_pct(&at(|low, high| (low + high) / 2.0)), 0.0);
}

#[test]
fn gap_is_mean_distance_to_the_band() {
    // Every value 3 points above its band's top end.
    let gap = gap_pct(&at(|_, high| high + 3.0));
    assert!((gap - 3.0).abs() < 1e-12, "{gap}");
}
