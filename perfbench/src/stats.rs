//! Order statistics over latency samples.

/// The `q` quantile (nearest rank) of `samples`; `None` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `samples`; `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The median, over `blocks` consecutive equal parts of `samples` (in
/// the order they were taken), of each part's `q` quantile: a stall of
/// the shared host that spoils one part moves the result no further
/// than the part next to the median. `None` when a part is empty.
#[must_use]
pub fn block_quantile(samples: &[f64], blocks: usize, q: f64) -> Option<f64> {
    let blocks = blocks.max(1);
    if samples.len() < blocks {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let part = &samples[b * samples.len() / blocks..(b + 1) * samples.len() / blocks];
            quantile(part, q).expect("parts are nonempty")
        })
        .collect();
    median(&per_block)
}
