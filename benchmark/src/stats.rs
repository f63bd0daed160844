//! Reductions the benchmark reports: the noise floor of repeated rounds,
//! medians, guarded percentiles, the quartile spread the acceptance rule
//! uses, and peak memory.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median; the mean of the middle two for an even count. `0.0` for no
/// samples (an idle layer).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The noise floor of repeated work, operation by operation. Every round
/// of a run repeats the same sequence of operations on the same input; what
/// the machine's other tenants add to an operation is never negative and
/// comes in bursts of seconds, so the fastest repetition of an operation is
/// the one they disturbed least. Returns that fastest time per position; the
/// sum is what a round costs when nothing else runs. A median over rounds
/// follows the bursts instead: on this kind of sandbox the same lap reads
/// 2.2 s in one minute and 3.4 s in the next (BENCHMARK.md, *Noise*).
pub fn floors(rounds: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = rounds.first() else { return Vec::new() };
    assert!(rounds.iter().all(|r| r.len() == first.len()), "rounds repeat the same operations");
    (0..first.len()).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Samples a percentile needs beyond it before it is worth reporting.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank), refused unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it: a p95 of forty samples is the
/// second-largest value, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!((0.0..100.0).contains(&p), "percentile out of range");
    let v = sorted(samples);
    let rank = ((v.len() as f64) * p / 100.0).ceil() as usize;
    let beyond = v.len().saturating_sub(rank);
    if beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, fewer than {TAIL_SAMPLES}",
            v.len()
        ));
    }
    Ok(v[rank.max(1) - 1])
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method): the three cut points the driver takes the spread from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn floors_take_the_fastest_repetition_of_each_operation() {
        let rounds = vec![vec![1.0, 5.0, 0.2], vec![2.0, 4.0, 0.1], vec![1.5, 6.0, 0.3]];
        assert_eq!(floors(&rounds), [1.0, 4.0, 0.1]);
        // A burst that hits one operation of every round leaves the sum alone.
        assert!(floors(&rounds).iter().sum::<f64>() < 1.0 + 5.0 + 0.2);
        assert!(floors(&[]).is_empty());
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly ten beyond it; p95 leaves five.
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert!(percentile(&hundred, 95.0).is_err());
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 95.0), Ok(190.0));
        assert!(percentile(&hundred[..19], 50.0).is_err());
        assert_eq!(percentile(&hundred[..20], 50.0), Ok(10.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&ten), 1.0);
    }

    #[test]
    fn peak_rss_is_measured() {
        assert!(peak_rss_mb() > 0.0);
    }
}
