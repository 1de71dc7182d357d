//! The benchmark's own arithmetic: medians, quartiles, percentiles with a
//! sample-count rule, sample thinning, and the open-loop slice schedule.

/// Most latency samples one run keeps; beyond it every k-th sample is taken.
pub const MAX_LATENCY_SAMPLES: usize = 100_000;

/// A percentile is reported only with this many samples beyond it.
const MIN_TAIL_SAMPLES: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the driver uses that function, so `--self-check` must
/// agree with it to the last digit. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it — a tail estimated from a handful of samples is
/// noise, and noise must not be gated.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.len() as f64 * (1.0 - p / 100.0) < MIN_TAIL_SAMPLES {
        return None;
    }
    nearest_rank(values, p)
}

/// The `p`-th percentile (nearest rank) of however many samples there are.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Keeps every k-th sample so at most `cap` remain (k = ⌈len / cap⌉).
pub fn thin(values: Vec<f64>, cap: usize) -> Vec<f64> {
    let k = values.len().div_ceil(cap.max(1)).max(1);
    if k == 1 {
        return values;
    }
    values.into_iter().step_by(k).collect()
}

/// An open-loop schedule for one paced pass: slice `i` of `slice_bytes`
/// bytes is due at `first_due_ns + i × interval_ns` (nanoseconds on the
/// run's clock). Fixed before the pass starts, never adapted to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSchedule {
    pub first_due_ns: u64,
    pub interval_ns: u64,
    pub slice_bytes: u64,
}

impl SliceSchedule {
    /// The schedule that offers `mib_s` MiB/s in `slice_bytes` slices.
    pub fn at_rate(first_due_ns: u64, slice_bytes: u64, mib_s: f64) -> SliceSchedule {
        let interval_ns = (slice_bytes as f64 / (mib_s * crate::MIB) * 1e9).round() as u64;
        SliceSchedule { first_due_ns, interval_ns, slice_bytes }
    }

    pub fn due_ns(&self, slice: u64) -> u64 {
        self.first_due_ns + slice * self.interval_ns
    }

    /// When the last byte of the span ending at `span_end` (exclusive) was
    /// due: a match can not be known before its closing tag was sent, so its
    /// latency is timed from that slice's due time — due, not sent, so a
    /// stall the server causes is charged to the matches behind it.
    pub fn due_of_span_end_ns(&self, span_end: u64) -> u64 {
        self.due_ns(span_end.saturating_sub(1) / self.slice_bytes)
    }

    /// How long sending `bytes` takes on this schedule.
    pub fn duration_ns(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.slice_bytes) * self.interval_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), Some([12.5, 30.0, 70.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None, "199 × 5% < 10 samples in the tail");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn thinning_takes_every_kth_sample_under_the_cap() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(thin(v.clone(), 10), v);
        assert_eq!(thin(v.clone(), 4), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(thin(v, 5), vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn schedule_spaces_slices_by_rate_and_attributes_spans_to_slices() {
        // 16 KiB slices at 16 MiB/s: one slice per 1/1024 s.
        let s = SliceSchedule::at_rate(1_000, 16 << 10, 16.0);
        assert_eq!(s.interval_ns, 976_563);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 1_000 + 3 * 976_563);
        // A span whose last byte is the last byte of slice 0 is due with
        // slice 0; one byte more and it waits for slice 1.
        assert_eq!(s.due_of_span_end_ns(16 << 10), s.due_ns(0));
        assert_eq!(s.due_of_span_end_ns((16 << 10) + 1), s.due_ns(1));
        assert_eq!(s.due_of_span_end_ns(0), s.due_ns(0));
        // A 40 KiB document is three slices long.
        assert_eq!(s.duration_ns(40 << 10), 3 * 976_563);
    }
}
