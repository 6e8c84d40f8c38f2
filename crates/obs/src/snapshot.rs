//! Point-in-time metric readings: windowed deltas and deterministic
//! Prometheus text-format exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A merged point-in-time reading of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sorted bucket upper bounds (inclusive).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the `+Inf` overflow.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of the observed values by
    /// linear interpolation inside the covering bucket, in the unit the
    /// histogram observed. Returns `None` when empty. Values in the
    /// overflow bucket are attributed to the last finite bound (the
    /// estimate saturates there).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let before = cumulative as f64;
            cumulative += c;
            if (cumulative as f64) >= rank && c > 0 {
                let upper = match self.bounds.get(i) {
                    Some(&b) => b as f64,
                    None => return Some(*self.bounds.last()? as f64),
                };
                let lower = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let frac = ((rank - before) / c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        self.bounds.last().map(|&b| b as f64)
    }

    /// Mean of the observed values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Bucket-wise difference `self - earlier` (saturating). Meaningful
    /// only for two snapshots of the same histogram; mismatched bounds
    /// return `self` unchanged.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        if self.bounds != earlier.bounds || self.counts.len() != earlier.counts.len() {
            return self.clone();
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

/// A point-in-time reading of a whole
/// [`MetricsRegistry`](crate::MetricsRegistry). Counter values are
/// **lifetime totals** since registry creation; subtract two snapshots
/// with [`delta`](Self::delta) for a windowed reading.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram readings by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram reading by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The windowed reading `self - earlier`: counters and histogram
    /// buckets subtract (saturating; a counter absent from `earlier`
    /// subtracts zero), gauges keep `self`'s last-value-wins reading.
    /// This is the supported way to measure a serving window — registry
    /// counters themselves are never reset.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        match earlier.histograms.get(k) {
                            Some(e) => v.delta(e),
                            None => v.clone(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Render the Prometheus text exposition format, deterministically:
    /// counters, then gauges, then histograms, each sorted by name, one
    /// `# TYPE` line per metric family (labeled series like
    /// `name{size="4"}` group under the family `name`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, value) in &self.counters {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} counter");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    /// `delta` gives windowed counter/histogram readings; gauges keep the
    /// later value. Counters absent from the earlier snapshot pass through.
    #[test]
    fn delta_windows_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total");
        let g = reg.gauge("depth");
        let h = reg.histogram_with_bounds("lat_us", &[10, 100]);
        c.add(5);
        g.set(3);
        h.observe(7);
        let earlier = reg.snapshot();
        c.add(2);
        g.set(9);
        h.observe(50);
        h.observe(5000);
        reg.counter("late_total").inc();
        let later = reg.snapshot();
        let win = later.delta(&earlier);
        assert_eq!(win.counter("jobs_total"), 2);
        assert_eq!(win.counter("late_total"), 1);
        assert_eq!(win.gauge("depth"), 9);
        let hd = win.histogram("lat_us").unwrap();
        assert_eq!(hd.count, 2);
        assert_eq!(hd.counts, vec![0, 1, 1]);
        // the full later snapshot still holds lifetime totals
        assert_eq!(later.counter("jobs_total"), 7);
    }

    /// Exposition output is deterministic: registration order does not
    /// matter, names render sorted, and rendering twice is identical.
    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let reg1 = MetricsRegistry::new();
        reg1.counter("b_total").inc();
        reg1.counter("a_total").add(2);
        reg1.gauge("z_gauge").set(4);
        reg1.histogram_with_bounds("m_us", &[1, 2]).observe(2);

        let reg2 = MetricsRegistry::new();
        reg2.histogram_with_bounds("m_us", &[1, 2]).observe(2);
        reg2.gauge("z_gauge").set(4);
        reg2.counter("a_total").add(2);
        reg2.counter("b_total").inc();

        let r1 = reg1.snapshot().render_prometheus();
        let r2 = reg2.snapshot().render_prometheus();
        assert_eq!(r1, r2);
        assert_eq!(r1, reg1.snapshot().render_prometheus());
        let names: Vec<&str> = r1
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        // within each section (counters, gauges, histogram series) names
        // are sorted; the two counters lead in order
        assert_eq!(&names[..2], &["a_total", "b_total"]);
        assert!(r1.contains("# TYPE m_us histogram"));
        assert!(r1.contains("m_us_bucket{le=\"+Inf\"} 1"));
    }

    /// Labeled counter series group under one `# TYPE` family line.
    #[test]
    fn labeled_counters_share_a_family() {
        let reg = MetricsRegistry::new();
        reg.counter("batches_total{size=\"1\"}").inc();
        reg.counter("batches_total{size=\"4\"}").add(3);
        let text = reg.snapshot().render_prometheus();
        assert_eq!(text.matches("# TYPE batches_total counter").count(), 1);
        assert!(text.contains("batches_total{size=\"1\"} 1"));
        assert!(text.contains("batches_total{size=\"4\"} 3"));
    }

    /// Quantile estimates interpolate within the covering bucket and
    /// saturate at the last finite bound.
    #[test]
    fn quantile_interpolates() {
        let h = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![10, 0, 0],
            sum: 50,
            count: 10,
        };
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        let overflow = HistogramSnapshot {
            bounds: vec![10, 100],
            counts: vec![0, 0, 5],
            sum: 5000,
            count: 5,
        };
        assert_eq!(overflow.quantile(0.5), Some(100.0));
        let empty = HistogramSnapshot {
            bounds: vec![10],
            counts: vec![0, 0],
            sum: 0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }
}
