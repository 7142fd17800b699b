//! Samples, quartiles and the metric records the benchmark prints.

use deltapath::telemetry::Json;

/// `(q1, median, q3)` of `values`, by the same exclusive-method quartiles as
/// Python's `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            // CPython's algorithm verbatim, including its extrapolation
            // beyond the extremes for very small samples.
            let m = len + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// One reported metric: its value (the median of its samples), unit and
/// the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// Whether a bound in `BENCHMARK.json` gates this metric. Reference
    /// rows and per-layer metrics are informational.
    pub gated: bool,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn sampled(name: &str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            samples,
            gated: false,
        }
    }

    /// A metric with one exact value (a count or a derived ratio).
    pub fn value(name: &str, unit: &'static str, value: f64) -> Self {
        Self::sampled(name, unit, vec![value])
    }

    pub fn gated(mut self) -> Self {
        self.gated = true;
        self
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// The `{"value", "unit"}` object of the result line.
    pub fn result_json(&self) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Float(self.median())),
            ("unit".into(), Json::Str(self.unit.into())),
        ])
    }

    /// The self-describing record of the report file.
    pub fn report_json(&self) -> Json {
        let (q1, med, q3) = quartiles(&self.samples);
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unit".into(), Json::Str(self.unit.into())),
            ("gated".into(), Json::Bool(self.gated)),
            ("samples".into(), Json::from_u64(self.samples.len() as u64)),
            ("median".into(), Json::Float(med)),
            ("q1".into(), Json::Float(q1)),
            ("q3".into(), Json::Float(q3)),
            (
                "values".into(),
                Json::Arr(self.samples.iter().map(|&v| Json::Float(v)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(
            quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]),
            (2.0, 4.0, 7.0)
        );
        assert_eq!(median(&[3.0]), 3.0);
    }
}
