//! Order statistics and the result line.

use mps::serde::Value;

/// Nearest-rank percentile `p` (0–100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Samples strictly above the nearest-rank `p` percentile's position.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// An ordered set of named metrics with units.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v = if value.is_finite() { *value } else { 0.0 };
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("value".to_string(), Value::F64(v)),
                            ("unit".to_string(), Value::Str((*unit).to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last stdout line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    mps::json::write(&Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics.to_value()),
    ]))
}
