//! Metric records and the two output formats: aligned text lines for
//! people and `check.sh`, hand-written JSON for the driver and the trace
//! file (no serializer dependency is available offline).

/// Which clock a number was read from; decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: deterministic per seed, compared exactly.
    Virt,
    /// A count made by the program: deterministic per seed.
    Count,
    /// Wall time or memory of the simulator on this machine: noisy.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virt => "virt",
            Clock::Count => "count",
            Clock::Host => "host",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, clock: Clock, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            clock,
            value,
        }
    }
}

/// A JSON number with all its digits; non-finite values (which JSON
/// cannot carry) become `null` so a consumer fails loudly.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-rendered values.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// `{"name": {"value": v, "unit": "u"}, …}` — the driver's metric shape.
pub fn metrics_object(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|m| {
        (
            m.name.as_str(),
            object([("value", num(m.value)), ("unit", string(m.unit))]),
        )
    }))
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_object(metrics)),
    ])
}

/// One text line per metric: `<kind> <name> <value> <unit> <clock>`.
pub fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{kind} {:<40} {:>20} {:<12} {}",
            m.name,
            num(m.value),
            m.unit,
            m.clock.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let m = [Metric::new("latency_ms", "ms", Clock::Virt, 1.2034)];
        assert_eq!(
            result_line(true, 1000, 0, &m),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_never_use_an_exponent() {
        assert_eq!(num(0.000000123), "0.000000123");
        assert_eq!(num(12345678.9), "12345678.9");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
    }
}
