//! What one run prints: a stamp line (environment, sample counts, the
//! per-layer attribution table) and, last, the result line.

use std::fmt::Write as _;

#[derive(Default)]
pub struct Report {
    /// Operations attempted: ingests, warm-up answers and measured requests
    /// or mutations.
    pub attempted: u64,
    /// Hard failures: wrong or missing answers, unexpected refusals, failed
    /// audit replays.
    pub failed: u64,
    /// Why the run is not correct, if it is not; printed to stderr.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    /// Extra fields of the stamp line (sample counts, attribution).
    notes: Vec<(String, String)>,
}

impl Report {
    /// Records a hard failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints the stamp line and the result line to stdout.
    pub fn print(&self, env: &[(&str, String)]) {
        let mut stamp = String::from("{\"stamp\": {");
        for (i, (k, v)) in env.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(stamp, "{sep}\"{k}\": {}", quote(v));
        }
        for (k, json) in &self.notes {
            let _ = write!(stamp, ", \"{k}\": {json}");
        }
        stamp.push_str("}}");
        println!("{stamp}");

        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// A JSON string literal (the stamp's values are plain ASCII, but quote
/// marks and backslashes from `rustc -V` or paths must not break the line).
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object of named numbers, in the given order.
pub fn object(fields: &[(&str, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { -1.0 }))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
