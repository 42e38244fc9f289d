//! A reader for the `GET /metrics` text exposition.
//!
//! The benchmark reads the program's phase, cache, budget and queue splits
//! from the series the server already exports, by name, so it needs no
//! hooks inside the crates.

use crate::report::Report;

/// One parsed sample line: `name{k="v",...} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed scrape.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// Parses an exposition body. Comment lines (`# TYPE`, `# EOF`) and
    /// blank lines are skipped; a malformed sample line is an error.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line).ok_or_else(|| format!("malformed line `{line}`"))?);
        }
        Ok(Scrape { samples })
    }

    /// The value of the series with exactly these labels, 0 when absent
    /// (counters that never fired are not exported).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map_or(0.0, |s| s.value)
    }

    /// `ccdp_exec_phase_seconds_total{phase=…}` and friends.
    pub fn phase(&self, name: &str, phase: &str) -> f64 {
        self.get(name, &[("phase", phase)])
    }

    /// This scrape minus an earlier one, for one series.
    pub fn delta(&self, earlier: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.get(name, labels) - earlier.get(name, labels)
    }
}

/// The series every workload reads the same way from two scrapes: cache
/// counters over the measured window, phase costs over the server's life.
pub struct Common {
    hit_rate: f64,
    misses: f64,
    invalidations: f64,
    family_partition_s: f64,
    true_value_s: f64,
    family_lp_s: f64,
    pub lp_ms_per_estimate: f64,
    pub mechanisms_s: f64,
    general_fallback: f64,
    micro_closed_form: f64,
    dedup_hits: f64,
    charges: f64,
    refusals: f64,
}

impl Common {
    pub fn read(before: &Scrape, after: &Scrape) -> Self {
        const SECONDS: &str = "ccdp_exec_phase_seconds_total";
        const CALLS: &str = "ccdp_exec_phase_invocations_total";
        const COUNT: &str = "ccdp_exec_phase_count_total";
        let hits = after.delta(before, "ccdp_core_cache_hits_total", &[]);
        let misses = after.delta(before, "ccdp_core_cache_misses_total", &[]);
        // Family phases run once per evaluation (cache miss), release phases
        // once per estimate; both over everything the server has answered.
        let evaluations = after.get("ccdp_core_cache_misses_total", &[]).max(1.0);
        let estimates = after.phase(CALLS, "release/mechanisms").max(1.0);
        let per = |phase, n: f64| after.phase(SECONDS, phase) / n;
        // Small graphs skip the partition and solve each Δ's LP on the
        // whole graph (`family/direct`); either way it is LP time.
        let lp = |n: f64| per("family/lp", n) + per("family/direct", n);
        Common {
            hit_rate: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            misses,
            invalidations: after.delta(before, "ccdp_core_cache_invalidations_total", &[]),
            family_partition_s: per("family/partition", evaluations),
            true_value_s: per(
                "release/true-value",
                after.phase(CALLS, "release/true-value").max(1.0),
            ),
            family_lp_s: lp(evaluations),
            lp_ms_per_estimate: lp(estimates) * 1e3,
            mechanisms_s: per("release/mechanisms", estimates),
            general_fallback: after.phase(COUNT, "solve/general-fallback"),
            micro_closed_form: after.phase(COUNT, "solve/micro-closed-form"),
            dedup_hits: after.phase(COUNT, "solve/dedup-hits"),
            charges: after.get("ccdp_dp_budget_charges_total", &[]),
            refusals: after.get("ccdp_dp_budget_refusals_total", &[]),
        }
    }

    pub fn emit(&self, report: &mut Report) {
        report.metric("core.cache_hit_rate", self.hit_rate, "ratio");
        report.metric("core.cache_misses", self.misses, "count");
        report.metric("core.cache_invalidations", self.invalidations, "count");
        report.metric("core.family_partition_s", self.family_partition_s, "s");
        report.metric("core.true_value_s", self.true_value_s, "s");
        report.metric("lp.family_lp_s", self.family_lp_s, "s");
        report.metric("lp.general_fallback", self.general_fallback, "count");
        report.metric("lp.micro_closed_form", self.micro_closed_form, "count");
        report.metric("lp.dedup_hits", self.dedup_hits, "count");
        report.metric("dp.mechanisms_s", self.mechanisms_s, "s");
        report.metric("dp.budget_charges", self.charges, "count");
        report.metric("dp.budget_refusals", self.refusals, "count");
    }
}

fn parse_line(line: &str) -> Option<Sample> {
    let (key, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match key.split_once('{') {
        None => (key, Vec::new()),
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
    };
    if name.is_empty() {
        return None;
    }
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k="v",k2="v\"2"` → pairs, honouring `\\` and `\"` escapes.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return if labels.is_empty() && body.is_empty() {
                Some(labels)
            } else {
                None
            };
        }
        if chars.next()? != '"' {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '\\' => value.push(chars.next()?),
                '"' => break,
                c => value.push(c),
            }
        }
        labels.push((key.trim().to_string(), value));
        match chars.next() {
            None => return Some(labels),
            Some(',') => continue,
            Some(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "\
# TYPE ccdp_core_cache_hits_total counter
ccdp_core_cache_hits_total 1234
# TYPE ccdp_exec_phase_count_total counter
ccdp_exec_phase_count_total{phase=\"solve/general-fallback\"} 60
ccdp_exec_phase_count_total{phase=\"solve/micro-closed-form\"} 119166
# TYPE ccdp_exec_phase_seconds_total counter
ccdp_exec_phase_seconds_total{phase=\"family/lp\"} 1.092971998
ccdp_exec_phase_seconds_total{phase=\"release/mechanisms\"} 0.000147946
# TYPE ccdp_serve_latency_seconds summary
ccdp_serve_latency_seconds{quantile=\"0.5\"} 0.057344
ccdp_serve_latency_seconds{quantile=\"0.9\"} 0.114688
ccdp_serve_latency_seconds{quantile=\"0.99\"} 0.12288
ccdp_serve_latency_seconds_count 20
ccdp_serve_latency_seconds_sum 1.406815154
ccdp_serve_budget_spent_total{tenant=\"a\\\"b\"} 2.5
# EOF
";

    #[test]
    fn reads_summary_quantiles_count_and_sum() {
        let s = Scrape::parse(EXPOSITION).unwrap();
        let q = |q| s.get("ccdp_serve_latency_seconds", &[("quantile", q)]);
        assert_eq!(q("0.5"), 0.057344);
        assert_eq!(q("0.9"), 0.114688);
        assert_eq!(q("0.99"), 0.12288);
        assert_eq!(s.get("ccdp_serve_latency_seconds_count", &[]), 20.0);
        assert_eq!(s.get("ccdp_serve_latency_seconds_sum", &[]), 1.406815154);
        // Unlabelled lookup does not match the labelled quantile series.
        assert_eq!(s.get("ccdp_serve_latency_seconds", &[]), 0.0);
    }

    #[test]
    fn reads_phase_series_by_label() {
        let s = Scrape::parse(EXPOSITION).unwrap();
        assert_eq!(
            s.phase("ccdp_exec_phase_seconds_total", "family/lp"),
            1.092971998
        );
        assert_eq!(
            s.phase("ccdp_exec_phase_count_total", "solve/micro-closed-form"),
            119166.0
        );
        assert_eq!(
            s.phase("ccdp_exec_phase_count_total", "solve/dedup-hits"),
            0.0
        );
        assert_eq!(s.get("ccdp_core_cache_hits_total", &[]), 1234.0);
    }

    #[test]
    fn honours_label_escapes_and_deltas() {
        let s = Scrape::parse(EXPOSITION).unwrap();
        assert_eq!(
            s.get("ccdp_serve_budget_spent_total", &[("tenant", "a\"b")]),
            2.5
        );
        let earlier = Scrape::parse("ccdp_core_cache_hits_total 1000\n").unwrap();
        assert_eq!(s.delta(&earlier, "ccdp_core_cache_hits_total", &[]), 234.0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Scrape::parse("ccdp_x_total\n").is_err());
        assert!(Scrape::parse("ccdp_x_total{phase=\"a\" 1\n").is_err());
        assert!(Scrape::parse("ccdp_x_total{phase=a} 1\n").is_err());
        assert!(Scrape::parse("ccdp_x_total one\n").is_err());
    }
}
