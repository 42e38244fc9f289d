//! End-to-end and per-layer benchmark of the ccdp serving stack.
//!
//! ```text
//! ccdp_perfbench --workload fleet_wire|large_wire|stream_cold \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! the per-layer split, measured from outside the program: timed calls
//! into each layer's public functions plus the series the server exports
//! on `/metrics`. The last stdout line is the result object; the line
//! before it stamps the environment, sample counts and attribution.

mod gen;
mod probes;
mod report;
mod scrape;
mod stats;
mod stream;
mod wire;

use report::Report;

/// What one invocation measures.
pub struct Run {
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop callers: one per core.
    pub clients: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: ccdp_perfbench --workload fleet_wire|large_wire|stream_cold \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| usage(&format!("missing {name}")))
            .clone()
    };
    let workload = flag("--workload");
    let seed: u64 = flag("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
    let seconds: f64 = flag("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds takes a positive number"));
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        seconds,
        trace,
        clients,
    };

    let mut report = Report::default();
    match workload.as_str() {
        "fleet_wire" => wire::run(&wire::fleet(seed), &run, &mut report),
        "large_wire" => wire::run(&wire::large(seed), &run, &mut report),
        "stream_cold" => stream::run(&stream::spec(seed), &run, &mut report),
        other => usage(&format!("unknown workload `{other}`")),
    }
    for p in &report.problems {
        eprintln!("incorrect: {p}");
    }

    let env_or = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    report.print(&[
        ("workload", workload.clone()),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("commit", env_or("CCDP_BENCH_COMMIT")),
        ("source_digest", env_or("CCDP_BENCH_SOURCE_DIGEST")),
        ("rustc", env_or("CCDP_BENCH_RUSTC")),
        ("profile", profile.to_string()),
        ("nproc", clients.to_string()),
    ]);
}
