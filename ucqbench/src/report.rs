//! Named metrics, the host fingerprint, and the one-line JSON result.

use std::process::{Command, Stdio};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Prints one metric per line, then the JSON result line, which is always
/// the last line of standard output.
pub fn emit(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Every digit `f64` carries; JSON has no NaN or infinity, so those
/// become `null` (and the caller marks the run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    let mut c = Command::new(cmd);
    c.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    // Look for a git repository here only, never in a directory above.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match c.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// The host facts numbers from different machines or sessions need
/// beside them.
pub fn fingerprint() -> String {
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={} available_parallelism={} rustc=\"{}\" git_rev={} UCQ_PAR_THREADS={}",
        first_line_of("nproc", &[]),
        par,
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
        std::env::var("UCQ_PAR_THREADS").unwrap_or_else(|_| "unset".to_string()),
    )
}
