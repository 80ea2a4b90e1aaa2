//! Result rendering: the metric list, the host stamp and the one-line
//! JSON result the command ends with.

use crate::catalog::unit_of;
use crate::stats::{valid_name, Tail};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (checked against [`valid_name`] on output).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The metrics of one run plus the notes printed beside them.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Free-text notes: sample counts, percentiles, reasons.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a catalogued metric; its unit comes from [`crate::catalog`].
    ///
    /// # Panics
    ///
    /// Panics on a metric the catalogue does not list.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let unit = unit_of(&name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Add a percentile metric with its sample note; a sample too small
    /// for the percentile reports 0 and says why.
    pub fn push_tail(&mut self, name: &str, tail: Option<Tail>) {
        match tail {
            Some(t) if t.sets > 1 => {
                self.note(format!(
                    "{name}: median over {} passes of each pass's p{:.2} ({} samples in all)",
                    t.sets, t.pct, t.count
                ));
                self.push(name, t.value);
            }
            Some(t) => {
                self.note(format!("{name}: p{:.2} of {} samples", t.pct, t.count));
                self.push(name, t.value);
            }
            None => {
                self.note(format!("{name}: too few samples for a percentile"));
                self.push(name, 0.0);
            }
        }
    }

    /// Add a percentile as a note only (a figure that is reported but not
    /// a metric).
    pub fn note_tail(&mut self, name: &str, tail: Option<Tail>, unit: &str) {
        match tail {
            Some(t) if t.sets > 1 => self.note(format!(
                "{name} (not a metric): {:.3} {unit}, median over {} passes of each pass's \
                 p{:.2} ({} samples in all)",
                t.value, t.sets, t.pct, t.count
            )),
            Some(t) => self.note(format!(
                "{name} (not a metric): {:.3} {unit}, p{:.2} of {} samples",
                t.value, t.pct, t.count
            )),
            None => self.note(format!("{name} (not a metric): too few samples")),
        }
    }

    /// Put the metrics in `table` order, adding every metric of `table`
    /// not yet reported as 0 with one note naming them and `why`.
    pub fn complete(&mut self, table: &[(&str, &str, &str)], why: &str) {
        let mut missing = Vec::new();
        for (name, _, _) in table {
            if !self.metrics.iter().any(|m| m.name == *name) {
                missing.push(*name);
                self.push(*name, 0.0);
            }
        }
        if !missing.is_empty() {
            self.note(format!("0 by construction ({why}): {}", missing.join(", ")));
        }
        let pos = |n: &str| table.iter().position(|m| m.0 == n).unwrap_or(usize::MAX);
        self.metrics.sort_by_key(|m| pos(&m.name));
    }
}

/// Host and source identity, printed with every result so paired runs
/// can be attributed.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the engine sources (works without git).
    pub source_digest: String,
    /// CPUs available to this process.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
}

impl Stamp {
    /// Collect the stamp for the repository this benchmark was built in.
    pub fn collect() -> Stamp {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let commit = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Stamp {
            commit,
            source_digest: format!(
                "{:016x}",
                source_digest(&root, &["crates", "src", "Cargo.lock"])
            ),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
        }
    }

    /// The stamp as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"source_digest\": {}, \"nproc\": {}, \"cpu_model\": {}}}",
            json_str(&self.commit),
            json_str(&self.source_digest),
            self.nproc,
            json_str(&self.cpu_model)
        )
    }
}

/// FNV-1a over the paths (relative to `root`) and contents of every
/// `.rs`, `.toml` and `.lock` file under `root`'s `dirs`, in sorted order.
fn source_digest(root: &std::path::Path, dirs: &[&str]) -> u64 {
    fn walk(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if let Ok(rd) = std::fs::read_dir(path) {
                for e in rd.flatten() {
                    walk(&e.path(), out);
                }
            }
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
            out.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            eat(&bytes);
        }
    }
    h
}

/// Reset this process's peak resident set size to its current size
/// (`/proc/self/clear_refs`), so the next [`peak_rss_mb`] covers only
/// what runs after this call. Freed heap is first returned to the system:
/// otherwise the allocator keeps what earlier passes freed resident, and
/// the peak would be the larger of that and this pass's own need.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases free
        // pages of the glibc heap.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

/// JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never expected) render as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name `{}`", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = vec![
            Metric { name: "run_s".into(), value: 1.25, unit: "s" },
            Metric { name: "frames_per_op".into(), value: 3.0, unit: "count" },
        ];
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"run_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"frames_per_op\": {\"value\": 3, \"unit\": \
             \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_refuses_a_bad_name() {
        let m = vec![Metric { name: "bad name".into(), value: 1.0, unit: "s" }];
        let _ = result_line(true, 1, 0, &m);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
