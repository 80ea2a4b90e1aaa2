//! Per-thread CPU time from `/proc/self/task/*/stat` (Linux).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, 100 on
/// every mainstream Linux build).
pub const CLOCK_TICKS: f64 = 100.0;

/// One thread's name and CPU time so far, in clock ticks.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u64,
    /// `comm` (thread name, at most 15 bytes).
    pub name: String,
    /// `utime + stime`, clock ticks.
    pub ticks: u64,
}

/// CPU time of every thread of this process right now.
pub fn threads() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else { continue };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else { continue };
        // `pid (comm) state ...`: comm may hold spaces, so split at the
        // last parenthesis.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else { continue };
        let name = stat[open + 1..close].to_string();
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let num = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        // After `)`: state is field 0, utime 11, stime 12.
        out.push(ThreadCpu { tid, name, ticks: num(11) + num(12) });
    }
    out
}

/// CPU seconds of the whole process, every thread included (exited
/// ones too): `utime + stime` of `/proc/self/stat`, 10 ms resolution.
/// Unlike wall time it excludes time the host took the CPU away (steal)
/// and time the process waited to be scheduled.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    let Some(close) = stat.rfind(')') else { return 0.0 };
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let num = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (num(11) + num(12)) / CLOCK_TICKS
}

/// Host steal time so far, in seconds summed over every CPU (`steal`
/// column of `/proc/stat`): time the hypervisor held a virtual CPU that
/// had work to run.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()))
        })
        .map_or(0.0, |t| t / CLOCK_TICKS)
}

/// The calling thread's id.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|n| n.to_string_lossy().parse().ok()))
        .unwrap_or(0)
}

/// Samples thread CPU every few milliseconds on a thread of its own, so
/// threads that exit before the end (scoped shard threads) are still
/// counted with their last observed time.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<BTreeMap<u64, ThreadCpu>>>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl Sampler {
    /// Start sampling.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(BTreeMap::new()));
        let (s, m) = (Arc::clone(&stop), Arc::clone(&seen));
        let handle = std::thread::spawn(move || {
            let me = current_tid();
            loop {
                let done = s.load(Ordering::SeqCst);
                let now = threads();
                let mut map = m.lock().expect("sampler map lock");
                for t in now {
                    map.insert(t.tid, t);
                }
                drop(map);
                if done {
                    return me;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        Sampler { stop, seen, handle: Some(handle) }
    }

    /// Stop sampling; every thread seen except the sampler itself and
    /// `exclude`.
    pub fn finish(mut self, exclude: &[u64]) -> Vec<ThreadCpu> {
        self.stop.store(true, Ordering::SeqCst);
        let me = self.handle.take().map_or(0, |h| h.join().expect("sampler thread"));
        let map = self.seen.lock().expect("sampler map lock");
        map.values().filter(|t| t.tid != me && !exclude.contains(&t.tid)).cloned().collect()
    }
}

/// `max ÷ mean` of the given CPU times (1 for a perfectly even split;
/// 0 when nothing ran).
pub fn imbalance(ticks: &[u64]) -> f64 {
    let busy: Vec<f64> = ticks.iter().map(|&t| t as f64).collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    busy.iter().copied().fold(0.0, f64::max) / mean
}
