//! What `/proc` knows about a process and the host: peak memory, CPU time
//! and the fingerprint stamped on every report.

use crate::json::Json;

/// Linux reports process times in `USER_HZ` ticks, and `USER_HZ` is 100 on
/// every architecture this repository builds for.
const TICK_MS: f64 = 10.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; `None` once it is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = read(&format!("/proc/{pid}/status"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time `pid` has used so far, in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = read(&format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the numbered fields start after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_MS)
}

pub fn own_peak_rss_mib() -> f64 {
    peak_rss_mib(std::process::id()).expect("/proc/self/status has VmHWM")
}

pub fn own_cpu_ms() -> f64 {
    cpu_ms(std::process::id()).expect("/proc/self/stat is readable")
}

/// `nproc`, CPU model and kernel: numbers from two hosts that differ here
/// are not comparable.
pub fn host_fingerprint() -> Json {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
    ])
}
