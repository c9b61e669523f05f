//! Process accounting read from `/proc` (Linux only, like tcpnet's epoll
//! path): memory high-water mark, CPU time per thread, and the filesystem
//! type under the WAL.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI the standard library supports.
const TICKS_PER_SEC: f64 = 100.0;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`), KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

/// Current resident set size (`VmRSS`), KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:").unwrap_or(0)
}

/// `utime + stime` of one `stat` file, seconds. The comm field may hold
/// spaces, so fields are counted from the closing parenthesis.
fn stat_cpu_s(path: &Path) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace();
    // After the comm: state is field 0, utime field 11, stime field 12.
    let utime: f64 = f.nth(11)?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s(Path::new("/proc/self/stat")).unwrap_or(0.0)
}

/// Seconds the hypervisor withheld from this machine's CPUs so far, summed
/// over CPUs (`steal` of the aggregate `cpu` line of `/proc/stat`): time a
/// virtual CPU had work to run and was not running.
pub fn stolen_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_SEC)
}

/// CPU seconds of every live thread, keyed by thread id.
pub fn thread_cpu_s() -> Vec<(u64, f64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid: u64 = e.file_name().to_str()?.parse().ok()?;
        Some((tid, stat_cpu_s(&e.path().join("stat"))?))
    })
    .collect()
}

/// The largest per-thread CPU gain between two [`thread_cpu_s`] readings.
pub fn busiest_thread_s(before: &[(u64, f64)], after: &[(u64, f64)]) -> f64 {
    after
        .iter()
        .map(|(tid, t)| {
            let t0 = before
                .iter()
                .find(|(b, _)| b == tid)
                .map_or(0.0, |(_, t0)| *t0);
            t - t0
        })
        .fold(0.0, f64::max)
}

/// Filesystem type of the mount holding `path`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    fs_type_in(&info, &path)
}

fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <super opts>"
        let (pre, post) = line.split_once(" - ")?;
        let mount = pre.split_whitespace().nth(4)?;
        let fstype = post.split_whitespace().next()?;
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_type_picks_the_longest_mount_prefix() {
        let info = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /data/my\\040dir rw - xfs /dev/vdb rw
";
        assert_eq!(
            fs_type_in(info, Path::new("/root/repo/benchmark/out")).as_deref(),
            Some("ext4")
        );
        assert_eq!(
            fs_type_in(info, Path::new("/dev/shm/x")).as_deref(),
            Some("tmpfs")
        );
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_kb() > 0 && rss_kb() > 0);
        assert!(process_cpu_s() >= 0.0);
        assert!(!thread_cpu_s().is_empty());
        assert!(fs_type(Path::new("/proc")).is_some());
    }

    #[test]
    fn busiest_thread_is_the_largest_gain() {
        let before = vec![(1, 1.0), (2, 5.0)];
        let after = vec![(1, 4.0), (2, 6.0), (3, 0.5)];
        assert_eq!(busiest_thread_s(&before, &after), 3.0);
    }
}
