//! Small numeric helpers: percentiles, quiet-host latency, hashing, RSS.

use std::time::Duration;

/// The measured window is cut into this many equal segments, whose
/// medians a run prints: how steady the host was. One more segment of
/// the script runs first, unmeasured: after set-up the CPU takes about
/// two seconds to reach the speed it then holds.
pub const SEGMENTS: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of floats.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency and rate of one measured window, as the client observed
/// them.
pub struct Timing {
    pub p50_us: f64,
    pub p95_us: f64,
    /// Ops per second of the window's wall time.
    pub throughput_ops: f64,
}

/// Per-op latencies (ns, in op order) and the wall time of each of the
/// [`SEGMENTS`] equal slices of the window.
pub fn timing(latencies_ns: &[u64], segment_wall: &[Duration]) -> Timing {
    let per = latencies_ns.len() / segment_wall.len();
    assert!(per > 0, "fewer ops than segments");
    let segment_p50: Vec<f64> = latencies_ns
        .chunks_exact(per)
        .map(|s| percentile_us(s, 50.0))
        .collect();
    println!("segments p50_us {segment_p50:.1?}");
    let wall: Duration = segment_wall.iter().sum();
    Timing {
        p50_us: percentile_us(latencies_ns, 50.0),
        p95_us: percentile_us(latencies_ns, 95.0),
        throughput_ops: latencies_ns.len() as f64 / wall.as_secs_f64(),
    }
}

/// What the script's ops cost when the host is quiet.
pub struct Quiet {
    /// Mean over the ops of the fastest run of each op's group, µs.
    pub mean_us: f64,
    /// 95th percentile over the ops of the same, µs: the dearest
    /// twentieth of the script.
    pub p95_us: f64,
}

/// The host slows single ops down, for a share of the time that drifts
/// over minutes, and never speeds one up (README, "Noise"). An op is
/// therefore charged the fastest latency among the ops of its group,
/// which repeat its work (`groups[i]` is the group of op `i`).
pub fn quiet(latencies_ns: &[u64], groups: &[u32]) -> Quiet {
    assert_eq!(latencies_ns.len(), groups.len(), "one group per op");
    let mut fastest = vec![u64::MAX; groups.iter().max().map_or(0, |g| *g as usize + 1)];
    for (ns, g) in latencies_ns.iter().zip(groups) {
        let slot = &mut fastest[*g as usize];
        *slot = (*slot).min(*ns);
    }
    let mut charged: Vec<u64> = groups.iter().map(|g| fastest[*g as usize]).collect();
    charged.sort_unstable();
    Quiet {
        mean_us: charged.iter().sum::<u64>() as f64 / charged.len() as f64 / 1e3,
        p95_us: percentile(&charged, 95.0) as f64 / 1e3,
    }
}

/// A percentile of latencies in any order, µs.
pub fn percentile_us(latencies_ns: &[u64], p: f64) -> f64 {
    let mut s = latencies_ns.to_vec();
    s.sort_unstable();
    percentile(&s, p) as f64 / 1e3
}

/// FNV-1a, 64 bit: the script hash the determinism self-test compares.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A `kB` line of `/proc/self/status`, MB.
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} in /proc/self/status"));
    kb / 1024.0
}

/// The memory the program under test adds to the process: the rise of
/// the peak resident set (`VmHWM`) over what was resident when
/// [`MemoryMark::before_setup`] was called. The benchmark's own data
/// (the generated cells, the copy of them the program is handed, the
/// script, the oracle, room for the window's results) is resident by
/// then, and what the benchmark keeps stays allocated until `rise_mb`
/// is read, so it cancels out.
pub struct MemoryMark {
    resident_mb: f64,
}

impl MemoryMark {
    pub fn before_setup() -> Self {
        // Sets `VmHWM` back to the current resident set, so that a peak
        // reached while making the inputs does not hide the program's.
        // Where the kernel refuses, that earlier peak is kept: nothing
        // else changes.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        Self {
            resident_mb: status_mb("VmRSS:"),
        }
    }

    pub fn rise_mb(&self) -> f64 {
        status_mb("VmHWM:") - self.resident_mb
    }
}
