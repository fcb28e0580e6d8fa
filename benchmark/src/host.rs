//! What the benchmark reads from the host: its shape (stamped on every
//! output), CPU time per thread, peak memory, and allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::Path;
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn stdout_of(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Host shape, toolchain, revision and invocation, as one JSON object.
pub fn stamp_json(seed: u64, flags: &str) -> String {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = read_trimmed("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown);
    // The active THP mode is the bracketed word: "always [madvise] never".
    let thp = read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|s| Some(s.split('[').nth(1)?.split(']').next()?.to_string()))
        .unwrap_or_else(unknown);
    let rustc = stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown);
    // A checkout that is not a git repository has no revision to stamp;
    // the ceiling keeps git from looking for one above the checkout.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent();
    let git_rev = root
        .zip(root.and_then(Path::parent))
        .and_then(|(root, above)| {
            stdout_of(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", above),
            )
        })
        .unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"thp\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \"seed\": {seed}, \"flags\": \"{}\"}}",
        json_escape(&cpu),
        json_escape(&kernel),
        json_escape(&thp),
        json_escape(&rustc),
        json_escape(&git_rev),
        json_escape(flags),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn schedstat_run_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    schedstat_run_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// Nanoseconds every *other* live thread of this process has spent on a
/// CPU: on the socket workload, everything but the generator.
pub fn other_threads_cpu_ns() -> u64 {
    let own = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_os_string()));
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| Some(t.file_name()) != own)
        .filter_map(|t| schedstat_run_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// User-mode CPU time of the whole process in ms (`/proc/self/stat`
/// field 14, in 10 ms clock ticks).
pub fn process_user_ms() -> f64 {
    read_trimmed("/proc/self/stat")
        // The command name may hold spaces; fields are counted after its ')'.
        .and_then(|s| {
            s.rsplit(')')
                .next()?
                .split_whitespace()
                .nth(11)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus two per-thread counters, so the layer rig
/// can report allocations per call and bytes per table entry. Counters
/// are thread-local: the socket workload's two threads never share a
/// cache line through them.
pub struct CountingAlloc;

fn count(allocs: u64, bytes: i64) {
    // `try_with` because the allocator also runs while a thread tears
    // down its locals.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch only
// const-initialised thread-locals without destructors, so they neither
// allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` came from this allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by this thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread has allocated and not yet freed.
pub fn thread_live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_one_json_object_with_the_invocation() {
        let s = stamp_json(7, "--workload \"x\"");
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"seed\": 7") && s.contains("\\\"x\\\""));
        assert!(s.contains("\"nproc\": ") && s.contains("\"rustc\": "));
    }

    #[test]
    fn cpu_and_memory_probes_read_something() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before);
        assert!(peak_rss_mb() > 1.0);
    }
}
