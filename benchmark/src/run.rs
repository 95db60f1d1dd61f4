//! End-to-end measurement: the real `repro` binary, one child at a time,
//! timed from outside.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use serde::Deserialize;

use crate::clock::Clock;
use crate::procfs;
use crate::traced::CallTrace;
use crate::workload::{scale_arg, Call, Step};

/// How often a running child's peak resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(10);

/// Where the benchmark runs `repro` and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `repro` executable.
    pub repro: PathBuf,
    /// The benchmark executable, re-run with `--traced-call` for each
    /// traced call.
    pub benchmark: PathBuf,
    /// Scratch directory for exports, checkpoint logs and captured output;
    /// emptied after every repetition.
    pub scratch: PathBuf,
    /// `--jobs`, `--fig-jobs` and `--export-jobs` of every call.
    pub jobs: usize,
}

impl Env {
    fn export_path(&self) -> PathBuf {
        self.scratch.join("export.json")
    }

    fn integrity_path(&self) -> PathBuf {
        self.scratch.join("export.json.integrity.json")
    }

    fn timings_path(&self) -> PathBuf {
        self.scratch.join("timings.json")
    }

    /// Empty the scratch directory (creating it if needed).
    pub fn reset_scratch(&self) -> io::Result<()> {
        match fs::remove_dir_all(&self.scratch) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        fs::create_dir_all(&self.scratch)
    }
}

/// Build `repro` from the repository this benchmark sits in, into
/// `target_dir`, and return its path. Cargo makes this a no-op when the
/// binary is up to date.
pub fn build_repro(target_dir: &Path) -> io::Result<PathBuf> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "wheels-bench", "--bin", "repro"])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building repro from {} failed: {status}",
            manifest.display()
        )));
    }
    Ok(target_dir.join("release").join("repro"))
}

/// The phase splits `repro --timings-json` reports that the benchmark
/// reads.
#[derive(Debug, Deserialize)]
struct Timings {
    campaign_s: f64,
    export_s: f64,
    kpi_samples: u64,
}

/// One measured `repro` call.
#[derive(Debug, Clone, Default)]
pub struct CallRun {
    /// The calibration kernel's time just before the call.
    pub kernel_s: f64,
    /// The call exited 0.
    pub exit_ok: bool,
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// User + system CPU time of the child.
    pub cpu_s: f64,
    /// Highest sampled `VmHWM`, MB.
    pub peak_rss_mb: f64,
    /// `repro`'s campaign phase.
    pub campaign_s: f64,
    /// `repro`'s export phase.
    pub export_s: f64,
    /// KPI samples in the campaign's dataset.
    pub kpi_samples: u64,
    /// FNV-1a of the call's stdout.
    pub stdout_digest: u64,
    /// FNV-1a of the export and its integrity report, for export calls.
    pub export_digest: Option<u64>,
}

/// 64-bit FNV-1a, continued from `h` over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the concatenated contents of `paths`, read in bounded
/// chunks.
pub fn digest_files(paths: &[PathBuf]) -> io::Result<u64> {
    let mut h = FNV_BASIS;
    let mut buf = vec![0u8; 1 << 20];
    for path in paths {
        let mut f = File::open(path)?;
        loop {
            let n = f.read(&mut buf)?;
            let Some(chunk) = buf.get(..n).filter(|c| !c.is_empty()) else {
                break;
            };
            h = fnv1a(h, chunk);
        }
    }
    Ok(h)
}

/// Open a scratch file for a child's output. Captured output is evidence
/// for the checks, not a published artifact, so it needs no atomic write.
fn capture_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// `repro` arguments of `call`.
fn repro_args(env: &Env, call: &Call) -> Vec<String> {
    let jobs = env.jobs.to_string();
    let mut args: Vec<String> = [
        "--scale",
        scale_arg(call.scale),
        "--seed",
        &call.seed.to_string(),
        "--jobs",
        &jobs,
        "--fig-jobs",
        &jobs,
        "--export-jobs",
        &jobs,
        "--fail-fast",
    ]
    .map(String::from)
    .to_vec();
    if let Some(sc) = call.scenario {
        args.extend(["--scenario".to_string(), sc.to_string()]);
    }
    let path = |p: PathBuf| p.to_string_lossy().into_owned();
    args.extend(["--timings-json".to_string(), path(env.timings_path())]);
    match call.step {
        Step::Plain => {}
        Step::Export => args.extend(["--export".to_string(), path(env.export_path())]),
        Step::CheckpointFresh => args.extend([
            "--checkpoint-dir".to_string(),
            path(call.checkpoint_dir(&env.scratch)),
        ]),
        Step::CheckpointResume => args.extend([
            "--checkpoint-dir".to_string(),
            path(call.checkpoint_dir(&env.scratch)),
            "--resume".to_string(),
        ]),
    }
    args.push(call.artifacts.to_string());
    args
}

/// Run `call` as a child process and measure it: wall time around the
/// child, CPU time from this process's `cutime + cstime`, peak resident
/// set by polling the child's `VmHWM` on a second thread.
pub fn run_call(env: &Env, call: &Call) -> io::Result<CallRun> {
    let stdout_path = env.scratch.join("stdout.txt");
    let stderr_path = env.scratch.join("stderr.txt");
    match fs::remove_file(env.timings_path()) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let cpu0 = procfs::children_cpu_s()?;
    let clock = Clock::start();
    let mut child = Command::new(&env.repro)
        .args(repro_args(env, call))
        .stdin(Stdio::null())
        .stdout(capture_file(&stdout_path)?)
        .stderr(capture_file(&stderr_path)?)
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak_kb = AtomicU64::new(0);
    let (status, wall_s) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = procfs::vm_hwm_kb(pid) {
                    peak_kb.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        let status = child.wait();
        let wall_s = clock.seconds();
        done.store(true, Ordering::SeqCst);
        (status, wall_s)
    });
    let status = status?;
    let cpu_s = procfs::children_cpu_s()? - cpu0;
    let mut run = CallRun {
        exit_ok: status.success(),
        wall_s,
        cpu_s,
        peak_rss_mb: peak_kb.load(Ordering::Relaxed) as f64 * 1024.0 / 1e6,
        stdout_digest: digest_files(&[stdout_path])?,
        ..CallRun::default()
    };
    if !run.exit_ok {
        let stderr = fs::read_to_string(&stderr_path).unwrap_or_default();
        eprintln!("repro {call:?} failed ({status}):\n{stderr}");
        return Ok(run);
    }
    let timings: Timings = serde_json::from_str(&fs::read_to_string(env.timings_path())?)
        .map_err(|e| io::Error::other(format!("repro timings: {e}")))?;
    run.campaign_s = timings.campaign_s;
    run.export_s = timings.export_s;
    run.kpi_samples = timings.kpi_samples;
    if call.step == Step::Export {
        let files = [env.export_path(), env.integrity_path()];
        run.export_digest = Some(digest_files(&files)?);
        for f in files {
            fs::remove_file(f)?;
        }
    }
    if call.step == Step::CheckpointResume {
        // The log has been read back; later calls should not find it in
        // the page cache.
        fs::remove_dir_all(call.checkpoint_dir(&env.scratch))?;
    }
    Ok(run)
}

/// Run the calibration kernel on `threads` threads in a fresh child
/// benchmark process (`--kernel THREADS`) and return its time in seconds.
pub fn run_kernel(env: &Env, threads: usize) -> io::Result<f64> {
    let out = Command::new(&env.benchmark)
        .args(["--kernel", &threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|s| out.status.success() && *s > 0.0)
        .ok_or_else(|| io::Error::other(format!("calibration kernel failed: {}", out.status)))
}

/// Replay `call` traced in a child benchmark process
/// (`--traced-call TOKEN --scratch DIR`) and return its trace with the
/// child's CPU seconds.
pub fn run_traced_call(env: &Env, call: &Call) -> io::Result<(CallTrace, f64)> {
    let cpu0 = procfs::children_cpu_s()?;
    let out = Command::new(&env.benchmark)
        .args(["--traced-call", &call.token(), "--scratch"])
        .arg(&env.scratch)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let cpu_s = procfs::children_cpu_s()? - cpu0;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "traced call {} failed: {}",
            call.token(),
            out.status
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trace = serde_json::from_str(stdout.trim_end())
        .map_err(|e| io::Error::other(format!("traced call {}: {e}", call.token())))?;
    Ok((trace, cpu_s))
}

/// One repetition of a workload: its calls in order, each just after a
/// calibration kernel run on as many threads as the call has jobs, then
/// the scratch directory emptied so no output outlives the repetition.
pub fn run_rep(env: &Env, calls: &[Call]) -> io::Result<Vec<CallRun>> {
    env.reset_scratch()?;
    let runs = calls
        .iter()
        .map(|c| {
            let kernel_s = run_kernel(env, env.jobs)?;
            Ok(CallRun {
                kernel_s,
                ..run_call(env, c)?
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    env.reset_scratch()?;
    Ok(runs)
}
