//! Minimal hand-rolled CLI argument parsing shared by the experiment
//! binaries (no external CLI dependency).

use std::path::PathBuf;

/// Flags every experiment binary accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Replicates per cell (`--replicates N`, paper default 100).
    pub replicates: usize,
    /// Base seed (`--seed S`).
    pub seed: u64,
    /// Output directory for CSVs (`--out DIR`, default `results/`).
    pub out_dir: PathBuf,
    /// `--fast`: shrink replicates to 25 for a quick single-core pass.
    pub fast: bool,
    /// Restrict to datasets whose name contains this substring
    /// (`--only SUBSTR`).
    pub only: Option<String>,
    /// Write a JSONL run trace to this path (`--trace PATH`). Every grid
    /// replicate's trace header carries its derived seed, so any replicate
    /// can be re-run standalone from the trace alone.
    pub trace: Option<PathBuf>,
    /// Suppress stderr progress narration (`--quiet`).
    pub quiet: bool,
    /// Write crash-safe run checkpoints to this path (`--checkpoint PATH`).
    /// Binaries with a resumable driver persist state there atomically;
    /// see `docs/FAULTS.md` for the file format.
    pub checkpoint: Option<PathBuf>,
    /// Resume a killed run from this checkpoint file (`--resume PATH`).
    pub resume: Option<PathBuf>,
    /// Probes between checkpoint writes (`--checkpoint-every N`,
    /// default 512).
    pub checkpoint_every: u64,
    /// Thread-pool size (`--threads N`). `None` defers to
    /// `RAYON_NUM_THREADS`, then the hardware parallelism. Output is
    /// byte-identical at every setting; see `docs/PARALLELISM.md`.
    pub threads: Option<usize>,
    /// Enable the phase profiler and write a `profile/v1` JSON report to
    /// this path at exit (`--profile PATH`). Profiling is observational
    /// only: every CSV/trace byte is identical with it on or off; see
    /// `docs/TELEMETRY.md`.
    pub profile: Option<PathBuf>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            replicates: 100,
            seed: 0xEED5,
            out_dir: PathBuf::from("results"),
            fast: false,
            only: None,
            trace: None,
            quiet: false,
            checkpoint: None,
            resume: None,
            checkpoint_every: 512,
            threads: None,
            profile: None,
        }
    }
}

impl CommonArgs {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// Unknown flags produce an error string listing valid flags, so every
    /// binary fails loudly rather than silently ignoring a typo.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--replicates" => {
                    let v = it.next().ok_or("--replicates needs a value")?;
                    out.replicates = v.parse().map_err(|e| format!("--replicates {v:?}: {e}"))?;
                    if out.replicates == 0 {
                        return Err("--replicates must be positive".into());
                    }
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a value")?;
                    out.out_dir = PathBuf::from(v);
                }
                "--fast" => {
                    out.fast = true;
                }
                "--only" => {
                    let v = it.next().ok_or("--only needs a value")?;
                    out.only = Some(v);
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a path")?;
                    out.trace = Some(PathBuf::from(v));
                }
                "--quiet" => {
                    out.quiet = true;
                }
                "--checkpoint" => {
                    let v = it.next().ok_or("--checkpoint needs a path")?;
                    out.checkpoint = Some(PathBuf::from(v));
                }
                "--resume" => {
                    let v = it.next().ok_or("--resume needs a path")?;
                    out.resume = Some(PathBuf::from(v));
                }
                "--checkpoint-every" => {
                    let v = it.next().ok_or("--checkpoint-every needs a value")?;
                    out.checkpoint_every = v
                        .parse()
                        .map_err(|e| format!("--checkpoint-every {v:?}: {e}"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let n: usize = v.parse().map_err(|e| format!("--threads {v:?}: {e}"))?;
                    if n == 0 {
                        return Err("--threads must be positive".into());
                    }
                    out.threads = Some(n);
                }
                "--profile" => {
                    let v = it.next().ok_or("--profile needs a path")?;
                    out.profile = Some(PathBuf::from(v));
                }
                "--help" | "-h" => {
                    return Err("flags: --replicates N | --seed S | --out DIR | --fast | \
                         --only SUBSTR | --trace PATH | --quiet | --checkpoint PATH | \
                         --resume PATH | --checkpoint-every N | --threads N | \
                         --profile PATH"
                        .into())
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        if out.fast {
            out.replicates = out.replicates.min(25);
        }
        Ok(out)
    }

    /// Parse from the process environment, exiting with a message on error.
    /// Applies `--threads` to the global pool before returning.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => {
                a.apply_parallelism();
                a.apply_profiling();
                a
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Arm the phase profiler when `--profile` was given: enable
    /// `mwu_core::prof` and bridge the pool/simnet fn-pointer hooks into
    /// [`mwu_core::prof::record_external`]. Without the flag this is a
    /// no-op and every instrumented site stays one relaxed atomic load.
    pub fn apply_profiling(&self) {
        if self.profile.is_none() {
            return;
        }
        install_profile_hooks();
        mwu_core::prof::set_enabled(true);
    }

    /// Write the merged `profile/v1` report to the `--profile` path, if
    /// one was requested. Call once, after the run's last parallel work.
    pub fn write_profile(&self) {
        let Some(path) = &self.profile else { return };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create profile directory");
            }
        }
        let report = mwu_core::prof::snapshot();
        std::fs::write(path, report.to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write profile {}: {e}", path.display()));
        if !self.quiet {
            eprintln!("profile report written to {}", path.display());
        }
    }

    /// Push `--threads` into the global pool. Returns `false` (with a
    /// warning on stderr) when the pool was already initialized at a
    /// different size — thread count must be set before any parallel work.
    pub fn apply_parallelism(&self) -> bool {
        match self.threads {
            Some(n) => {
                let applied = rayon::set_num_threads(n);
                if !applied {
                    eprintln!(
                        "warning: --threads {n} ignored; pool already running \
                         with {} threads",
                        rayon::current_num_threads()
                    );
                }
                applied
            }
            None => true,
        }
    }

    /// Should dataset `name` run under the `--only` filter?
    pub fn selects(&self, name: &str) -> bool {
        match &self.only {
            Some(s) => name.contains(s.as_str()),
            None => true,
        }
    }

    /// Build the observer this invocation asked for — a JSONL trace sink
    /// when `--trace` was given, teed with progress narration unless
    /// `--quiet`. Binaries drive their grid through the returned observer.
    pub fn observer(
        &self,
    ) -> mwu_core::trace::Tee<
        Option<mwu_core::JsonlSink<std::io::BufWriter<std::fs::File>>>,
        mwu_core::ProgressSink,
    > {
        let jsonl = self.trace.as_deref().map(|p| {
            if let Some(parent) = p.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create trace directory");
                }
            }
            mwu_core::JsonlSink::create(p)
                .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", p.display()))
        });
        mwu_core::trace::Tee(jsonl, mwu_core::ProgressSink::quiet(self.quiet))
    }
}

/// Bridge the pool and simnet fn-pointer profiling hooks into
/// [`mwu_core::prof::record_external`]. Installation is first-wins and
/// does **not** enable the profiler by itself — every instrumented site
/// stays one relaxed atomic load until `prof::set_enabled(true)`. Public
/// so profile-shape tests can install the bridge without a `--profile`
/// flag in play.
pub fn install_profile_hooks() {
    rayon::set_profile_hook(mwu_core::prof::enabled, bridge_pool_event);
    simnet::set_profile_hook(mwu_core::prof::enabled, bridge_sim_event);
}

/// Map a pool event onto its profiler phase. Runs on the observing
/// worker thread, so durations land in that thread's accumulator.
fn bridge_pool_event(event: rayon::PoolEvent, duration_ns: u64) {
    use mwu_core::prof::Phase;
    let phase = match event {
        rayon::PoolEvent::QueueWait => Phase::PoolQueueWait,
        rayon::PoolEvent::Park => Phase::PoolPark,
        rayon::PoolEvent::Chunk => Phase::PoolChunk,
        rayon::PoolEvent::Submit => Phase::PoolSubmit,
    };
    mwu_core::prof::record_external(phase, duration_ns);
}

/// Map a simnet event onto its profiler phase.
fn bridge_sim_event(event: simnet::SimEvent, duration_ns: u64) {
    let phase = match event {
        simnet::SimEvent::RoundBarrier => mwu_core::prof::Phase::SimRoundBarrier,
    };
    mwu_core::prof::record_external(phase, duration_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = p(&[]).unwrap();
        assert_eq!(a.replicates, 100);
        assert!(a.selects("anything"));
    }

    #[test]
    fn parses_all_flags() {
        let a = p(&[
            "--replicates",
            "10",
            "--seed",
            "7",
            "--out",
            "/tmp/r",
            "--only",
            "random",
        ])
        .unwrap();
        assert_eq!(a.replicates, 10);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/r"));
        assert!(a.selects("random64"));
        assert!(!a.selects("Chart26"));
    }

    #[test]
    fn fast_caps_replicates() {
        let a = p(&["--fast"]).unwrap();
        assert_eq!(a.replicates, 25);
        let b = p(&["--replicates", "10", "--fast"]).unwrap();
        assert_eq!(b.replicates, 10);
    }

    #[test]
    fn parses_checkpoint_flags() {
        let a = p(&["--checkpoint", "/tmp/run.ckpt", "--checkpoint-every", "64"]).unwrap();
        assert_eq!(a.checkpoint, Some(PathBuf::from("/tmp/run.ckpt")));
        assert_eq!(a.checkpoint_every, 64);
        assert_eq!(a.resume, None);
        let b = p(&["--resume", "/tmp/run.ckpt"]).unwrap();
        assert_eq!(b.resume, Some(PathBuf::from("/tmp/run.ckpt")));
        assert!(p(&["--checkpoint-every", "many"]).is_err());
        assert!(p(&["--resume"]).is_err());
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        assert!(p(&["--frobnicate"]).is_err());
        assert!(p(&["--replicates"]).is_err());
        assert!(p(&["--replicates", "zero"]).is_err());
        assert!(p(&["--replicates", "0"]).is_err());
        assert!(p(&["--help"]).is_err());
    }

    #[test]
    fn parses_profile() {
        assert_eq!(p(&[]).unwrap().profile, None);
        let a = p(&["--profile", "/tmp/prof.json"]).unwrap();
        assert_eq!(a.profile, Some(PathBuf::from("/tmp/prof.json")));
        assert!(p(&["--profile"]).is_err());
        assert!(p(&["--help"]).unwrap_err().contains("--profile"));
    }

    #[test]
    fn parses_threads() {
        assert_eq!(p(&[]).unwrap().threads, None);
        assert_eq!(p(&["--threads", "4"]).unwrap().threads, Some(4));
        assert!(p(&["--threads"]).is_err());
        assert!(p(&["--threads", "0"]).is_err());
        assert!(p(&["--threads", "lots"]).is_err());
        assert!(p(&["--help"]).unwrap_err().contains("--threads"));
    }
}
