//! The one command-line parser of the experiment binaries (no external CLI
//! dependency).
//!
//! Each binary hands [`Args::from_env`] the [`Flag`]s it reads, and the
//! parser accepts only those. Any other flag, a flag without its value or a
//! value its check refuses exits 2 before any work, with the binary's flag
//! list; `--help` prints that list and also exits 2. A flag given twice
//! keeps its last value. Reading a flag the binary did not hand over
//! panics, so no binary reads a flag it does not accept.
//!
//! The shared flags are the constants below. Their defaults: `--seed`
//! 0xEED5, `--out results`, `--replicates` 100 (`--fast` caps it at 25).
//! Which binary reads which flag:
//!
//! | Binary | Flags |
//! |---|---|
//! | all but `mwrepaird` and `torture` | `--threads N`, `--profile PATH`, `--quiet`, plus those below |
//! | `table1`, `cost_model`, `sync_stall` | `--out DIR` |
//! | `amortization`, `regret_curves` | `--seed S`, `--out DIR` |
//! | `export_datasets` | `--only SUBSTR`, `--out DIR` |
//! | `bandit_baselines`, `congestion`, `eval_cost`, `fig4a`, `fig4b`, `repair_comparison`, `sweep_params` ([`SWEEP`]) | `--replicates N`, `--fast`, `--seed S`, `--out DIR` |
//! | `tables234` | those four, `--only SUBSTR`, `--trace PATH` |
//! | `chaos` | those four, `--rates LIST`, `--size K`, `--max-iterations N` |
//! | `mwrepaird` | `--work DIR`, `--jobs FILE\|-`, `--slice N`, `--halt-after ROUNDS`, `--threads N`, `--trace-segment-bytes N`, `--profile` (a switch), `--quiet`, `--fault-rate R`, `--fault-class CLASS`, `--fault-seed N` |
//! | `torture` | `--fast`, `--out FILE`, `--work DIR` |

use crate::write_results_csv;
use mwu_core::trace::Tee;
use mwu_core::{JsonlSink, ProgressSink};
use std::fmt::{Display, Write};
use std::fs::File;
use std::io::BufWriter;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One flag a binary reads.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Its spelling, e.g. `--seed`.
    name: &'static str,
    /// Placeholder for its value in the flag list (`N`, `PATH`); empty for
    /// a switch, which takes no value.
    value: &'static str,
    /// One line for the flag list.
    help: &'static str,
    /// Accepts or refuses a value at parse time.
    check: fn(&str) -> Result<(), String>,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: "",
            help,
            check: |_| Ok(()),
        }
    }

    /// A flag whose value must parse as `T`.
    pub const fn of<T: FromStr>(name: &'static str, value: &'static str, help: &'static str) -> Self
    where
        T::Err: Display,
    {
        Self {
            name,
            value,
            help,
            check: parses::<T>,
        }
    }
}

fn parses<T: FromStr>(v: &str) -> Result<(), String>
where
    T::Err: Display,
{
    v.parse::<T>().map(drop).map_err(|e| e.to_string())
}

/// `--threads N`, else `RAYON_NUM_THREADS`, else all CPUs. Output is
/// byte-identical at every setting (`docs/PARALLELISM.md`).
pub const THREADS: Flag =
    Flag::of::<NonZeroUsize>("--threads", "N", "pool size (default all CPUs)");
/// `--profile PATH`: a `profile/v1` phase report; never changes an output byte.
pub const PROFILE: Flag = Flag::of::<PathBuf>("--profile", "PATH", "profile/v1 report to PATH");
/// `--quiet`: no progress narration on stderr.
pub const QUIET: Flag = Flag::switch("--quiet", "print no progress on stderr");
/// `--out DIR`: where the CSVs go.
pub const OUT: Flag = Flag::of::<PathBuf>("--out", "DIR", "write CSVs into DIR (default results)");
/// `--seed S`: the base seed.
pub const SEED: Flag = Flag::of::<u64>("--seed", "S", "base seed (default 60885 = 0xEED5)");
/// `--replicates N`: the paper's 100 by default.
pub const REPLICATES: Flag =
    Flag::of::<NonZeroUsize>("--replicates", "N", "replicates per cell (default 100)");
/// `--fast`: a quick single-core pass.
pub const FAST: Flag = Flag::switch("--fast", "cap replicates at 25");
/// `--only SUBSTR`: run only the datasets whose name contains SUBSTR.
pub const ONLY: Flag = Flag::of::<String>("--only", "SUBSTR", "only datasets matching SUBSTR");
/// `--trace PATH`: a JSONL run trace, each replicate re-runnable from it.
pub const TRACE: Flag = Flag::of::<PathBuf>("--trace", "PATH", "write a JSONL run trace to PATH");
/// The flags of a replicated sweep: `--replicates`, `--fast`, `--seed`,
/// `--out` and the `--threads`, `--profile`, `--quiet` every experiment reads.
pub const SWEEP: &[Flag] = &[REPLICATES, FAST, SEED, OUT, THREADS, PROFILE, QUIET];

/// One binary's command line, checked against the flags it reads.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    flags: &'static [Flag],
    /// The last value given for each flag, in `flags` order; `""` for a
    /// switch.
    values: Vec<Option<String>>,
}

impl Args {
    /// Check `argv` (without the program name) against `flags`. `Err`
    /// holds what to print: the flag list for `--help`, else the fault and
    /// then the list.
    fn parse<I: IntoIterator<Item = String>>(
        bin: &'static str,
        flags: &'static [Flag],
        argv: I,
    ) -> Result<Self, String> {
        let refuse = |fault: String| format!("{bin}: {fault}\n{}", usage(bin, flags));
        let mut values = vec![None; flags.len()];
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(i) = flags.iter().position(|f| f.name == arg) else {
                return Err(match arg.as_str() {
                    "--help" | "-h" => usage(bin, flags),
                    _ => refuse(format!("unknown flag {arg:?}")),
                });
            };
            let flag = flags[i];
            if flag.value.is_empty() {
                values[i] = Some(String::new());
                continue;
            }
            let v = argv
                .next()
                .ok_or_else(|| refuse(format!("{} needs a value", flag.name)))?;
            (flag.check)(&v).map_err(|e| refuse(format!("{} {v:?}: {e}", flag.name)))?;
            values[i] = Some(v);
        }
        Ok(Self { bin, flags, values })
    }

    /// Check this process's arguments against `flags`, or print why not and
    /// exit 2. Applies `--threads N` to the global pool and arms the phase
    /// profiler for `--profile PATH`, where the binary reads them.
    pub fn from_env(bin: &'static str, flags: &'static [Flag]) -> Self {
        let args = Self::parse(bin, flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if let Some(n) = args
            .slot(&THREADS)
            .and_then(|_| args.get::<NonZeroUsize>(&THREADS))
        {
            rayon::set_num_threads(n.get());
        }
        if args.slot(&PROFILE).is_some_and(|_| args.given(&PROFILE)) {
            install_profile_hooks();
            mwu_core::prof::set_enabled(true);
        }
        args
    }

    /// Where `flag` sits among the flags handed over. A switch and a valued
    /// flag of the same name are different flags.
    fn slot(&self, flag: &Flag) -> Option<usize> {
        let same = |f: &Flag| f.name == flag.name && f.value == flag.value;
        self.flags.iter().position(same)
    }

    fn raw(&self, flag: &Flag) -> Option<&str> {
        let Some(i) = self.slot(flag) else {
            panic!("{} does not accept {}", self.bin, flag.name)
        };
        self.values[i].as_deref()
    }

    /// Was `flag` given?
    pub fn given(&self, flag: &Flag) -> bool {
        self.raw(flag).is_some()
    }

    /// The value given for `flag`, parsed as `T` (its check ran at parse
    /// time).
    pub fn get<T: FromStr>(&self, flag: &Flag) -> Option<T> {
        self.raw(flag).map(|v| match v.parse() {
            Ok(t) => t,
            Err(_) => panic!("{} {v:?} passed its check but does not parse", flag.name),
        })
    }

    /// Print `fault` and this binary's flags, then exit 2.
    pub fn fail(&self, fault: impl Display) -> ! {
        eprintln!("{}: {fault}\n{}", self.bin, usage(self.bin, self.flags));
        std::process::exit(2);
    }

    /// Print one line of progress on stderr, unless `--quiet`.
    pub fn progress(&self, line: impl Display) {
        if !self.given(&QUIET) {
            eprintln!("{line}");
        }
    }

    /// `--seed`, default 0xEED5.
    pub fn seed(&self) -> u64 {
        self.get(&SEED).unwrap_or(0xEED5)
    }

    /// `--replicates`, default 100, capped at 25 by `--fast`.
    pub fn replicates(&self) -> usize {
        let cap = if self.given(&FAST) { 25 } else { usize::MAX };
        self.get(&REPLICATES)
            .map_or(100, NonZeroUsize::get)
            .min(cap)
    }

    /// `--out`, default `results`.
    pub fn out_dir(&self) -> PathBuf {
        self.get(&OUT).unwrap_or_else(|| PathBuf::from("results"))
    }

    /// Write CSV `name` into `--out` and say so unless `--quiet`.
    pub fn write_csv(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let path = write_results_csv(&self.out_dir(), name, header, rows)
            .unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
        self.progress(format_args!("wrote {}", path.display()));
    }

    /// Should dataset `name` run under `--only`?
    pub fn selects(&self, name: &str) -> bool {
        self.raw(&ONLY).is_none_or(|s| name.contains(s))
    }

    /// The observer this invocation asked for: a JSONL sink for `--trace`,
    /// teed with progress narration unless `--quiet`.
    pub fn observer(&self) -> Tee<Option<JsonlSink<BufWriter<File>>>, ProgressSink> {
        let jsonl = self.get::<PathBuf>(&TRACE).map(|p| {
            create_parent(&p);
            JsonlSink::create(&p)
                .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", p.display()))
        });
        Tee(jsonl, ProgressSink::quiet(self.given(&QUIET)))
    }

    /// Write the merged `profile/v1` report to the `--profile` path, if one
    /// was given. Call once, after the run's last parallel work.
    pub fn write_profile(&self) {
        let Some(path) = self.get::<PathBuf>(&PROFILE) else {
            return;
        };
        create_parent(&path);
        std::fs::write(&path, mwu_core::prof::snapshot().to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write profile {}: {e}", path.display()));
        self.progress(format_args!("profile report written to {}", path.display()));
    }
}

fn create_parent(path: &Path) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
    }
}

/// The flag list `--help` prints, one flag a line.
fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut text = format!("usage: {bin} [FLAGS]\nflags:");
    for f in flags {
        let spelled = format!("{} {}", f.name, f.value);
        let _ = write!(text, "\n  {:<28} {}", spelled.trim_end(), f.help);
    }
    text
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

    const GRID: &[Flag] = &[
        ONLY, TRACE, REPLICATES, FAST, SEED, OUT, THREADS, PROFILE, QUIET,
    ];
    const FEW: &[Flag] = &[SEED, TRACE, QUIET];

    /// Parse a space-separated command line.
    fn p(flags: &'static [Flag], line: &str) -> Result<Args, String> {
        Args::parse("bin", flags, line.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = p(GRID, "").unwrap();
        assert_eq!((a.replicates(), a.seed()), (100, 0xEED5));
        assert_eq!(a.out_dir(), PathBuf::from("results"));
        assert!(!a.given(&QUIET) && a.selects("anything"));
        assert_eq!(p(FEW, "").unwrap().get::<PathBuf>(&TRACE), None);
    }

    #[test]
    fn parses_all_flags() {
        let a = p(
            GRID,
            "--replicates 10 --seed 7 --out /tmp/r --only random --quiet",
        )
        .unwrap();
        assert_eq!((a.replicates(), a.seed()), (10, 7));
        assert_eq!(a.out_dir(), PathBuf::from("/tmp/r"));
        assert!(a.given(&QUIET) && a.selects("random64") && !a.selects("Chart26"));
        // The last of a repeated flag wins.
        assert_eq!(p(GRID, "--seed 1 --seed 2").unwrap().seed(), 2);
    }

    #[test]
    fn fast_caps_replicates() {
        assert_eq!(p(GRID, "--fast").unwrap().replicates(), 25);
        assert_eq!(p(GRID, "--replicates 10 --fast").unwrap().replicates(), 10);
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        for refused in [
            "--frobnicate",
            "--replicates",
            "--replicates zero",
            "--replicates 0",
            "--seed -1",
        ] {
            assert!(p(GRID, refused).is_err(), "{refused}");
        }
        let e = p(FEW, "--fast").unwrap_err();
        assert!(e.starts_with("bin: unknown flag \"--fast\"\n"), "{e}");
        assert!(e.contains("--trace PATH"), "{e}");
    }

    #[test]
    fn help_lists_only_the_flags_handed_over() {
        let help = p(FEW, "--help").unwrap_err();
        assert!(help.starts_with("usage: bin [FLAGS]\nflags:\n"), "{help}");
        assert_eq!(help.lines().count(), 2 + FEW.len(), "{help}");
        assert!(FEW.iter().all(|f| help.contains(&format!("  {} ", f.name))));
        assert!(!help.contains("--replicates"), "{help}");
        assert_eq!(p(GRID, "-h").unwrap_err(), usage("bin", GRID));
    }

    #[test]
    #[should_panic(expected = "bin does not accept --seed")]
    fn reading_an_unaccepted_flag_panics() {
        p(&[QUIET], "").unwrap().seed();
    }

    #[test]
    fn parses_profile() {
        assert_eq!(p(GRID, "").unwrap().get::<PathBuf>(&PROFILE), None);
        let a = p(GRID, "--profile /tmp/prof.json").unwrap();
        assert_eq!(a.get(&PROFILE), Some(PathBuf::from("/tmp/prof.json")));
        assert!(p(GRID, "--profile").is_err());
        assert!(p(GRID, "--help").unwrap_err().contains("--profile PATH"));
        // A switch of the same name is another flag.
        const DAEMON: &[Flag] = &[Flag::switch("--profile", "metrics.json")];
        assert_eq!(p(DAEMON, "--profile").unwrap().slot(&PROFILE), None);
    }

    #[test]
    fn parses_threads() {
        let threads = |line| p(GRID, line).map(|a| a.get::<NonZeroUsize>(&THREADS));
        assert_eq!(threads(""), Ok(None));
        assert_eq!(threads("--threads 4"), Ok(NonZeroUsize::new(4)));
        for refused in ["--threads", "--threads 0", "--threads lots"] {
            assert!(threads(refused).is_err(), "{refused}");
        }
        assert!(p(GRID, "--help").unwrap_err().contains("--threads N"));
    }
}
