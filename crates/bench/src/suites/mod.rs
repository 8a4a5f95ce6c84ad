//! The performance suites behind the `bench-*` CLI subcommands. Each
//! campaign suite is a `Suite` table row over the one shared sweep
//! (`sweep`): the chaos fault sweep (`chaos`), the journal-overhead
//! budget (`resume`), the hostile-payload sweep ([`hostile`], which
//! also carries the fuzz harness), the storage-fault sweep (`io`), the
//! phase-accounting perf sweep and gate (`perf`) and the telemetry
//! overhead gate plus trace exporter ([`trace`]). Every report is
//! written by one writer (`sweep::render`) to `results/BENCH_*.json`
//! or an explicit output path, and progress goes through the unified
//! `[mailval]` channel.

pub(crate) mod chaos;
pub mod hostile;
pub(crate) mod io;
pub(crate) mod perf;
pub(crate) mod resume;
pub(crate) mod sweep;
pub mod trace;

/// A subcommand's entry point, given its optional `[OUT]` argument;
/// `false` means exit non-zero.
pub type Command = fn(Option<String>) -> bool;

/// The `bench-*` and `fuzz` subcommands, by name.
pub const COMMANDS: &[(&str, Command)] = &[
    ("bench-chaos", |out| sweep::run(&chaos::SUITE, out)),
    ("bench-resume", resume::run),
    ("bench-hostile", |out| sweep::run(&hostile::SUITE, out)),
    ("bench-io", |out| sweep::run(&io::SUITE, out)),
    ("bench-perf", |out| sweep::run(&perf::SUITE, out)),
    ("bench-perf-check", perf::check),
    ("bench-trace", trace::run),
    ("fuzz", |frames| {
        hostile::fuzz(frames);
        true
    }),
];
