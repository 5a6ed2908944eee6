//! The harness's only wall clock.
//!
//! `ftmap-lint`'s `no-wall-clock` rule bans `std::time` clocks outside the
//! wall-profiling allowlist so wall time can never leak into modeled-time
//! arithmetic. A benchmark harness exists to read the wall clock, so every
//! read goes through [`Tick`] and this file carries the only suppressions.

use std::time::Duration;
// lint-allow(no-wall-clock): the benchmark harness measures host wall time; this is its one clock
use std::time::Instant;

/// One reading of the monotonic wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
// lint-allow(no-wall-clock): the benchmark harness measures host wall time; this is its one clock
pub struct Tick(Instant);

impl Tick {
    /// The current instant.
    pub fn now() -> Self {
        // lint-allow(no-wall-clock): the benchmark harness measures host wall time
        Tick(Instant::now())
    }

    /// Seconds from `earlier` to `self` (0 when `earlier` is later).
    pub fn since(self, earlier: Tick) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Seconds from `self` to now.
    pub fn elapsed_s(self) -> f64 {
        Tick::now().since(self)
    }

    /// The instant `seconds` after `self`.
    pub fn plus_s(self, seconds: f64) -> Tick {
        Tick(self.0 + Duration::from_secs_f64(seconds.max(0.0)))
    }

    /// Blocks until `self` (returns at once when it already passed): sleeps
    /// while more than a millisecond remains, then yields, so an open-loop
    /// generator releases a burst within microseconds of its due time.
    pub fn wait_until(self) {
        loop {
            let remaining = self.since(Tick::now());
            if remaining <= 0.0 {
                return;
            }
            if remaining > 1.5e-3 {
                std::thread::sleep(Duration::from_secs_f64(remaining - 1e-3));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Tick::now();
    let out = f();
    (out, start.elapsed_s())
}

/// The fastest of `reps` timed executions of `f`: its wall seconds and the
/// result that repetition produced. Every result goes through `black_box` so
/// the measured work cannot be elided.
pub fn fastest_with<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best_out, mut best_s) = timed(&mut f);
    for _ in 1..reps {
        let (out, s) = timed(&mut f);
        if s < best_s {
            (best_out, best_s) = (out, s);
        }
    }
    (best_s, std::hint::black_box(best_out))
}

/// Fastest of `reps` timed executions of `f`, in seconds.
pub fn fastest_of<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    fastest_with(reps, f).0
}

/// [`fastest_of`] with an untimed `prepare` step before each repetition
/// (fresh inputs, cold caches) whose product the timed `run` consumes.
pub fn fastest_prepared<S, T>(
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let input = prepare();
        let (out, s) = timed(|| run(input));
        std::hint::black_box(out);
        best = best.min(s);
    }
    best
}
