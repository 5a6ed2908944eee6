//! Batch formation: group compatible pending jobs without starving anyone.
//!
//! Policy: **FIFO-fair by receptor, with class-priority admission.** With
//! every job bulk (the default class) the oldest pending job anchors the next
//! batch; every other pending job with the same receptor fingerprint (up to
//! `max_jobs`) rides along, in arrival order. Jobs for other receptors keep
//! their queue positions. This keeps worst-case latency bounded by arrival
//! order — a hot receptor cannot starve a cold one, because batches are always
//! anchored at the queue head — while still coalescing every compatible job
//! the moment its receptor reaches the front.
//!
//! On top of that come **latency classes** ([`next_batch_prioritized`]):
//! the earliest [`LatencyClass::Interactive`] job may overtake older
//! [`LatencyClass::Bulk`] jobs and anchor the batch instead, so small
//! interactive requests stop queueing behind bulk library scans. Starvation is
//! bounded by an **aging knob**: every overtake bumps a counter on each bulk
//! job that was passed over, and a bulk job whose counter reaches `aging`
//! blocks further overtakes — it anchors the next batch itself. `aging == 0`
//! therefore degenerates to pure FIFO, and any bulk job is dispatched within
//! `jobs-ahead-at-arrival + aging + 1` batch extractions no matter how
//! interactive arrivals are sequenced (property-tested in
//! `tests/batcher_props.rs`).

/// How urgently a request wants its answer — the admission-priority axis.
///
/// Classes change **scheduling only**: which batch a job joins and when that
/// batch's items run. Results are bit-identical across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyClass {
    /// A small, latency-sensitive request (a scientist at a screen): forms
    /// batches ahead of bulk work and overtakes it at phase boundaries.
    Interactive,
    /// A throughput-oriented request (a library scan): yields to interactive
    /// work until the aging bound, then runs. The default.
    #[default]
    Bulk,
}

impl LatencyClass {
    /// The scheduler priority this class maps to (lower = more urgent) — the
    /// currency of [`gpu_sim::sched::PhasedBatch::priority`].
    pub fn priority(self) -> u32 {
        match self {
            LatencyClass::Interactive => 0,
            LatencyClass::Bulk => 1,
        }
    }

    /// The class's label value on trace events and metrics
    /// (`"interactive"` / `"bulk"`).
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::Interactive => "interactive",
            LatencyClass::Bulk => "bulk",
        }
    }
}

/// Anything the batcher can group: exposes the receptor fingerprint the batch
/// is keyed on, plus the latency class and overtake counter the priority
/// policy runs on.
pub trait Batchable {
    /// Jobs with equal fingerprints share receptor grids and may share a
    /// batch.
    fn fingerprint(&self) -> u64;

    /// The job's latency class (defaults to [`LatencyClass::Bulk`], which
    /// makes every plain-FIFO consumer a valid priority consumer too).
    fn class(&self) -> LatencyClass {
        LatencyClass::Bulk
    }

    /// Called when an interactive batch overtakes this (bulk) job — the
    /// aging bookkeeping. Default: no-op (plain-FIFO consumers never age).
    fn note_overtaken(&mut self) {}

    /// How many batches have overtaken this job so far.
    fn overtaken(&self) -> usize {
        0
    }
}

/// Extracts the next batch from `pending` (arrival order) under class
/// priority with aging: [`next_batch_admission`] with both fairness gates
/// open. The anchor is:
///
/// 1. the **head job**, when no interactive job is pending, or when a bulk job
///    ahead of the first interactive one has exhausted its aging allowance
///    (`overtaken() >= aging`) — in that case the *earliest* such aged job
///    anchors (which, because bumps apply to every passed-over bulk job at
///    once, is always the earliest pending bulk job);
/// 2. otherwise the **first interactive job**, which overtakes: every bulk job
///    ahead of it gets [`Batchable::note_overtaken`] called once.
///
/// The batch is the anchor plus every later job with the same `(fingerprint,
/// class)` — batches are class-homogeneous, so a batch carries exactly one
/// scheduler priority — up to `max_jobs`. Extracted jobs are removed; the rest
/// keep their order. Returns an empty vector only when `pending` is empty.
///
/// Edge cases: `max_jobs == 0` is clamped to 1 — a non-empty queue must always
/// make progress, so the anchor job ships alone rather than being silently
/// skipped (which would spin the dispatcher forever on a queue it never
/// drains). `max_jobs == 1` likewise extracts exactly the anchor and touches
/// nothing else. Scanning stops as soon as the batch is full: jobs past the
/// cut keep their positions without their fingerprints ever being inspected.
pub fn next_batch_prioritized<T: Batchable>(
    pending: &mut Vec<T>,
    max_jobs: usize,
    aging: usize,
) -> Vec<T> {
    next_batch_admission(pending, max_jobs, aging, |_| true, |_| true)
}

/// The one batch-formation algorithm: [`next_batch_prioritized`]'s policy
/// under fairness gates. `eligible` is a pure per-job check (receptor
/// in-flight cap, tenant quota headroom) consulted during anchor selection and
/// member collection; `budget` is a stateful reservation invoked once per job
/// actually added to the batch (in batch order, anchor first) and may refuse
/// when a cumulative limit — e.g. a tenant's remaining in-flight allowance —
/// runs out mid-batch. Refused and ineligible jobs keep their queue positions.
///
/// Returns an **empty batch from a non-empty queue** when no eligible job
/// exists (every pending job is blocked on in-flight work) or when `budget`
/// refuses the chosen anchor — the caller must then wait for a completion
/// rather than spin. Anchor selection is restricted to eligible jobs: the
/// earliest eligible interactive job overtakes (bumping every bulk job it
/// passes, eligible or not — they were passed over either way), unless an
/// eligible aged bulk job ahead of it blocks the overtake.
pub fn next_batch_admission<T: Batchable>(
    pending: &mut Vec<T>,
    max_jobs: usize,
    aging: usize,
    mut eligible: impl FnMut(&T) -> bool,
    mut budget: impl FnMut(&T) -> bool,
) -> Vec<T> {
    if pending.is_empty() {
        return Vec::new();
    }
    let max_jobs = max_jobs.max(1);
    let open: Vec<bool> = pending.iter().map(&mut eligible).collect();
    let first_interactive = pending
        .iter()
        .zip(&open)
        .position(|(job, open)| *open && job.class() == LatencyClass::Interactive);
    let anchor_pos = match first_interactive {
        None => match open.iter().position(|open| *open) {
            Some(pos) => pos,
            None => return Vec::new(), // everything is fairness-blocked
        },
        Some(interactive_pos) => pending[..interactive_pos]
            .iter()
            .zip(&open)
            .position(|(job, open)| {
                *open && job.class() == LatencyClass::Bulk && job.overtaken() >= aging
            })
            .unwrap_or(interactive_pos),
    };
    let anchor_fp = pending[anchor_pos].fingerprint();
    let anchor_class = pending[anchor_pos].class();
    if !budget(&pending[anchor_pos]) {
        return Vec::new(); // cumulative limit exhausted before the anchor
    }
    if anchor_class == LatencyClass::Interactive {
        for job in pending[..anchor_pos].iter_mut() {
            if job.class() == LatencyClass::Bulk {
                job.note_overtaken();
            }
        }
    }
    let mut batch = Vec::new();
    let mut rest: Vec<T> = Vec::with_capacity(pending.len());
    rest.extend(pending.drain(..anchor_pos));
    {
        let mut drain = pending.drain(..);
        // The anchor is present by construction (`anchor_pos` indexes the
        // queue); its budget is already reserved, members reserve as added.
        if let Some(anchor) = drain.next() {
            batch.push(anchor);
        }
        for job in drain.by_ref() {
            if batch.len() == max_jobs {
                rest.push(job);
                break;
            }
            if job.fingerprint() == anchor_fp
                && job.class() == anchor_class
                && eligible(&job)
                && budget(&job)
            {
                batch.push(job);
            } else {
                rest.push(job);
            }
        }
        rest.extend(drain);
    }
    *pending = rest;
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct J(u64, &'static str);

    impl Batchable for J {
        fn fingerprint(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn batches_anchor_at_the_queue_head() {
        let mut pending = vec![J(1, "a"), J(2, "b"), J(1, "c"), J(2, "d"), J(1, "e")];
        let batch = next_batch_prioritized(&mut pending, 8, 4);
        assert_eq!(batch, vec![J(1, "a"), J(1, "c"), J(1, "e")]);
        // The other receptor's jobs kept their order and are next.
        assert_eq!(pending, vec![J(2, "b"), J(2, "d")]);
        let batch = next_batch_prioritized(&mut pending, 8, 4);
        assert_eq!(batch, vec![J(2, "b"), J(2, "d")]);
        assert!(pending.is_empty());
        assert!(next_batch_prioritized(&mut pending, 8, 4).is_empty());
    }

    #[test]
    fn max_jobs_caps_a_batch_without_reordering() {
        let mut pending = vec![J(1, "a"), J(1, "b"), J(1, "c"), J(2, "x"), J(1, "d")];
        let batch = next_batch_prioritized(&mut pending, 2, 4);
        assert_eq!(batch, vec![J(1, "a"), J(1, "b")]);
        // Overflow jobs stay pending, still ahead of other receptors where
        // they arrived earlier.
        assert_eq!(pending, vec![J(1, "c"), J(2, "x"), J(1, "d")]);
        let batch = next_batch_prioritized(&mut pending, 2, 4);
        assert_eq!(batch, vec![J(1, "c"), J(1, "d")]);
        assert_eq!(pending, vec![J(2, "x")]);
    }

    #[test]
    fn zero_max_jobs_is_clamped_to_the_anchor() {
        // Regression: a zero bound must neither panic nor return an empty
        // batch from a non-empty queue (the dispatcher would spin forever).
        // It clamps to 1: the anchor ships, everything else is untouched.
        let mut pending = vec![J(1, "a"), J(2, "b"), J(1, "c")];
        let batch = next_batch_prioritized(&mut pending, 0, 4);
        assert_eq!(batch, vec![J(1, "a")]);
        assert_eq!(pending, vec![J(2, "b"), J(1, "c")]);
    }

    #[test]
    fn max_jobs_one_extracts_exactly_the_anchor() {
        let mut pending = vec![J(1, "a"), J(1, "b"), J(2, "x")];
        let batch = next_batch_prioritized(&mut pending, 1, 4);
        assert_eq!(batch, vec![J(1, "a")]);
        assert_eq!(pending, vec![J(1, "b"), J(2, "x")]);
        // Draining one at a time reaches every job in arrival-fair order.
        assert_eq!(next_batch_prioritized(&mut pending, 1, 4), vec![J(1, "b")]);
        assert_eq!(next_batch_prioritized(&mut pending, 1, 4), vec![J(2, "x")]);
        assert!(pending.is_empty());
        assert!(next_batch_prioritized(&mut pending, 1, 4).is_empty());
    }

    #[test]
    fn full_batch_stops_scanning_the_tail() {
        // Jobs past the early exit keep their order without being inspected:
        // a fingerprint() that panics past the cut proves the scan stopped.
        struct Tripwire(u64, bool);
        impl Batchable for Tripwire {
            fn fingerprint(&self) -> u64 {
                assert!(!self.1, "scanned past a full batch");
                self.0
            }
        }
        let mut pending =
            vec![Tripwire(1, false), Tripwire(1, false), Tripwire(9, true), Tripwire(1, true)];
        let batch = next_batch_prioritized(&mut pending, 2, 4);
        assert_eq!(batch.len(), 2);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].0, 9);
        assert_eq!(pending[1].0, 1);
    }

    #[test]
    fn single_receptor_queue_drains_fifo() {
        let mut pending: Vec<J> = (0..5).map(|_| J(9, "j")).collect();
        assert_eq!(next_batch_prioritized(&mut pending, 3, 4).len(), 3);
        assert_eq!(next_batch_prioritized(&mut pending, 3, 4).len(), 2);
        assert!(pending.is_empty());
    }

    /// A classed job for the priority policy: `(fingerprint, class, tag)`.
    #[derive(Debug, PartialEq)]
    struct P(u64, LatencyClass, &'static str, usize);

    fn bulk(fp: u64, tag: &'static str) -> P {
        P(fp, LatencyClass::Bulk, tag, 0)
    }

    fn inter(fp: u64, tag: &'static str) -> P {
        P(fp, LatencyClass::Interactive, tag, 0)
    }

    impl Batchable for P {
        fn fingerprint(&self) -> u64 {
            self.0
        }
        fn class(&self) -> LatencyClass {
            self.1
        }
        fn note_overtaken(&mut self) {
            self.3 += 1;
        }
        fn overtaken(&self) -> usize {
            self.3
        }
    }

    #[test]
    fn interactive_anchors_ahead_of_older_bulk_and_bumps_it() {
        let mut pending = vec![bulk(1, "b0"), inter(2, "i0"), bulk(1, "b1"), inter(2, "i1")];
        let batch = next_batch_prioritized(&mut pending, 8, 4);
        assert_eq!(batch, vec![inter(2, "i0"), inter(2, "i1")]);
        // The passed-over bulk job aged; the one behind the anchor did not.
        assert_eq!(pending[0].overtaken(), 1);
        assert_eq!(pending[1].overtaken(), 0);
        // Next extraction is the bulk receptor, FIFO.
        let batch = next_batch_prioritized(&mut pending, 8, 4);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].2, "b0");
    }

    #[test]
    fn aged_bulk_blocks_further_overtakes() {
        // aging = 2: after two interactive overtakes, the bulk job anchors
        // even though interactive work is still pending.
        let mut pending = vec![bulk(1, "b")];
        for round in 0..2 {
            pending.push(inter(2, "i"));
            let batch = next_batch_prioritized(&mut pending, 8, 2);
            assert_eq!(batch[0].1, LatencyClass::Interactive, "round {round}");
            assert_eq!(pending[0].overtaken(), round + 1);
        }
        pending.push(inter(2, "late"));
        let batch = next_batch_prioritized(&mut pending, 8, 2);
        assert_eq!(batch, vec![P(1, LatencyClass::Bulk, "b", 2)]);
        assert_eq!(pending.len(), 1, "interactive job waits exactly one batch");
    }

    #[test]
    fn zero_aging_is_pure_fifo() {
        let mut pending = vec![bulk(1, "b"), inter(1, "i")];
        let batch = next_batch_prioritized(&mut pending, 8, 0);
        // The head bulk job counts as aged immediately (overtaken 0 >= 0), so
        // interactive work can never overtake: arrival order rules.
        assert_eq!(batch, vec![P(1, LatencyClass::Bulk, "b", 0)]);
    }

    #[test]
    fn batches_are_class_homogeneous() {
        // Same receptor, mixed classes: the interactive anchor must not pull
        // the bulk job into its batch (one batch = one scheduler priority).
        let mut pending = vec![inter(1, "i0"), bulk(1, "b0"), inter(1, "i1")];
        let batch = next_batch_prioritized(&mut pending, 8, 4);
        assert_eq!(batch, vec![inter(1, "i0"), inter(1, "i1")]);
        assert_eq!(pending, vec![bulk(1, "b0")]);
    }

    #[test]
    fn all_bulk_matches_plain_fifo_batching() {
        let jobs = || vec![bulk(1, "a"), bulk(2, "b"), bulk(1, "c")];
        let mut plain = jobs();
        let mut prioritized = jobs();
        let a = next_batch_prioritized(&mut plain, 8, 4);
        let b = next_batch_prioritized(&mut prioritized, 8, 4);
        assert_eq!(a.iter().map(|j| j.2).collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(b.iter().map(|j| j.2).collect::<Vec<_>>(), vec!["a", "c"]);
        assert_eq!(plain.len(), 1);
        assert_eq!(prioritized.len(), 1);
    }

    #[test]
    fn empty_queue_yields_empty_batch_under_priority() {
        let mut pending: Vec<P> = Vec::new();
        assert!(next_batch_prioritized(&mut pending, 4, 4).is_empty());
        // max_jobs == 0 clamps to the anchor.
        let mut pending = vec![inter(1, "i"), inter(1, "j")];
        let batch = next_batch_prioritized(&mut pending, 0, 4);
        assert_eq!(batch, vec![inter(1, "i")]);
        assert_eq!(pending, vec![inter(1, "j")]);
    }

    #[test]
    fn admission_form_with_open_gates_matches_prioritized() {
        let jobs = || vec![bulk(1, "b0"), inter(2, "i0"), bulk(1, "b1"), inter(2, "i1")];
        let mut a = jobs();
        let mut b = jobs();
        let left = next_batch_prioritized(&mut a, 8, 4);
        let right = next_batch_admission(&mut b, 8, 4, |_| true, |_| true);
        assert_eq!(left, right);
        assert_eq!(a, b);
    }

    #[test]
    fn ineligible_jobs_are_skipped_without_losing_their_positions() {
        // Receptor 1 is capped (ineligible): the batch anchors on the first
        // eligible job instead, and receptor-1 jobs keep their queue slots.
        let mut pending = vec![bulk(1, "hot0"), bulk(2, "cold"), bulk(1, "hot1")];
        let batch = next_batch_admission(&mut pending, 8, 4, |j| j.fingerprint() != 1, |_| true);
        assert_eq!(batch, vec![bulk(2, "cold")]);
        assert_eq!(pending, vec![bulk(1, "hot0"), bulk(1, "hot1")]);
    }

    #[test]
    fn fully_blocked_queue_yields_an_empty_batch() {
        let mut pending = vec![bulk(1, "a"), inter(2, "b")];
        let batch = next_batch_admission(&mut pending, 8, 4, |_| false, |_| true);
        assert!(batch.is_empty(), "no eligible job ⇒ the caller must wait, not spin");
        assert_eq!(pending.len(), 2, "blocked jobs keep their positions");
        // A refused anchor budget behaves the same way.
        let batch = next_batch_admission(&mut pending, 8, 4, |_| true, |_| false);
        assert!(batch.is_empty());
        assert_eq!(pending.len(), 2);
    }

    #[test]
    fn budget_truncates_a_batch_mid_collection() {
        // Three compatible jobs but budget for two: the third stays pending.
        let mut pending = vec![bulk(1, "a"), bulk(1, "b"), bulk(1, "c")];
        let mut granted = 0;
        let batch = next_batch_admission(
            &mut pending,
            8,
            4,
            |_| true,
            |_| {
                granted += 1;
                granted <= 2
            },
        );
        assert_eq!(batch, vec![bulk(1, "a"), bulk(1, "b")]);
        assert_eq!(pending, vec![bulk(1, "c")]);
    }

    #[test]
    fn eligible_interactive_overtakes_and_blocked_interactive_does_not() {
        // The eligible-subsequence anchor rule: an interactive job blocked by
        // a cap must not overtake — the eligible bulk head anchors instead.
        let mut pending = vec![bulk(1, "b"), inter(2, "i")];
        let batch = next_batch_admission(&mut pending, 8, 4, |j| j.fingerprint() != 2, |_| true);
        assert_eq!(batch, vec![bulk(1, "b")]);
        assert_eq!(pending[0].overtaken(), 0, "a blocked interactive job bumps nobody");

        // Once eligible, it overtakes and bumps the passed-over bulk job.
        let mut pending = vec![bulk(1, "b"), inter(2, "i")];
        let batch = next_batch_admission(&mut pending, 8, 4, |_| true, |_| true);
        assert_eq!(batch, vec![inter(2, "i")]);
        assert_eq!(pending[0].overtaken(), 1);
    }

    #[test]
    fn aged_eligible_bulk_still_blocks_overtakes_under_admission() {
        let mut pending = vec![P(1, LatencyClass::Bulk, "aged", 2), inter(2, "i")];
        let batch = next_batch_admission(&mut pending, 8, 2, |_| true, |_| true);
        assert_eq!(batch[0].2, "aged", "aging semantics survive the fairness gates");
    }
}
