//! The engine pump: one dedicated thread owns the model and the
//! [`Engine`], steps it while work is pending, and translates its event
//! stream into job-table updates. Connection threads never touch the engine —
//! they enqueue [`Command`]s over a channel and read the job table, so the
//! single-threaded scheduler keeps its determinism while any number of
//! sockets talk to it.
//!
//! Deduplication lives here too: a completed primary publishes its result to
//! the [`ResultCache`] and resolves every coalesced follower; a cancelled
//! primary *promotes* its oldest follower into a fresh engine run (token-
//! identical, since only deterministic requests coalesce); a failed primary
//! fails its followers with the same wire error.
//!
//! Lock order is dedup state → job table, everywhere. The job table's
//! methods take and release its own lock internally and never reach back
//! into the dedup state, so the order cannot invert.

use crate::cache::{CachedResult, ResultCache, ResultKey};
use crate::jobs::{JobError, JobId, JobState, JobTable};
use keyformer_model::families::ModelFamily;
use keyformer_serve::{
    Engine, EventKind, FailureReason, Request, RequestId, ServerConfig, SubmitOptions,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// What connection threads may ask of the pump.
pub enum Command {
    /// Submit a resolved request to the engine under job id `job`.
    Submit {
        /// The job (and engine request) id.
        job: JobId,
        /// The resolved cache key, which doubles as the full request payload.
        key: ResultKey,
        /// Scheduling options (priority, deadline).
        options: SubmitOptions,
    },
    /// Cancel a job, wherever it is (queued, running, or coalesced).
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Stop the pump: every live job is retired as cancelled and the thread
    /// exits.
    Shutdown,
}

/// One in-flight deduplication group: the primary actually running on the
/// engine plus the duplicates riding on its result. Each follower keeps the
/// [`SubmitOptions`] its own request carried, so a promotion after the
/// primary cancels resubmits with the promoted request's priority/deadline
/// instead of silently reverting to the defaults.
struct Inflight {
    key: ResultKey,
    primary: JobId,
    followers: Vec<(JobId, SubmitOptions)>,
}

/// Shared dedup state: the result cache plus the in-flight coalescing table.
/// Connection threads consult it at submission (under its mutex); the pump
/// updates it at completion.
pub struct DedupState {
    /// `false` disables both the cache and coalescing (every request runs).
    pub enabled: bool,
    /// The TTL'd result cache.
    pub cache: ResultCache,
    /// Content hash → in-flight groups (chained like the cache, exact-key
    /// matched).
    inflight: HashMap<u64, Vec<Inflight>>,
}

impl DedupState {
    /// Fresh state with the given cache and dedup switch.
    pub fn new(enabled: bool, cache: ResultCache) -> Self {
        DedupState {
            enabled,
            cache,
            inflight: HashMap::new(),
        }
    }

    /// Registers `primary` as the running job for `key`.
    pub fn register_inflight(&mut self, key: ResultKey, primary: JobId) {
        self.inflight
            .entry(key.content_hash())
            .or_default()
            .push(Inflight {
                key,
                primary,
                followers: Vec::new(),
            });
    }

    /// Attaches `follower` to the in-flight group for `key`, remembering its
    /// own scheduling `options` for a possible later promotion. Returns the
    /// primary's id when a group exists.
    pub fn attach_follower(
        &mut self,
        key: &ResultKey,
        follower: JobId,
        options: SubmitOptions,
    ) -> Option<JobId> {
        let group = self
            .inflight
            .get_mut(&key.content_hash())?
            .iter_mut()
            .find(|g| g.key == *key)?;
        group.followers.push((follower, options));
        Some(group.primary)
    }

    /// Detaches a cancelled follower from whichever group holds it.
    pub fn detach_follower(&mut self, follower: JobId) {
        for chain in self.inflight.values_mut() {
            for group in chain.iter_mut() {
                group.followers.retain(|&(f, _)| f != follower);
            }
        }
    }

    /// Removes and returns the group whose primary is `job`, if any.
    fn take_group_of_primary(&mut self, job: JobId) -> Option<Inflight> {
        let hash = *self
            .inflight
            .iter()
            .find(|(_, chain)| chain.iter().any(|g| g.primary == job))?
            .0;
        let chain = self.inflight.get_mut(&hash)?;
        let at = chain.iter().position(|g| g.primary == job)?;
        let group = chain.remove(at);
        if chain.is_empty() {
            self.inflight.remove(&hash);
        }
        Some(group)
    }

    /// In-flight groups currently registered.
    pub fn inflight_groups(&self) -> usize {
        self.inflight.values().map(Vec::len).sum()
    }
}

/// Point-in-time engine counters published by the pump after every step, so
/// `GET /v1/stats` never has to touch the engine thread.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct EngineSnapshot {
    /// Scheduler steps executed so far.
    pub steps: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Sessions currently running.
    pub running: usize,
    /// Engine lifetime counters (`None` until the engine has booted).
    pub stats: Option<keyformer_serve::ServerStats>,
    /// Pool accounting (`None` until the engine has booted).
    pub pool: Option<keyformer_core::block::BlockPoolStats>,
    /// Prefix-registry counters, when sharing is on.
    pub registry: Option<keyformer_core::prefix::PrefixRegistryStats>,
}

/// Everything the pump thread shares with the wire layer.
pub struct PumpShared {
    /// The job table.
    pub jobs: Arc<JobTable>,
    /// Cache + coalescing state.
    pub dedup: Arc<Mutex<DedupState>>,
    /// Latest engine snapshot.
    pub snapshot: Arc<Mutex<EngineSnapshot>>,
    /// Milliseconds since the server started (the cache's time base).
    pub started: std::time::Instant,
}

impl PumpShared {
    /// Milliseconds elapsed since the server started — the `now_ms` every
    /// cache call uses.
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Locks the dedup state (poison-tolerant).
    pub fn dedup(&self) -> std::sync::MutexGuard<'_, DedupState> {
        self.dedup
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Spawns the pump thread: builds the model and engine in-thread (the engine
/// borrows the model, so both must live there), reports the engine's
/// validation result back, then pumps until [`Command::Shutdown`] or every
/// sender is dropped.
///
/// # Errors
///
/// Returns the engine's [`keyformer_core::CoreError`] when the configuration
/// does not validate; the thread exits in that case.
pub fn spawn_pump(
    family: ModelFamily,
    model_seed: u64,
    config: ServerConfig,
    shared: Arc<PumpShared>,
) -> Result<(mpsc::Sender<Command>, std::thread::JoinHandle<()>), keyformer_core::CoreError> {
    let (tx, rx) = mpsc::channel::<Command>();
    let (init_tx, init_rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("kf-serve-pump".into())
        .spawn(move || {
            let model = family.build(model_seed);
            let mut engine = match Engine::new(&model, config) {
                Ok(engine) => {
                    let _ = init_tx.send(Ok(()));
                    engine
                }
                Err(e) => {
                    let _ = init_tx.send(Err(e));
                    return;
                }
            };
            engine.record_events(true);
            Pump { engine, shared }.run(&rx);
        })
        .expect("spawning the pump thread");
    match init_rx.recv() {
        Ok(Ok(())) => Ok((tx, handle)),
        Ok(Err(e)) => {
            let _ = handle.join();
            Err(e)
        }
        Err(_) => unreachable!("the pump thread always reports its init result"),
    }
}

/// The terminal code of every job still live when the pump thread dies.
pub const PUMP_DIED: keyformer_serve::WireCode = keyformer_serve::WireCode {
    code: "internal_error",
    status: 500,
};

/// Armed for the whole life of [`Pump::run`]: if the pump thread unwinds —
/// a panic in the engine, or in one of its prefill workers, resumed here —
/// this fails every live job with [`PUMP_DIED`] and closes the job table,
/// so every waiter gets a terminal event and every later generate call and
/// connection a `503 unavailable`, instead of blocking forever on an engine
/// that will never step again. A normal return does nothing.
struct PumpDeathGuard(Arc<JobTable>);

impl Drop for PumpDeathGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .close(PUMP_DIED, "the engine stopped on an internal error");
        }
    }
}

struct Pump<'m> {
    engine: Engine<'m>,
    shared: Arc<PumpShared>,
}

impl Pump<'_> {
    fn run(&mut self, rx: &mpsc::Receiver<Command>) {
        let _death = PumpDeathGuard(Arc::clone(&self.shared.jobs));
        loop {
            // Idle: publish the quiescent snapshot and block for work.
            if self.engine.is_idle() {
                self.publish_snapshot();
                match rx.recv() {
                    Ok(Command::Shutdown) | Err(_) => break,
                    Ok(cmd) => self.handle(cmd),
                }
            }
            // Busy: drain whatever queued without blocking, then step.
            let mut shutdown = false;
            while let Ok(cmd) = rx.try_recv() {
                match cmd {
                    Command::Shutdown => {
                        shutdown = true;
                        break;
                    }
                    cmd => self.handle(cmd),
                }
            }
            if shutdown {
                break;
            }
            if !self.engine.is_idle() {
                self.engine.step();
            }
            self.dispatch_events();
            self.harvest_retirements();
            self.publish_snapshot();
        }
        self.retire_live_jobs_as_cancelled();
        self.publish_snapshot();
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Submit { job, key, options } => self.submit(job, key, options),
            Command::Cancel { job } => self.cancel(job),
            Command::Shutdown => unreachable!("shutdown is intercepted by the run loop"),
        }
    }

    /// Submits `key` to the engine as request `job`. The wire layer already
    /// validated the payload, so a rejection here is a server-side bug or
    /// race — the job fails with the structured submit-rejection code either
    /// way.
    fn submit(&mut self, job: JobId, key: ResultKey, options: SubmitOptions) {
        let mut request = Request::new(job, key.prompt.clone(), key.config).with_policy(key.policy);
        request = match key.budget {
            Some(budget) => request.with_budget(budget),
            None => request.with_unbudgeted(),
        };
        let options = options.with_kv_dtype(key.dtype);
        if let Err(e) = self.engine.submit_with(request, options) {
            let wire = keyformer_serve::submit_rejection(&e);
            let mut dedup = self.shared.dedup();
            let group = dedup.take_group_of_primary(job);
            drop(dedup);
            self.fail_job(job, wire, format!("submit rejected: {e}"));
            for (follower, _) in group.into_iter().flat_map(|g| g.followers) {
                self.fail_job(follower, wire, format!("submit rejected: {e}"));
            }
        }
    }

    fn cancel(&mut self, job: JobId) {
        enum Kind {
            Done,
            Follower,
            Engine,
        }
        let kind = self
            .shared
            .jobs
            .with_job(job, |r| {
                if r.state.is_terminal() {
                    Kind::Done
                } else if r.coalesced_into.is_some() {
                    Kind::Follower
                } else {
                    Kind::Engine
                }
            })
            .unwrap_or(Kind::Done);
        match kind {
            Kind::Done => {}
            Kind::Follower => {
                self.shared.dedup().detach_follower(job);
                self.shared.jobs.update(job, |r, c| {
                    r.state = JobState::Cancelled;
                    c.cancelled += 1;
                });
            }
            Kind::Engine => {
                if !self.engine.cancel(RequestId::new(job)) {
                    // Not in the engine (e.g. it already retired this step):
                    // the event/retirement dispatch owns the record then.
                }
            }
        }
    }

    fn dispatch_events(&mut self) {
        for event in self.engine.drain_events() {
            let job = event.id.raw();
            match event.kind {
                EventKind::Queued | EventKind::Completed { .. } | EventKind::Failed { .. } => {
                    // Queued is the job's birth state; terminal retirements
                    // are harvested from `drain_retired`, which carries the
                    // payload.
                }
                EventKind::PrefillStarted | EventKind::Resumed => {
                    self.shared
                        .jobs
                        .update(job, |r, _| r.state = JobState::Running);
                }
                EventKind::Preempted => {
                    self.shared
                        .jobs
                        .update(job, |r, _| r.state = JobState::Queued);
                }
                EventKind::FirstToken { token } | EventKind::Token { token, .. } => {
                    self.shared.jobs.update(job, |r, _| r.tokens.push(token));
                }
                EventKind::Cancelled => self.finish_cancelled(job),
            }
        }
    }

    /// Applies completions and failures the engine retired since last poll,
    /// taking them out of the engine: a node runs for its whole life, so the
    /// engine must not keep every request's result.
    fn harvest_retirements(&mut self) {
        let (completions, failures) = self.engine.drain_retired();
        for completion in completions {
            self.finish_completed(completion.id.raw(), completion.output.generated);
        }
        for failure in failures {
            // A cancellation is finished from its event.
            if matches!(failure.reason, FailureReason::Cancelled) {
                continue;
            }
            let (job, wire, message) = (
                failure.id.raw(),
                failure.reason.wire(),
                failure.reason.to_string(),
            );
            let group = self.shared.dedup().take_group_of_primary(job);
            self.fail_job(job, wire, message.clone());
            for (follower, _) in group.into_iter().flat_map(|g| g.followers) {
                self.fail_job(follower, wire, message.clone());
            }
        }
    }

    /// A primary completed: publish to the cache, resolve every follower.
    fn finish_completed(&mut self, job: JobId, tokens: Vec<u32>) {
        let key = self.shared.jobs.with_job(job, |r| r.key.clone()).flatten();
        let followers = {
            let mut dedup = self.shared.dedup();
            let followers = dedup
                .take_group_of_primary(job)
                .map(|g| g.followers)
                .unwrap_or_default();
            if let Some(key) = key {
                let prompt_len = key.prompt.len();
                let now = self.shared.now_ms();
                if dedup.enabled {
                    dedup.cache.insert(
                        key,
                        CachedResult {
                            tokens: tokens.clone(),
                            prompt_len,
                        },
                        now,
                    );
                }
            }
            followers
        };
        self.shared.jobs.update(job, |r, c| {
            r.state = JobState::Done;
            r.tokens = tokens.clone();
            r.key = None;
            c.completed += 1;
        });
        for (follower, _) in followers {
            self.shared.jobs.update(follower, |r, _| {
                r.state = JobState::Done;
                r.tokens = tokens.clone();
                r.deduplicated = true;
                // The tokens are the follower's own now: detach it from the
                // primary so its stream survives the primary record's GC.
                r.coalesced_into = None;
                r.key = None;
            });
        }
    }

    /// A job the engine retired as cancelled. A primary with followers hands
    /// its group to the oldest follower, which is resubmitted to the engine —
    /// deterministic requests recompute token-identically, so follower
    /// streams continue seamlessly.
    fn finish_cancelled(&mut self, job: JobId) {
        let group = self.shared.dedup().take_group_of_primary(job);
        self.shared.jobs.update(job, |r, c| {
            r.state = JobState::Cancelled;
            r.key = None;
            c.cancelled += 1;
        });
        let Some(group) = group else {
            return;
        };
        let mut followers = group.followers.into_iter();
        let Some((promoted, promoted_options)) = followers.next() else {
            return;
        };
        let rest: Vec<(JobId, SubmitOptions)> = followers.collect();
        self.shared.jobs.update(promoted, |r, _| {
            r.state = JobState::Queued;
            r.coalesced_into = None;
        });
        for &(follower, _) in &rest {
            self.shared.jobs.update(follower, |r, _| {
                r.coalesced_into = Some(promoted);
            });
        }
        {
            let mut dedup = self.shared.dedup();
            dedup.register_inflight(group.key.clone(), promoted);
            for (follower, options) in rest {
                dedup.attach_follower(&group.key, follower, options);
            }
        }
        // The promoted run keeps the scheduling options its own request
        // carried (priority, deadline) rather than reverting to defaults.
        self.submit(promoted, group.key, promoted_options);
    }

    fn fail_job(&self, job: JobId, wire: keyformer_serve::WireCode, message: String) {
        self.shared.jobs.update(job, |r, c| {
            r.state = JobState::Failed;
            r.error = Some(JobError { wire, message });
            r.key = None;
            c.failed += 1;
        });
    }

    /// On shutdown, every job still live is retired as cancelled so waiting
    /// streams and pollers terminate instead of hanging.
    fn retire_live_jobs_as_cancelled(&mut self) {
        for job in self.shared.jobs.live_ids() {
            self.shared.jobs.update(job, |r, c| {
                r.state = JobState::Cancelled;
                r.key = None;
                c.cancelled += 1;
            });
        }
    }

    fn publish_snapshot(&self) {
        let snapshot = EngineSnapshot {
            steps: self.engine.steps(),
            queued: self.engine.queued(),
            running: self.engine.running(),
            stats: Some(*self.engine.stats()),
            pool: Some(self.engine.pool_stats()),
            registry: self.engine.registry_stats(),
        };
        *self
            .shared
            .snapshot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_core::cache::KvDtype;
    use keyformer_core::spec::PolicySpec;
    use keyformer_model::generation::GenerationConfig;

    fn key(salt: u32) -> ResultKey {
        ResultKey {
            prompt: vec![salt, 2, 3],
            policy: PolicySpec::Full,
            budget: None,
            dtype: KvDtype::F32,
            config: GenerationConfig::new(4),
        }
    }

    #[test]
    fn a_dying_pump_fails_live_jobs_and_closes_admission() {
        let engine = keyformer_serve::ServerConfig::new(PolicySpec::Full, None, 1 << 20);
        let jobs = Arc::new(JobTable::new(8));
        let (cmd, _rx) = mpsc::channel();
        let node = crate::NodeShared {
            config: crate::NodeConfig::new(ModelFamily::Tiny, 1, engine),
            pump: Arc::new(PumpShared {
                jobs: Arc::clone(&jobs),
                dedup: Arc::new(Mutex::new(DedupState::new(
                    true,
                    ResultCache::new(4, 1_000),
                ))),
                snapshot: Arc::new(Mutex::new(EngineSnapshot::default())),
                started: std::time::Instant::now(),
            }),
            cmd,
        };
        let spec = || crate::api::GenerateSpec {
            key: key(1),
            options: SubmitOptions::new(),
            stream: false,
            no_cache: false,
        };
        let queued = crate::api::admit(spec(), &node).unwrap().job();
        let running = jobs.create(3, None, JobState::Running);
        jobs.update(running, |r, _| r.tokens.push(5));
        let done = jobs.create(3, None, JobState::Done);

        // A clean exit leaves everything as it was.
        drop(PumpDeathGuard(Arc::clone(&jobs)));
        assert!(!jobs.is_closed());

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _death = PumpDeathGuard(Arc::clone(&jobs));
            panic!("a prefill worker panicked");
        }));
        assert!(unwound.is_err());
        for job in [queued, running] {
            let snap = jobs.wait_stream(job, 0, std::time::Duration::ZERO).unwrap();
            assert_eq!(snap.state, JobState::Failed, "job {job}");
            assert_eq!(snap.error.unwrap().wire, PUMP_DIED);
        }
        assert_eq!(jobs.with_job(done, |r| r.state), Some(JobState::Done));
        assert_eq!(jobs.live(), 0);
        let refused = crate::api::admit(spec(), &node).err().unwrap();
        assert_eq!((refused.status, refused.code), (503, "unavailable"));
    }

    /// After a pump has served requests, the engine holds none of their
    /// retirements; the job table has each result.
    #[test]
    fn a_pump_leaves_no_retirement_in_the_engine() {
        let model = ModelFamily::Tiny.build(1);
        let config = keyformer_serve::ServerConfig::new(PolicySpec::Full, None, 1 << 20);
        let jobs = Arc::new(JobTable::new(64));
        let shared = Arc::new(PumpShared {
            jobs: Arc::clone(&jobs),
            dedup: Arc::new(Mutex::new(DedupState::new(
                true,
                ResultCache::new(16, 1_000),
            ))),
            snapshot: Arc::new(Mutex::new(EngineSnapshot::default())),
            started: std::time::Instant::now(),
        });
        let (tx, rx) = mpsc::channel();
        let submit = |salt: u32, options: SubmitOptions| {
            let job = jobs.create(3, Some(key(salt)), JobState::Queued);
            let key = key(salt);
            tx.send(Command::Submit { job, key, options }).unwrap();
            job
        };
        let served: Vec<JobId> = (0..6)
            .map(|salt| submit(salt, SubmitOptions::new()))
            .collect();
        let expired = submit(6, SubmitOptions::new().with_deadline_steps(0));
        let cancelled = submit(7, SubmitOptions::new());
        tx.send(Command::Cancel { job: cancelled }).unwrap();
        // With every sender gone the pump serves what is queued, then exits.
        drop(tx);
        let mut pump = Pump {
            engine: Engine::new(&model, config).unwrap(),
            shared,
        };
        pump.run(&rx);

        assert!(pump.engine.is_idle());
        assert!(pump.engine.completions().is_empty(), "completions kept");
        assert!(pump.engine.failures().is_empty(), "failures kept");
        for job in served {
            let (state, tokens) = jobs.with_job(job, |r| (r.state, r.tokens.len())).unwrap();
            assert_eq!(state, JobState::Done, "job {job}");
            assert!(tokens > 0, "job {job} has no tokens");
        }
        assert_eq!(jobs.with_job(expired, |r| r.state), Some(JobState::Failed));
        assert_eq!(
            jobs.with_job(cancelled, |r| r.state),
            Some(JobState::Cancelled)
        );
    }

    #[test]
    fn followers_keep_their_submit_options_for_promotion() {
        let mut dedup = DedupState::new(true, ResultCache::new(4, 1_000));
        dedup.register_inflight(key(1), 1);
        let urgent = SubmitOptions::new().with_priority(7).with_deadline_steps(9);
        assert_eq!(dedup.attach_follower(&key(1), 2, urgent), Some(1));
        assert_eq!(
            dedup.attach_follower(&key(1), 3, SubmitOptions::new()),
            Some(1)
        );
        // A cancelled primary promotes its oldest follower with the options
        // that follower's own request carried, not the defaults.
        let group = dedup.take_group_of_primary(1).unwrap();
        assert_eq!(group.followers[0], (2, urgent));
        assert_eq!(group.followers[1], (3, SubmitOptions::new()));
        assert_eq!(dedup.inflight_groups(), 0);
    }
}
