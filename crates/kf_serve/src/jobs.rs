//! The job table: every accepted generate call becomes a job with a monotonic
//! id and a small state machine fed by the engine's event stream.
//!
//! Connection threads read and block on the table (status polls, streaming
//! drains); the engine pump writes to it. A [`std::sync::Condvar`] broadcast
//! on every mutation is what turns the per-request event drain into a
//! chunked-streaming response without the wire layer ever touching the
//! engine.
//!
//! Job ids double as engine [`RequestId`](keyformer_serve::RequestId)s, so
//! the pump needs no translation table in either direction.

use crate::cache::ResultKey;
use keyformer_serve::WireCode;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Monotonic identifier of one accepted generate call.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet prefilling (or coalesced behind a running twin).
    Queued,
    /// Admitted: prefilling or decoding.
    Running,
    /// Finished; `tokens` holds the full result.
    Done,
    /// Retired without a result; `error` says why.
    Failed,
    /// Cancelled by the caller (or by server shutdown).
    Cancelled,
}

impl JobState {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable lowercase label used on the wire.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A wire-level error attached to a failed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// Stable machine-readable code and HTTP status.
    pub wire: WireCode,
    /// Human-readable detail.
    pub message: String,
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's id (also its engine request id).
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Tokens surfaced so far (the full result once `Done`).
    pub tokens: Vec<u32>,
    /// Prompt length, for telemetry.
    pub prompt_len: usize,
    /// `true` when the result came from the cache or a coalesced twin rather
    /// than a fresh engine run.
    pub deduplicated: bool,
    /// When this job is an in-flight duplicate, the id of the primary job
    /// actually running on the engine.
    pub coalesced_into: Option<JobId>,
    /// Why the job failed (`Failed` only).
    pub error: Option<JobError>,
    /// The request's resolved cache key, kept so the pump can publish the
    /// result under it on completion. `None` once consumed or for jobs that
    /// never ran (cache hits).
    pub key: Option<ResultKey>,
}

/// Aggregate counters of the job layer, reported by `GET /v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct JobCounters {
    /// Jobs accepted (including cache hits and coalesced duplicates).
    pub submitted: u64,
    /// Jobs finished with a result from a fresh engine run.
    pub completed: u64,
    /// Jobs answered straight from the result cache.
    pub cache_hits: u64,
    /// Jobs attached to an in-flight twin's result.
    pub coalesced: u64,
    /// Jobs retired as failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
}

struct Jobs {
    next_id: JobId,
    jobs: HashMap<JobId, JobRecord>,
    /// Terminal jobs in retirement order, oldest first, for capacity GC.
    retired: VecDeque<JobId>,
    counters: JobCounters,
    /// Set by [`JobTable::close`]: no job will ever run again.
    closed: bool,
}

/// What a streaming drain learns from one wait on the table: the tokens newly
/// surfaced past the reader's cursor and the job's current state.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Tokens past the reader's cursor (empty when nothing new surfaced).
    pub new_tokens: Vec<u32>,
    /// The job's state at snapshot time.
    pub state: JobState,
    /// Whether the result was served without a fresh engine run.
    pub deduplicated: bool,
    /// The failure, when `state` is [`JobState::Failed`].
    pub error: Option<JobError>,
}

/// The shared job table: a mutex-guarded map plus a condvar broadcast on
/// every mutation. Retains at most `retained_jobs` *terminal* records
/// (oldest-retired dropped first) so an immortal server's table stays
/// bounded; live jobs are never dropped.
pub struct JobTable {
    inner: Mutex<Jobs>,
    changed: Condvar,
    retained_jobs: usize,
}

impl JobTable {
    /// An empty table retaining at most `retained_jobs` finished records.
    pub fn new(retained_jobs: usize) -> Self {
        JobTable {
            inner: Mutex::new(Jobs {
                next_id: 1,
                jobs: HashMap::new(),
                retired: VecDeque::new(),
                counters: JobCounters::default(),
                closed: false,
            }),
            changed: Condvar::new(),
            retained_jobs: retained_jobs.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Jobs> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Creates a job in `state` and returns its id. `key` is retained on the
    /// record for the pump's completion-time cache insert. A job born terminal
    /// (a cache hit) joins the retirement ring immediately so it obeys the
    /// retention cap like every other finished record. Creates even on a
    /// closed table; the wire layer admits through [`JobTable::try_create`].
    pub fn create(&self, prompt_len: usize, key: Option<ResultKey>, state: JobState) -> JobId {
        let mut jobs = self.lock();
        self.insert(&mut jobs, prompt_len, key, state)
    }

    /// [`JobTable::create`], unless the table is closed: then `None`, and no
    /// job exists that nothing will ever finish. The check and the insert
    /// share one lock hold with [`JobTable::close`]'s sweep, so a job is
    /// either swept or refused.
    pub fn try_create(
        &self,
        prompt_len: usize,
        key: Option<ResultKey>,
        state: JobState,
    ) -> Option<JobId> {
        let mut jobs = self.lock();
        (!jobs.closed).then(|| self.insert(&mut jobs, prompt_len, key, state))
    }

    fn insert(
        &self,
        jobs: &mut Jobs,
        prompt_len: usize,
        key: Option<ResultKey>,
        state: JobState,
    ) -> JobId {
        let id = jobs.next_id;
        jobs.next_id += 1;
        jobs.counters.submitted += 1;
        jobs.jobs.insert(
            id,
            JobRecord {
                id,
                state,
                tokens: Vec::new(),
                prompt_len,
                deduplicated: false,
                coalesced_into: None,
                error: None,
                key,
            },
        );
        if state.is_terminal() {
            jobs.retired.push_back(id);
        }
        self.gc(jobs);
        self.changed.notify_all();
        id
    }

    /// Closes the table for good: every live job fails with `wire` and
    /// `message`, and [`JobTable::try_create`] refuses from then on. For an
    /// engine that can no longer run anything — its waiters get a terminal
    /// state instead of blocking forever. Returns how many jobs it failed.
    pub fn close(&self, wire: WireCode, message: &str) -> usize {
        let mut jobs = self.lock();
        jobs.closed = true;
        let live: Vec<JobId> = jobs
            .jobs
            .values()
            .filter(|r| !r.state.is_terminal())
            .map(|r| r.id)
            .collect();
        for &id in &live {
            if let Some(record) = jobs.jobs.get_mut(&id) {
                record.state = JobState::Failed;
                record.error = Some(JobError {
                    wire,
                    message: message.to_string(),
                });
                record.key = None;
            }
            jobs.counters.failed += 1;
            jobs.retired.push_back(id);
        }
        self.gc(&mut jobs);
        self.changed.notify_all();
        live.len()
    }

    /// `true` once [`JobTable::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Reads `job` under the lock (`None` for unknown/garbage-collected ids).
    pub fn with_job<R>(&self, job: JobId, f: impl FnOnce(&JobRecord) -> R) -> Option<R> {
        self.lock().jobs.get(&job).map(f)
    }

    /// Mutates `job` under the lock and wakes every waiter. Counter updates
    /// ride through the same closure via the second argument. Returns `false`
    /// for unknown ids.
    pub fn update(&self, job: JobId, f: impl FnOnce(&mut JobRecord, &mut JobCounters)) -> bool {
        let mut jobs = self.lock();
        let Some(mut record) = jobs.jobs.remove(&job) else {
            return false;
        };
        let was_terminal = record.state.is_terminal();
        f(&mut record, &mut jobs.counters);
        let now_terminal = record.state.is_terminal();
        jobs.jobs.insert(job, record);
        if now_terminal && !was_terminal {
            jobs.retired.push_back(job);
            self.gc(&mut jobs);
        }
        self.changed.notify_all();
        true
    }

    /// Drops oldest-retired terminal records past the retention cap.
    fn gc(&self, jobs: &mut Jobs) {
        while jobs.retired.len() > self.retained_jobs {
            if let Some(old) = jobs.retired.pop_front() {
                jobs.jobs.remove(&old);
            }
        }
    }

    /// Aggregate counters.
    pub fn counters(&self) -> JobCounters {
        self.lock().counters
    }

    /// Jobs currently live (non-terminal) in the table.
    pub fn live(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|r| !r.state.is_terminal())
            .count()
    }

    /// Ids of every live (non-terminal) job, ascending.
    pub fn live_ids(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .lock()
            .jobs
            .values()
            .filter(|r| !r.state.is_terminal())
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Blocks until `job` (or, for a coalesced duplicate, its primary) has
    /// surfaced tokens past `cursor` or reached a terminal state — or until
    /// `timeout` lapses, whichever is first. Tokens are read from the primary
    /// when coalesced; state and error from the job itself, so cancelling one
    /// duplicate stops only that stream. Returns `None` for unknown ids.
    pub fn wait_stream(
        &self,
        job: JobId,
        cursor: usize,
        timeout: Duration,
    ) -> Option<StreamSnapshot> {
        let deadline = std::time::Instant::now() + timeout;
        let mut jobs = self.lock();
        loop {
            let record = jobs.jobs.get(&job)?;
            let source = record.coalesced_into.unwrap_or(job);
            let tokens = jobs.jobs.get(&source).map(|r| r.tokens.as_slice());
            let record = jobs.jobs.get(&job)?;
            let new_tokens: Vec<u32> = tokens
                .map(|t| t.get(cursor..).unwrap_or_default().to_vec())
                .unwrap_or_default();
            if !new_tokens.is_empty() || record.state.is_terminal() {
                return Some(StreamSnapshot {
                    new_tokens,
                    state: record.state,
                    deduplicated: record.deduplicated,
                    error: record.error.clone(),
                });
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Some(StreamSnapshot {
                    new_tokens: Vec::new(),
                    state: record.state,
                    deduplicated: record.deduplicated,
                    error: record.error.clone(),
                });
            }
            let (guard, _) = self
                .changed
                .wait_timeout(jobs, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            jobs = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn create_update_and_read_back() {
        let table = JobTable::new(8);
        let id = table.create(3, None, JobState::Queued);
        assert_eq!(id, 1);
        assert_eq!(table.with_job(id, |r| r.state), Some(JobState::Queued));
        assert!(table.update(id, |r, c| {
            r.state = JobState::Done;
            r.tokens = vec![4, 5];
            c.completed += 1;
        }));
        assert_eq!(table.with_job(id, |r| r.tokens.clone()), Some(vec![4, 5]));
        assert_eq!(table.counters().completed, 1);
        assert_eq!(table.counters().submitted, 1);
        assert!(!table.update(999, |_, _| {}));
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn terminal_records_are_garbage_collected_oldest_first() {
        let table = JobTable::new(2);
        let ids: Vec<JobId> = (0..4)
            .map(|_| {
                let id = table.create(1, None, JobState::Queued);
                table.update(id, |r, _| r.state = JobState::Done);
                id
            })
            .collect();
        // The two oldest retirees are gone; the two newest remain.
        assert!(table.with_job(ids[0], |_| ()).is_none());
        assert!(table.with_job(ids[1], |_| ()).is_none());
        assert!(table.with_job(ids[2], |_| ()).is_some());
        assert!(table.with_job(ids[3], |_| ()).is_some());
        // Live jobs are never collected, however many retire after them.
        let live = table.create(1, None, JobState::Running);
        for _ in 0..4 {
            let id = table.create(1, None, JobState::Queued);
            table.update(id, |r, _| r.state = JobState::Cancelled);
        }
        assert!(table.with_job(live, |_| ()).is_some());
    }

    #[test]
    fn terminal_born_jobs_obey_the_retention_cap() {
        // Cache hits create jobs already Done; they must join the retirement
        // ring at birth or repeated hits grow the table without bound.
        let table = JobTable::new(2);
        let ids: Vec<JobId> = (0..5)
            .map(|_| table.create(1, None, JobState::Done))
            .collect();
        assert!(table.with_job(ids[0], |_| ()).is_none());
        assert!(table.with_job(ids[1], |_| ()).is_none());
        assert!(table.with_job(ids[2], |_| ()).is_none());
        assert!(table.with_job(ids[3], |_| ()).is_some());
        assert!(table.with_job(ids[4], |_| ()).is_some());
        // The cache-hit path fills tokens right after the terminal-born
        // create; the record must still be readable then.
        let hit = table.create(1, None, JobState::Done);
        assert!(table.update(hit, |r, _| r.tokens.push(1)));
        assert_eq!(table.with_job(hit, |r| r.tokens.clone()), Some(vec![1]));
    }

    #[test]
    fn wait_stream_sees_tokens_and_terminal_states() {
        let table = Arc::new(JobTable::new(8));
        let id = table.create(1, None, JobState::Running);
        // Nothing new within the timeout: an empty, non-terminal snapshot.
        let snap = table.wait_stream(id, 0, Duration::from_millis(10)).unwrap();
        assert!(snap.new_tokens.is_empty());
        assert_eq!(snap.state, JobState::Running);

        let writer = Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            writer.update(id, |r, _| r.tokens.push(7));
            writer.update(id, |r, _| {
                r.tokens.push(9);
                r.state = JobState::Done;
            });
        });
        let mut seen = Vec::new();
        let mut cursor = 0;
        loop {
            let snap = table
                .wait_stream(id, cursor, Duration::from_secs(5))
                .unwrap();
            cursor += snap.new_tokens.len();
            seen.extend(snap.new_tokens);
            if snap.state.is_terminal() {
                break;
            }
        }
        handle.join().unwrap();
        assert_eq!(seen, vec![7, 9]);
    }

    #[test]
    fn coalesced_streams_read_primary_tokens_but_own_state() {
        let table = JobTable::new(8);
        let primary = table.create(1, None, JobState::Running);
        let follower = table.create(1, None, JobState::Queued);
        table.update(follower, |r, _| r.coalesced_into = Some(primary));
        table.update(primary, |r, _| r.tokens.extend([1, 2, 3]));
        let snap = table
            .wait_stream(follower, 0, Duration::from_millis(10))
            .unwrap();
        assert_eq!(snap.new_tokens, vec![1, 2, 3]);
        assert_eq!(snap.state, JobState::Queued, "state is the follower's own");
    }

    #[test]
    fn closing_fails_live_jobs_and_refuses_new_ones() {
        let table = JobTable::new(8);
        let queued = table.create(1, None, JobState::Queued);
        let running = table.create(1, None, JobState::Running);
        let done = table.create(1, None, JobState::Done);
        assert!(table.try_create(1, None, JobState::Queued).is_some());
        let wire = WireCode {
            code: "internal_error",
            status: 500,
        };
        assert_eq!(table.close(wire, "gone"), 3);
        for job in [queued, running] {
            let snap = table.wait_stream(job, 0, Duration::ZERO).unwrap();
            assert_eq!(snap.state, JobState::Failed);
            assert_eq!(snap.error.unwrap().wire, wire);
        }
        assert_eq!(table.with_job(done, |r| r.state), Some(JobState::Done));
        assert!(table.is_closed());
        assert_eq!(table.try_create(1, None, JobState::Queued), None);
        assert_eq!(table.live(), 0);
        assert_eq!(table.counters().failed, 3);
    }
}
