//! The one fork-join primitive of the workspace.

/// Runs `work` on every part: the first on the calling thread, each other on
/// a scoped thread of its own, returning once all are done. A single part
/// runs inline, with no scope and no spawn. A worker's panic resumes on the
/// calling thread when the scope joins. Prefill row phases, the policy's
/// observation replay and the serving engine's decode round all split their
/// work through it.
pub fn fan_out<P: Send>(parts: impl Iterator<Item = P>, work: impl Fn(P) + Sync) {
    let mut parts = parts.peekable();
    let Some(first) = parts.next() else {
        return;
    };
    if parts.peek().is_none() {
        return work(first);
    }
    let work = &work;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || work(part));
        }
        work(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_part_runs_once_and_the_first_on_the_caller() {
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let mut slots = [0usize; 5];
        fan_out(slots.iter_mut().enumerate(), |(i, slot)| {
            *slot = i + 1;
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                assert_eq!(std::thread::current().id(), caller);
            }
        });
        assert_eq!(ran.into_inner(), 5);
        assert_eq!(slots, [1, 2, 3, 4, 5]);
        fan_out(std::iter::empty::<()>(), |_| unreachable!());
    }
}
