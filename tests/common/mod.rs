//! Helpers shared by the integration tests.

use clogic::folog::Budget;
use clogic::session::{Answers, Session, SessionError, Strategy};

/// Answers `q` by evaluating it under `strategy` on the session's current
/// snapshot (published first if a write made it stale), bypassing the
/// answer cache. `Session::query` shares that cache across strategies, so
/// a test that loops over strategies on one session would otherwise
/// evaluate only the first and serve its answers to the rest.
pub fn evaluate(s: &mut Session, q: &str, strategy: Strategy) -> Result<Answers, SessionError> {
    if s.current_snapshot().map(|snap| snap.epoch()) != Some(s.epoch()) {
        s.prepare()?;
    }
    let snap = s.current_snapshot().expect("prepare publishes");
    snap.query(q, strategy, &Budget::unlimited())
}
