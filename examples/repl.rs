//! An interactive C-logic top level.
//!
//! ```text
//! cargo run --example repl
//! ?- person: john[age => 28].        % assert a fact (ends with '.')
//! ?- :- person: X[age => A].         % ask a query
//! X = john, A = 28
//! ?- :strategy tabled                % switch evaluation strategy
//! ?- :program                        % show the loaded program
//! ?- :translated                     % show the Theorem 1 translation
//! ?- :save db                       % persist the session to ./db
//! ?- :open db                       % recover a session from ./db
//! ?- :explain person: X[age => A]   % profile the query (EXPLAIN mode)
//! ?- :metrics                       % dump the metrics registry
//! ?- :serve tenants 8               % serve many tenants from ./tenants
//! ?- :tenant alice                  % switch the current tenant
//! ?- :tenants                       % list tenants (state/epoch/breaker)
//! ?- :local                         % detach, back to the local session
//! ?- :quit
//! ```
//!
//! Lines starting with `:-` (or `?-`) are queries; other clause-shaped
//! lines extend the program.
//!
//! The top level is hardened: parse errors print *all* their diagnostics
//! with positions, evaluation panics are caught and reported, and no
//! error short of stdin closing ends the loop. A session opened (or
//! saved) with `:open`/`:save` logs every load durably and survives a
//! crash — reopen it to recover, and the recovery report prints what was
//! found on disk.

use clogic::obs::Render;
use clogic::session::{Session, SessionError, Strategy};
use clogic::store::{FileStorage, Storage};
use clogic_serve::{ManagerOptions, SessionManager, StorageFactory};
use std::fmt::Display;
use std::io::{self, BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

fn parse_strategy(name: &str) -> Option<Strategy> {
    match name.trim().to_ascii_lowercase().as_str() {
        "direct" => Some(Strategy::Direct),
        "sld" => Some(Strategy::Sld),
        "naive" => Some(Strategy::BottomUpNaive),
        "seminaive" | "semi-naive" => Some(Strategy::BottomUpSemiNaive),
        "tabled" | "tabling" => Some(Strategy::Tabled),
        "magic" => Some(Strategy::Magic),
        _ => None,
    }
}

/// Prints a (possibly multi-line) diagnostic, one `!`-prefixed line per
/// underlying error, so a recovered parse with three bad clauses shows
/// three positioned messages.
fn report_error(e: &dyn Display) {
    for line in e.to_string().lines() {
        println!("! {line}");
    }
}

/// Runs a session action behind a panic guard: an engine bug becomes a
/// printed diagnostic, never an exit. The session itself is plain data
/// (no poisoned locks), so it stays usable afterwards.
fn guarded<T>(action: impl FnOnce() -> Result<T, SessionError>) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(action)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            report_error(&e);
            None
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            println!("! internal error (caught panic): {msg}");
            None
        }
    }
}

fn main() {
    let mut session = Session::new();
    let mut strategy = Strategy::Direct;
    // `:serve` attaches a multi-tenant manager; while attached, loads
    // and queries route to the current tenant instead of `session`.
    let mut serve: Option<(SessionManager, String)> = None;
    let stdin = io::stdin();
    let mut out = io::stdout();

    println!("C-logic top level (strategy: {strategy:?}). Type :help for commands.");
    loop {
        print!("?- ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                report_error(&format!("cannot read input: {e}"));
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix(':') {
            let mut words = cmd.split_whitespace();
            match words.next() {
                Some("quit") | Some("q") => break,
                Some("help") => {
                    println!(
                        ":strategy <direct|sld|naive|seminaive|tabled|magic>\n\
                         :program       show the loaded program\n\
                         :retract <cls> retract loaded clauses (as :program shows them)\n\
                         :translated    show the first-order translation\n\
                         :save <path>   persist the session to a directory (then keep logging)\n\
                         :open <path>   recover a session from a directory\n\
                         :snapshot      compact the write-ahead log now\n\
                         :store         show persistence health (circuit breaker)\n\
                         :explain <q>   profile query <q> under the current strategy (current tenant in serve mode)\n\
                         :metrics       dump the session's metrics registry\n\
                         :serve <dir> [cap]  serve many tenants from <dir> (LRU capacity cap)\n\
                         :tenant <name> switch the current tenant (serve mode)\n\
                         :tenants       list tenants: state, epoch, breaker\n\
                         :local         detach the manager, back to the local session\n\
                         :quit"
                    );
                }
                Some("strategy") => match words.next().and_then(parse_strategy) {
                    Some(s) => {
                        strategy = s;
                        println!("strategy: {strategy:?}");
                    }
                    None => println!("unknown strategy"),
                },
                Some("program") => match &serve {
                    Some((mgr, tenant)) => match mgr.open(tenant) {
                        Ok(pin) => {
                            let s = pin.lock().unwrap_or_else(|e| e.into_inner());
                            print!("{}", s.program());
                        }
                        Err(e) => report_error(&e),
                    },
                    None => print!("{}", session.program()),
                },
                Some("retract") => {
                    let src = cmd["retract".len()..].trim();
                    if src.is_empty() {
                        println!("usage: :retract <clause(s)>   (quote skolemized facts as :program shows them)");
                    } else {
                        match &serve {
                            Some((mgr, tenant)) => match mgr.retract(tenant, src) {
                                Ok(report) => println!(
                                    "retracted (tenant `{tenant}`, epoch {}, {})",
                                    report.epoch,
                                    if report.persisted() {
                                        "persisted"
                                    } else {
                                        "NOT persisted"
                                    }
                                ),
                                Err(e) => report_error(&e),
                            },
                            None => {
                                if guarded(|| session.retract(src)).is_some() {
                                    println!("retracted (epoch {})", session.epoch());
                                }
                            }
                        }
                    }
                }
                Some("translated") => {
                    let shown = guarded(|| {
                        let text = session.translated().to_string();
                        print!("{text}");
                        Ok(())
                    });
                    if shown.is_none() {
                        println!("! translation failed; program unchanged");
                    }
                }
                Some("save") if serve.is_some() => {
                    println!("! :save targets the local session; :local to detach first");
                }
                Some("save") => match words.next() {
                    Some(path) => {
                        if guarded(|| session.save(path)).is_some() {
                            println!("saved to `{path}`; further loads are logged durably");
                        }
                    }
                    None => println!("usage: :save <path>"),
                },
                Some("open") if serve.is_some() => {
                    println!("! :open targets the local session; :local to detach first");
                }
                Some("open") => match words.next() {
                    Some(path) => {
                        if let Some((recovered, report)) = guarded(|| Session::persistent(path)) {
                            session = recovered;
                            for l in report.to_string().lines() {
                                println!("% {l}");
                            }
                        }
                    }
                    None => println!("usage: :open <path>"),
                },
                Some("snapshot") if serve.is_some() => {
                    println!("! :snapshot targets the local session; :local to detach first");
                }
                Some("snapshot") => {
                    if guarded(|| session.snapshot()).is_some() {
                        println!("log compacted into snapshot");
                    }
                }
                Some("store") if serve.is_some() => print_tenants(&serve),
                Some("store") => {
                    if session.persistence_breaker_open() {
                        println!(
                            "% circuit breaker OPEN: persistence suspended; \
                             queries keep working, loads stay in memory"
                        );
                    } else {
                        println!("% persistence healthy (circuit breaker closed)");
                    }
                }
                Some("explain") => {
                    let query = cmd["explain".len()..].trim();
                    let profile = if query.is_empty() {
                        println!("usage: :explain <query>");
                        None
                    } else if let Some((mgr, tenant)) = &serve {
                        // The tenant's current snapshot, as its queries see it.
                        match mgr.open(tenant) {
                            Ok(pin) => guarded(|| {
                                pin.lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .explain(query, strategy)
                            }),
                            Err(e) => {
                                report_error(&e);
                                None
                            }
                        }
                    } else {
                        guarded(|| session.explain(query, strategy))
                    };
                    if let Some(profile) = profile {
                        println!("{}", profile.render_text());
                    }
                }
                Some("metrics") => {
                    let text = match &serve {
                        Some((mgr, _)) => mgr.obs().metrics.snapshot().render_text(),
                        None => session.metrics().render_text(),
                    };
                    if text.is_empty() {
                        println!("% no metrics recorded yet");
                    } else {
                        println!("{text}");
                    }
                }
                Some("serve") => match words.next() {
                    Some(dir) => {
                        let capacity = words.next().and_then(|w| w.parse().ok()).unwrap_or(8);
                        match attach_manager(dir, capacity) {
                            Ok(mgr) => {
                                serve = Some((mgr, "default".to_string()));
                                println!(
                                    "serving tenants from `{dir}` (LRU capacity {capacity}); \
                                     current tenant `default` — :tenant <name> to switch, \
                                     :local to detach"
                                );
                            }
                            Err(e) => report_error(&e),
                        }
                    }
                    None => println!("usage: :serve <dir> [capacity]"),
                },
                Some("tenant") => match (&mut serve, words.next()) {
                    (Some((_, tenant)), Some(name)) => {
                        *tenant = name.to_string();
                        println!("tenant: {name}");
                    }
                    (None, _) => println!("no manager attached; :serve <dir> first"),
                    (_, None) => println!("usage: :tenant <name>"),
                },
                Some("tenants") => print_tenants(&serve),
                Some("local") => {
                    if serve.take().is_some() {
                        println!("detached; back to the local in-memory session");
                    } else {
                        println!("already local");
                    }
                }
                Some("-") => {
                    // ":- query." typed at the prompt
                    let query = cmd.trim_start_matches('-');
                    match &serve {
                        Some((mgr, tenant)) => run_query_multi(mgr, tenant, query, strategy),
                        None => run_query(&mut session, query, strategy),
                    }
                }
                _ => println!("unknown command; :help"),
            }
            continue;
        }
        if let Some(query) = line.strip_prefix("?-") {
            match &serve {
                Some((mgr, tenant)) => run_query_multi(mgr, tenant, query, strategy),
                None => run_query(&mut session, query, strategy),
            }
            continue;
        }
        // Otherwise: program text.
        match &serve {
            Some((mgr, tenant)) => match mgr.load(tenant, line) {
                Ok(report) => {
                    println!(
                        "ok (tenant `{tenant}`, epoch {}, {})",
                        report.epoch,
                        if report.persisted() { "persisted" } else { "NOT persisted" }
                    );
                    if report.breaker_open {
                        println!(
                            "% warning: tenant breaker open — loads stay in memory \
                             until the store heals"
                        );
                    }
                }
                Err(e) => report_error(&e),
            },
            None => {
                if guarded(|| session.load(line)).is_some() {
                    println!("ok");
                }
            }
        }
    }
}

/// Builds a [`SessionManager`] whose tenants each persist to their own
/// subdirectory of `dir`.
fn attach_manager(dir: &str, capacity: usize) -> Result<SessionManager, clogic::store::StoreError> {
    let root = std::path::PathBuf::from(dir);
    FileStorage::create(&root)?;
    let factory: StorageFactory = Arc::new(move |name| {
        Ok(Box::new(FileStorage::create(root.join(name))?) as Box<dyn Storage>)
    });
    Ok(SessionManager::new(
        factory,
        ManagerOptions {
            capacity,
            ..ManagerOptions::default()
        },
    ))
}

/// The `:tenants` listing — one line per tenant with lifecycle state,
/// epoch, and persistence-breaker health.
fn print_tenants(serve: &Option<(SessionManager, String)>) {
    let Some((mgr, current)) = serve else {
        println!("no manager attached; :serve <dir> first");
        return;
    };
    let tenants = mgr.tenants();
    if tenants.is_empty() {
        println!("% no tenants yet");
        return;
    }
    println!("% {} resident of {} known", mgr.resident(), tenants.len());
    for t in tenants {
        println!(
            "% {}{} — {}, epoch {}, breaker {}",
            t.name,
            if t.name == *current { " (current)" } else { "" },
            t.state,
            t.epoch.map_or_else(|| "?".to_string(), |e| e.to_string()),
            match t.breaker_open {
                Some(true) => "OPEN",
                Some(false) => "closed",
                None => "-",
            },
        );
    }
}

/// Routes a query to the current tenant through the manager (which
/// transparently recovers the tenant if it was evicted).
fn run_query_multi(mgr: &SessionManager, tenant: &str, query: &str, strategy: Strategy) {
    match mgr.query(tenant, query, strategy) {
        Ok(answers) => {
            if answers.rows.is_empty() {
                println!("no");
            } else {
                for row in &answers.rows {
                    println!("{row}");
                }
            }
            if !answers.complete {
                match &answers.degradation {
                    Some(d) => println!("% incomplete: {d}"),
                    None => println!("% warning: search truncated by resource limits"),
                }
            }
        }
        Err(e) => report_error(&e),
    }
}

fn run_query(session: &mut Session, query: &str, strategy: Strategy) {
    let Some(answers) = guarded(|| session.query(query, strategy)) else {
        return;
    };
    if answers.rows.is_empty() {
        println!("no");
    } else {
        for row in &answers.rows {
            println!("{row}");
        }
    }
    if !answers.complete {
        match &answers.degradation {
            Some(d) => println!("% incomplete: {d}"),
            None => println!("% warning: search truncated by resource limits"),
        }
    }
    // The session is reused across the whole top-level run, so repeated
    // queries — under any strategy — hit the snapshot's answer cache
    // until the next load, and loads only cost their delta.
    let stats = session.cache_stats();
    println!(
        "% epoch {} | answer cache: {} hit{}, {} miss{}",
        session.epoch(),
        stats.hits,
        if stats.hits == 1 { "" } else { "s" },
        stats.misses,
        if stats.misses == 1 { "" } else { "es" },
    );
    if session.persistence_breaker_open() {
        println!("% warning: persistence circuit breaker open — answers served read-only");
    }
}
