//! The wire protocol of the multi-tenant front-end: length-prefixed
//! JSON frames.
//!
//! **Framing.** Each message is one JSON object preceded by its byte
//! length as a 4-byte big-endian integer:
//!
//! ```text
//! ┌──────────────┬─────────────────────────┐
//! │ len: u32 BE  │ payload: len JSON bytes │
//! └──────────────┴─────────────────────────┘
//! ```
//!
//! Length-prefixing (rather than newline-delimiting) keeps the reader a
//! dumb byte accumulator: no escaping concerns, partial frames are
//! detected by arithmetic, and an oversized length ([`MAX_FRAME`]) is
//! refused before any allocation.
//!
//! **Requests** name a tenant and an operation:
//!
//! ```json
//! {"tenant": "alice", "op": "load",  "src": "person: alice."}
//! {"tenant": "alice", "op": "query", "src": "person: X",
//!  "strategy": "sld", "deadline_ms": 250}
//! {"tenant": "alice", "op": "status"}
//! ```
//!
//! **Responses** mirror [`crate::LoadReport`] / [`clogic::Answers`] /
//! the tenant listing, always carrying an `"ok"` flag; see [`Response`].
//!
//! The crate renders JSON with [`clogic_obs::Json`] and parses it with
//! the small recursive-descent [`parse_json`] here — the obs crate is
//! deliberately render-only, and this stays dependency-free.

use crate::manager::TenantStatus;
use clogic::{Answers, Strategy};
use clogic_obs::Json;

/// Upper bound on a single frame's payload (16 MiB). A length prefix
/// beyond this is a protocol error, not an allocation request.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Prepends the 4-byte big-endian length prefix to `payload`'s bytes.
/// The length is not checked: a payload over [`MAX_FRAME`] makes a frame
/// every peer refuses.
pub fn encode_frame(payload: &Json) -> Vec<u8> {
    frame(payload.to_string().as_bytes())
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Strips one complete frame off the front of `buf`, returning its
/// payload. `Ok(None)` means more bytes are needed; `Err` means the
/// stream is unframeable (oversized length) and the connection should
/// drop.
pub fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds the {MAX_FRAME} limit"));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = buf[4..total].to_vec();
    buf.drain(..total);
    Ok(Some(payload))
}

/// The operation a [`Request`] asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestOp {
    /// Load program text into the tenant.
    Load {
        /// C-logic source to load.
        src: String,
    },
    /// Retract previously loaded clauses from the tenant.
    Retract {
        /// C-logic source naming the clauses to retract (post-
        /// skolemization text, as the program renders them).
        src: String,
    },
    /// Evaluate a query against the tenant.
    Query {
        /// The query source.
        src: String,
        /// Evaluation strategy.
        strategy: Strategy,
        /// Optional deadline covering queue wait plus evaluation.
        deadline_ms: Option<u64>,
    },
    /// Report the tenant's status (and the whole tenant listing).
    Status,
    /// Probe the serving process itself: open connections, queue depth,
    /// resident sessions, drain state. Server-scoped — the `tenant`
    /// field is optional and ignored.
    Health,
}

/// One parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The tenant the operation targets.
    pub tenant: String,
    /// What to do.
    pub op: RequestOp,
}

impl Request {
    /// Parses a request from a frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("invalid UTF-8: {e}"))?;
        let json = parse_json(text)?;
        let op_name = get_str(&json, "op")?;
        // `health` is server-scoped: the tenant field is optional (and
        // ignored). Every other op addresses a tenant.
        let tenant = match (get(&json, "tenant"), op_name) {
            (Some(Json::Str(s)), _) => s.clone(),
            (Some(other), _) => {
                return Err(format!("field \"tenant\" must be a string, got {other}"))
            }
            (None, "health") => String::new(),
            (None, _) => return Err("missing field \"tenant\"".to_string()),
        };
        let op = match op_name {
            "load" => RequestOp::Load {
                src: get_str(&json, "src")?.to_string(),
            },
            "retract" => RequestOp::Retract {
                src: get_str(&json, "src")?.to_string(),
            },
            "query" => RequestOp::Query {
                src: get_str(&json, "src")?.to_string(),
                strategy: match get(&json, "strategy") {
                    Some(Json::Str(s)) => parse_strategy(s)
                        .ok_or_else(|| format!("unknown strategy {s:?}"))?,
                    Some(other) => return Err(format!("strategy must be a string, got {other}")),
                    None => Strategy::Sld,
                },
                deadline_ms: match get(&json, "deadline_ms") {
                    Some(Json::U64(ms)) => Some(*ms),
                    Some(other) => {
                        return Err(format!("deadline_ms must be an integer, got {other}"))
                    }
                    None => None,
                },
            },
            "status" => RequestOp::Status,
            "health" => RequestOp::Health,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Request { tenant, op })
    }

    /// Renders the request as a frame payload (client side).
    pub fn render_json(&self) -> Json {
        let mut fields = Vec::new();
        if !self.tenant.is_empty() || !matches!(self.op, RequestOp::Health) {
            fields.push(("tenant".to_string(), Json::Str(self.tenant.clone())));
        }
        match &self.op {
            RequestOp::Load { src } => {
                fields.push(("op".into(), Json::Str("load".into())));
                fields.push(("src".into(), Json::Str(src.clone())));
            }
            RequestOp::Retract { src } => {
                fields.push(("op".into(), Json::Str("retract".into())));
                fields.push(("src".into(), Json::Str(src.clone())));
            }
            RequestOp::Query {
                src,
                strategy,
                deadline_ms,
            } => {
                fields.push(("op".into(), Json::Str("query".into())));
                fields.push(("src".into(), Json::Str(src.clone())));
                fields.push((
                    "strategy".into(),
                    Json::Str(strategy_name(*strategy).into()),
                ));
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::U64(*ms)));
                }
            }
            RequestOp::Status => fields.push(("op".into(), Json::Str("status".into()))),
            RequestOp::Health => fields.push(("op".into(), Json::Str("health".into()))),
        }
        Json::Object(fields)
    }
}

/// One response frame, rendered with [`Response::render_json`].
#[derive(Clone, Debug)]
pub enum Response {
    /// Query answers.
    Answers {
        /// One object per answer row: variable → rendered ground term.
        rows: Vec<Vec<(String, String)>>,
        /// Whether the strategy explored its whole search space.
        complete: bool,
        /// Why evaluation stopped early, when `complete` is false.
        degradation: Option<String>,
    },
    /// A load landed (possibly read-only — check `persisted`).
    Loaded {
        /// Tenant epoch after the load.
        epoch: u64,
        /// Whether the load reached stable storage.
        persisted: bool,
        /// Whether the tenant's persistence breaker is open.
        breaker_open: bool,
    },
    /// The tenant listing.
    Status {
        /// One row per known tenant.
        tenants: Vec<TenantStatus>,
    },
    /// The serving process's own vitals (the `health` op).
    Health {
        /// Connections currently registered with the front.
        open_connections: u64,
        /// Requests waiting in the admission queue.
        queued: u64,
        /// Sessions resident in memory.
        resident: u64,
        /// Whether the front is draining toward shutdown.
        draining: bool,
    },
    /// The request failed; the connection survives.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Builds the answers response from an evaluation result.
    pub fn from_answers(a: &Answers) -> Response {
        Response::Answers {
            rows: a
                .rows
                .iter()
                .map(|row| {
                    row.bindings
                        .iter()
                        .map(|(var, term)| (var.to_string(), term.to_string()))
                        .collect()
                })
                .collect(),
            complete: a.complete,
            degradation: a.degradation.as_ref().map(|d| d.to_string()),
        }
    }

    /// The response as one wire frame. A rendering over [`MAX_FRAME`]
    /// (an answer set too big for any peer to accept — past 4 GiB its
    /// length prefix would even wrap) is replaced by a structured
    /// [`Response::Error`] naming its size and the limit, so the peer
    /// gets an answer it can decode and the connection stays usable.
    pub(crate) fn to_frame(&self) -> Vec<u8> {
        let body = self.render_json().to_string();
        if body.len() > MAX_FRAME as usize {
            return encode_frame(
                &Response::Error {
                    message: format!(
                        "response of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
                        body.len()
                    ),
                }
                .render_json(),
            );
        }
        frame(body.as_bytes())
    }

    /// Renders the response for framing.
    pub fn render_json(&self) -> Json {
        match self {
            Response::Answers {
                rows,
                complete,
                degradation,
            } => Json::Object(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "rows".into(),
                    Json::Array(
                        rows.iter()
                            .map(|row| {
                                Json::Object(
                                    row.iter()
                                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                ("complete".into(), Json::Bool(*complete)),
                (
                    "degradation".into(),
                    match degradation {
                        Some(d) => Json::Str(d.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
            Response::Loaded {
                epoch,
                persisted,
                breaker_open,
            } => Json::Object(vec![
                ("ok".into(), Json::Bool(true)),
                ("epoch".into(), Json::U64(*epoch)),
                ("persisted".into(), Json::Bool(*persisted)),
                ("breaker_open".into(), Json::Bool(*breaker_open)),
            ]),
            Response::Status { tenants } => Json::Object(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "tenants".into(),
                    Json::Array(
                        tenants
                            .iter()
                            .map(|t| {
                                Json::Object(vec![
                                    ("name".into(), Json::Str(t.name.clone())),
                                    ("state".into(), Json::Str(t.state.to_string())),
                                    (
                                        "epoch".into(),
                                        t.epoch.map(Json::U64).unwrap_or(Json::Null),
                                    ),
                                    (
                                        "breaker_open".into(),
                                        t.breaker_open.map(Json::Bool).unwrap_or(Json::Null),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Health {
                open_connections,
                queued,
                resident,
                draining,
            } => Json::Object(vec![
                ("ok".into(), Json::Bool(true)),
                ("open_connections".into(), Json::U64(*open_connections)),
                ("queued".into(), Json::U64(*queued)),
                ("resident".into(), Json::U64(*resident)),
                ("draining".into(), Json::Bool(*draining)),
            ]),
            Response::Error { message } => Json::Object(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str(message.clone())),
            ]),
        }
    }
}

/// The wire name of a strategy (lowercase, as the REPL spells them).
pub fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Direct => "direct",
        Strategy::Sld => "sld",
        Strategy::BottomUpNaive => "naive",
        Strategy::BottomUpSemiNaive => "seminaive",
        Strategy::Tabled => "tabled",
        Strategy::Magic => "magic",
    }
}

/// Parses a wire strategy name (the same vocabulary as the REPL).
pub fn parse_strategy(name: &str) -> Option<Strategy> {
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

/// Looks up `key` in a JSON object.
pub fn get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    match get(json, key) {
        Some(Json::Str(s)) => Ok(s),
        Some(other) => Err(format!("field {key:?} must be a string, got {other}")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Parses a JSON document into a [`Json`] value — the counterpart of
/// [`Json`]'s renderer, kept here because `clogic-obs` is deliberately
/// render-only. Accepts exactly one value plus surrounding whitespace.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at offset {pos}, found {:?}",
            b as char,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected {:?} at offset {pos}", *c as char)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            expect(bytes, pos, b'\\')?;
                            expect(bytes, pos, b'u')?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".to_string());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("invalid escape \\{}", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 character (the input is a &str, so
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let hex = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "invalid \\u escape")?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape {hex:?}"))?;
    *pos = end;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if let Ok(u) = text.parse::<u64>() {
        return Ok(Json::U64(u));
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("invalid number {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_split() {
        let a = Json::Object(vec![("x".into(), Json::U64(1))]);
        let b = Json::Str("héllo \"quoted\"\n".into());
        let mut buf = encode_frame(&a);
        buf.extend_from_slice(&encode_frame(&b));
        let first = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(parse_json(std::str::from_utf8(&first).unwrap()).unwrap(), a);
        let second = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(
            parse_json(std::str::from_utf8(&second).unwrap()).unwrap(),
            b
        );
        assert!(buf.is_empty());
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let full = encode_frame(&Json::U64(42));
        for cut in 0..full.len() {
            let mut partial = full[..cut].to_vec();
            assert_eq!(decode_frame(&mut partial).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"whatever");
        assert!(decode_frame(&mut buf).is_err());
    }

    #[test]
    fn json_parser_round_trips_the_renderer() {
        let value = Json::Object(vec![
            ("null".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            ("n".into(), Json::U64(18_446_744_073_709_551_615)),
            ("f".into(), Json::F64(1.5)),
            ("s".into(), Json::Str("tab\there \\ \"q\" ☃".into())),
            (
                "arr".into(),
                Json::Array(vec![Json::U64(1), Json::Null, Json::Str("x".into())]),
            ),
            ("empty_obj".into(), Json::Object(vec![])),
            ("empty_arr".into(), Json::Array(vec![])),
        ]);
        let parsed = parse_json(&value.to_string()).unwrap();
        assert_eq!(parsed, value);
    }

    #[test]
    fn json_parser_handles_escapes_and_negatives() {
        let parsed = parse_json(r#"{"u": "é😀", "neg": -2.5}"#).unwrap();
        assert_eq!(get(&parsed, "u"), Some(&Json::Str("é😀".into())));
        assert_eq!(get(&parsed, "neg"), Some(&Json::F64(-2.5)));
    }

    #[test]
    fn request_round_trip() {
        for req in [
            Request {
                tenant: "alice".into(),
                op: RequestOp::Load {
                    src: "t: a.".into(),
                },
            },
            Request {
                tenant: "alice".into(),
                op: RequestOp::Retract {
                    src: "t: a.".into(),
                },
            },
            Request {
                tenant: "bob".into(),
                op: RequestOp::Query {
                    src: "t: X".into(),
                    strategy: Strategy::Magic,
                    deadline_ms: Some(250),
                },
            },
            Request {
                tenant: "c".into(),
                op: RequestOp::Status,
            },
            Request {
                tenant: String::new(),
                op: RequestOp::Health,
            },
        ] {
            let rendered = req.render_json().to_string();
            assert_eq!(Request::parse(rendered.as_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (payload, needle) in [
            (r#"{"op": "load", "src": "t: a."}"#, "tenant"),
            (r#"{"tenant": "a", "op": "dance"}"#, "unknown op"),
            (
                r#"{"tenant": "a", "op": "query", "src": "q", "strategy": "zen"}"#,
                "unknown strategy",
            ),
            ("not json", "invalid literal"),
        ] {
            let err = Request::parse(payload.as_bytes()).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn health_is_server_scoped_but_tolerates_a_tenant() {
        // Tenant-less health parses; a tenant-bearing one does too.
        let req = Request::parse(br#"{"op": "health"}"#).unwrap();
        assert_eq!(req.op, RequestOp::Health);
        assert_eq!(req.tenant, "");
        let req = Request::parse(br#"{"tenant": "a", "op": "health"}"#).unwrap();
        assert_eq!(req.op, RequestOp::Health);
        // Other ops still require the tenant field.
        let err = Request::parse(br#"{"op": "status"}"#).unwrap_err();
        assert!(err.contains("tenant"), "{err}");
        let rendered = Response::Health {
            open_connections: 3,
            queued: 1,
            resident: 2,
            draining: false,
        }
        .render_json();
        assert_eq!(get(&rendered, "ok"), Some(&Json::Bool(true)));
        assert_eq!(get(&rendered, "open_connections"), Some(&Json::U64(3)));
        assert_eq!(get(&rendered, "draining"), Some(&Json::Bool(false)));
    }

    #[test]
    fn all_strategies_have_wire_names() {
        for s in Strategy::ALL {
            assert_eq!(parse_strategy(strategy_name(s)), Some(s));
        }
    }
}
