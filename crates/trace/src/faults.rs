//! Deterministic, script-driven fault plans for the streaming transport.
//!
//! A [`FaultPlan`] describes *where in the byte stream* a transport fault
//! fires and *what it does* — sever the connection, tear or corrupt a
//! frame, stall, or drip bytes slow-loris style. Plans are seedless: the
//! same plan applied to the same frame stream produces the same faulty
//! byte sequence every time, which is what makes a reported failure
//! reproducible from the command line (`critlock push --fault-plan ...`).
//!
//! Besides the plan data — parsing, rendering and the built-in plan
//! catalog — the module holds the injector that applies a plan:
//! [`FaultStream`] wraps a [`net::Stream`](crate::net::Stream) and
//! applies the plan to its *write* path. The byte counter and the
//! fired-state of each one-shot action live in a shared [`FaultState`],
//! so a plan keeps its position across the reconnects it provokes —
//! `cut@900;cut@2500` means "kill the first connection at byte 900 of the
//! push, kill the retry at cumulative byte 2500". Faults are injected
//! client-side (`critlock push --fault-plan`, the forwarder's
//! `--forward-fault-plan` and the robustness tests) so the collector
//! under test runs the same code it runs in production.
//!
//! ## Plan syntax
//!
//! A plan is a `;`-separated list of actions, each anchored at an
//! absolute byte offset of the written stream:
//!
//! | action             | meaning                                           |
//! |--------------------|---------------------------------------------------|
//! | `cut@N`            | sever the connection once N bytes have been sent  |
//! | `trunc@N+M`        | at offset N, silently discard M bytes, then sever |
//! | `flip@N`           | XOR the byte at offset N with 0x40                |
//! | `stall@N:MS`       | at offset N, stop writing for MS milliseconds     |
//! | `loris@N:CHUNK:MS` | from offset N on, write CHUNK bytes every MS ms   |
//!
//! Example: `cut@4096;flip@9000` severs the first connection after 4 KiB
//! and, once the producer has reconnected and streamed past byte 9000
//! (cumulative), corrupts one frame.

use crate::net::{Addr, Stream};
use std::fmt;
use std::io::{self, Read, Write};
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The bit mask `flip@N` applies to the targeted byte.
pub const FLIP_MASK: u8 = 0x40;

/// One transport fault, anchored at an absolute byte offset of the
/// written stream. Offsets are cumulative across reconnects, and every
/// action fires at most once per plan execution (except
/// [`FaultAction::SlowLoris`], which stays in effect once triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sever the connection once `at` bytes have been written.
    Cut {
        /// Byte offset at which the connection is severed.
        at: u64,
    },
    /// At offset `at`, silently discard `drop` bytes (acknowledging them
    /// to the writer as sent), then sever — the receiving end observes a
    /// torn frame.
    Truncate {
        /// Byte offset at which truncation starts.
        at: u64,
        /// Number of bytes discarded before the connection is severed.
        drop: u64,
    },
    /// XOR the byte at offset `at` with [`FLIP_MASK`] — a single-frame
    /// corruption the per-frame CRC must catch.
    BitFlip {
        /// Byte offset of the corrupted byte.
        at: u64,
    },
    /// At offset `at`, stop writing for `millis` milliseconds — an
    /// apparently-alive but silent producer, the case idle read timeouts
    /// exist for.
    Stall {
        /// Byte offset at which the stall begins.
        at: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// From offset `at` on, write at most `chunk` bytes per syscall and
    /// sleep `millis` milliseconds between chunks — a slow-loris
    /// producer.
    SlowLoris {
        /// Byte offset at which pacing starts.
        at: u64,
        /// Maximum bytes per write once pacing is active.
        chunk: u64,
        /// Sleep between chunks in milliseconds.
        millis: u64,
    },
}

impl FaultAction {
    /// The byte offset at which this action triggers.
    pub fn offset(&self) -> u64 {
        match *self {
            FaultAction::Cut { at }
            | FaultAction::Truncate { at, .. }
            | FaultAction::BitFlip { at }
            | FaultAction::Stall { at, .. }
            | FaultAction::SlowLoris { at, .. } => at,
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultAction::Cut { at } => write!(f, "cut@{at}"),
            FaultAction::Truncate { at, drop } => write!(f, "trunc@{at}+{drop}"),
            FaultAction::BitFlip { at } => write!(f, "flip@{at}"),
            FaultAction::Stall { at, millis } => write!(f, "stall@{at}:{millis}"),
            FaultAction::SlowLoris { at, chunk, millis } => {
                write!(f, "loris@{at}:{chunk}:{millis}")
            }
        }
    }
}

/// A named, ordered list of [`FaultAction`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Human-readable plan name (a built-in name, or `"custom"` for
    /// parsed specs).
    pub name: String,
    /// The actions, sorted by trigger offset.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan from explicit actions; actions are sorted by offset.
    pub fn new(name: impl Into<String>, mut actions: Vec<FaultAction>) -> Self {
        actions.sort_by_key(|a| a.offset());
        FaultPlan { name: name.into(), actions }
    }

    /// Resolve a built-in plan by name. The catalog covers one plan per
    /// fault class the collector must tolerate:
    ///
    /// * `disconnect` — two clean connection cuts;
    /// * `truncation` — a torn frame (partial write, then cut);
    /// * `bit-flip` — one corrupted byte mid-stream;
    /// * `stall` — a producer that goes silent for 900 ms;
    /// * `slow-loris` — a producer dripping 13-byte writes.
    pub fn builtin(name: &str) -> Option<FaultPlan> {
        let actions: Vec<FaultAction> = match name {
            "disconnect" => vec![FaultAction::Cut { at: 900 }, FaultAction::Cut { at: 2500 }],
            "truncation" => vec![FaultAction::Truncate { at: 1100, drop: 9 }],
            "bit-flip" => vec![FaultAction::BitFlip { at: 1200 }],
            "stall" => vec![FaultAction::Stall { at: 800, millis: 900 }],
            "slow-loris" => vec![FaultAction::SlowLoris { at: 0, chunk: 13, millis: 1 }],
            _ => return None,
        };
        Some(FaultPlan::new(name, actions))
    }

    /// The names of every built-in plan, in matrix-test order.
    pub fn builtin_names() -> &'static [&'static str] {
        &["disconnect", "truncation", "bit-flip", "stall", "slow-loris"]
    }

    /// Every built-in plan (the fault matrix).
    pub fn all_builtin() -> Vec<FaultPlan> {
        Self::builtin_names().iter().filter_map(|n| Self::builtin(n)).collect()
    }

    /// Resolve a CLI argument: a built-in name, or a parsed action spec.
    pub fn resolve(spec: &str) -> Result<FaultPlan, String> {
        if let Some(plan) = Self::builtin(spec) {
            return Ok(plan);
        }
        spec.parse()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("invalid {what} `{s}` in fault spec"))
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parse a `;`-separated action spec (see the module docs for the
    /// grammar). Not a built-in lookup — use [`FaultPlan::resolve`] for
    /// CLI arguments.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut actions = Vec::new();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (verb, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault action `{part}` is missing `@OFFSET`"))?;
            let action = match verb {
                "cut" => FaultAction::Cut { at: parse_u64(rest, "offset")? },
                "trunc" => {
                    let (at, drop) = rest
                        .split_once('+')
                        .ok_or_else(|| format!("trunc action `{part}` needs `@OFFSET+BYTES`"))?;
                    FaultAction::Truncate {
                        at: parse_u64(at, "offset")?,
                        drop: parse_u64(drop, "byte count")?,
                    }
                }
                "flip" => FaultAction::BitFlip { at: parse_u64(rest, "offset")? },
                "stall" => {
                    let (at, ms) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("stall action `{part}` needs `@OFFSET:MILLIS`"))?;
                    FaultAction::Stall {
                        at: parse_u64(at, "offset")?,
                        millis: parse_u64(ms, "duration")?,
                    }
                }
                "loris" => {
                    let mut it = rest.splitn(3, ':');
                    let at = it.next().unwrap_or_default();
                    let (chunk, ms) = match (it.next(), it.next()) {
                        (Some(c), Some(m)) => (c, m),
                        _ => {
                            return Err(format!(
                                "loris action `{part}` needs `@OFFSET:CHUNK:MILLIS`"
                            ))
                        }
                    };
                    let chunk = parse_u64(chunk, "chunk size")?;
                    if chunk == 0 {
                        return Err("loris chunk size must be nonzero".into());
                    }
                    FaultAction::SlowLoris {
                        at: parse_u64(at, "offset")?,
                        chunk,
                        millis: parse_u64(ms, "duration")?,
                    }
                }
                other => {
                    return Err(format!(
                        "unknown fault verb `{other}` (cut|trunc|flip|stall|loris)"
                    ))
                }
            };
            actions.push(action);
        }
        if actions.is_empty() {
            return Err("empty fault plan".into());
        }
        Ok(FaultPlan::new("custom", actions))
    }
}

// ------------------------------------------------------------ injector

/// Shared, mutable progress of a fault plan across reconnects.
#[derive(Debug)]
pub struct FaultState {
    actions: Vec<(FaultAction, bool)>, // (action, fired)
    written: u64,
}

impl FaultState {
    /// Start tracking a plan from byte zero.
    pub fn new(plan: &FaultPlan) -> Arc<Mutex<FaultState>> {
        Arc::new(Mutex::new(FaultState {
            actions: plan.actions.iter().map(|a| (*a, false)).collect(),
            written: 0,
        }))
    }

    /// Total bytes the client believes it has written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The next un-fired one-shot action due at or before `upto`.
    fn due(&mut self, upto: u64) -> Option<FaultAction> {
        for (action, fired) in &mut self.actions {
            if *fired {
                continue;
            }
            if matches!(action, FaultAction::SlowLoris { .. }) {
                // Persistent: never "fires once"; handled by the writer.
                continue;
            }
            if action.offset() <= upto {
                *fired = true;
                return Some(*action);
            }
        }
        None
    }

    /// The slow-loris pacing in effect at offset `at`, if any.
    fn loris(&self, at: u64) -> Option<(usize, u64)> {
        self.actions.iter().find_map(|(action, _)| match action {
            FaultAction::SlowLoris { at: start, chunk, millis } if *start <= at => {
                Some((*chunk as usize, *millis))
            }
            _ => None,
        })
    }
}

/// A client connection: a [`Stream`] that injects scripted faults on
/// its write path when it carries a [`FaultState`], and is the bare
/// stream when it does not.
pub struct FaultStream {
    inner: Stream,
    state: Option<Arc<Mutex<FaultState>>>,
}

impl FaultStream {
    /// Connect to `addr`, bounding the connect and every later read and
    /// write by `timeout` (`None` blocks indefinitely). The shared
    /// `faults` state, if any, carries the plan's progress from earlier
    /// connections of the same producer.
    pub fn connect(
        addr: &Addr,
        timeout: Option<Duration>,
        faults: Option<&Arc<Mutex<FaultState>>>,
    ) -> io::Result<FaultStream> {
        let inner = match timeout {
            Some(timeout) => Stream::connect_timeout(addr, timeout)?,
            None => Stream::connect(addr)?,
        };
        inner.set_read_timeout(timeout)?;
        inner.set_write_timeout(timeout)?;
        Ok(FaultStream { inner, state: faults.cloned() })
    }

    /// Shut down the write half (delegates to the wrapped stream).
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.inner.shutdown_write()
    }
}

fn broken(action: &FaultAction) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, format!("injected fault: {action}"))
}

impl Write for FaultStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(state) = &self.state else { return self.inner.write(buf) };
        if buf.is_empty() {
            return Ok(0);
        }
        let (pos, action, loris) = {
            let mut state = state.lock().unwrap_or_else(|e| e.into_inner());
            let pos = state.written;
            let action = state.due(pos + buf.len() as u64 - 1);
            let loris = state.loris(pos);
            (pos, action, loris)
        };

        if let Some(action) = action {
            let boundary = action.offset().saturating_sub(pos) as usize;
            match action {
                FaultAction::Cut { .. } => {
                    // Deliver bytes up to the cut point, then kill the
                    // connection in both directions.
                    if boundary > 0 {
                        self.inner.write_all(&buf[..boundary])?;
                        let _ = self.inner.flush();
                        state.lock().unwrap_or_else(|e| e.into_inner()).written += boundary as u64;
                    }
                    let _ = self.inner.shutdown_both();
                    return Err(broken(&action));
                }
                FaultAction::Truncate { drop, .. } => {
                    // Deliver the prefix, silently swallow `drop` bytes
                    // (claiming success so the producer keeps encoding),
                    // then sever the wire: the peer sees a torn frame.
                    if boundary > 0 {
                        self.inner.write_all(&buf[..boundary])?;
                        let _ = self.inner.flush();
                    }
                    let swallowed = (buf.len() - boundary).min(drop as usize).max(1);
                    let _ = self.inner.shutdown_both();
                    state.lock().unwrap_or_else(|e| e.into_inner()).written +=
                        (boundary + swallowed) as u64;
                    return Ok(boundary + swallowed);
                }
                FaultAction::BitFlip { at } => {
                    let mut corrupted = buf.to_vec();
                    let idx = (at - pos) as usize;
                    corrupted[idx] ^= FLIP_MASK;
                    self.inner.write_all(&corrupted)?;
                    state.lock().unwrap_or_else(|e| e.into_inner()).written += buf.len() as u64;
                    return Ok(buf.len());
                }
                FaultAction::Stall { millis, .. } => {
                    std::thread::sleep(Duration::from_millis(millis));
                    // Fall through to a normal write below.
                }
                FaultAction::SlowLoris { .. } => unreachable!("loris is not one-shot"),
            }
        }

        if let Some((chunk, millis)) = loris {
            let n = buf.len().min(chunk.max(1));
            std::thread::sleep(Duration::from_millis(millis));
            self.inner.write_all(&buf[..n])?;
            self.inner.flush()?;
            state.lock().unwrap_or_else(|e| e.into_inner()).written += n as u64;
            return Ok(n);
        }

        self.inner.write_all(buf)?;
        state.lock().unwrap_or_else(|e| e.into_inner()).written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for FaultStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Listener;

    #[test]
    fn builtin_catalog_is_complete() {
        let all = FaultPlan::all_builtin();
        assert_eq!(all.len(), FaultPlan::builtin_names().len());
        for plan in &all {
            assert!(!plan.actions.is_empty(), "{} has no actions", plan.name);
        }
        assert!(FaultPlan::builtin("nope").is_none());
    }

    #[test]
    fn spec_roundtrips_through_display() {
        let spec = "cut@900;trunc@1100+9;flip@1200;stall@800:900;loris@0:13:1";
        let plan: FaultPlan = spec.parse().unwrap();
        assert_eq!(plan.actions.len(), 5);
        let rendered = plan.to_string();
        let back: FaultPlan = rendered.parse().unwrap();
        assert_eq!(back.actions, plan.actions);
    }

    #[test]
    fn actions_are_sorted_by_offset() {
        let plan: FaultPlan = "cut@500;flip@10".parse().unwrap();
        assert_eq!(plan.actions[0], FaultAction::BitFlip { at: 10 });
        assert_eq!(plan.actions[1], FaultAction::Cut { at: 500 });
    }

    #[test]
    fn resolve_prefers_builtin_names() {
        assert_eq!(FaultPlan::resolve("stall").unwrap().name, "stall");
        assert_eq!(FaultPlan::resolve("cut@64").unwrap().name, "custom");
        assert!(FaultPlan::resolve("definitely-not-a-plan").is_err());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "cut",
            "cut@",
            "cut@abc",
            "trunc@5",
            "stall@5",
            "loris@1:2",
            "loris@0:0:1",
            "zap@3",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "spec `{bad}` must be rejected");
        }
    }
    /// A client connection carrying `state`, and the server's end.
    fn pair(state: &Arc<Mutex<FaultState>>) -> (FaultStream, Stream) {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.bound_addr().unwrap();
        let client = FaultStream::connect(&addr, None, Some(state)).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn cut_delivers_prefix_then_errors() {
        let state = FaultState::new(&"cut@4".parse().unwrap());
        let (mut faulty, mut server) = pair(&state);
        let err = faulty.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"0123");
        assert_eq!(state.lock().unwrap().written(), 4);
    }

    #[test]
    fn truncate_swallows_bytes_and_severs() {
        let state = FaultState::new(&"trunc@2+3".parse().unwrap());
        let (mut faulty, mut server) = pair(&state);
        // The producer sees a successful (short) write, never an error.
        let n = faulty.write(b"abcdef").unwrap();
        assert!((3..=5).contains(&n), "prefix 2 + swallowed 1..=3, got {n}");
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"ab");
    }

    #[test]
    fn bitflip_corrupts_exactly_one_byte() {
        let state = FaultState::new(&"flip@3".parse().unwrap());
        let (mut faulty, mut server) = pair(&state);
        faulty.write_all(b"hello world").unwrap();
        faulty.shutdown_write().unwrap();
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), 11);
        assert_eq!(got[3], b'l' ^ FLIP_MASK);
        let mut fixed = got.clone();
        fixed[3] ^= FLIP_MASK;
        assert_eq!(fixed, b"hello world");
    }

    #[test]
    fn state_persists_across_connections() {
        let state = FaultState::new(&"cut@4;cut@10".parse().unwrap());

        let (mut faulty, mut server) = pair(&state);
        faulty.write_all(b"0123456789").unwrap_err();
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"0123");

        // "Reconnect": the second connection resumes the byte count, so
        // the second cut fires 6 bytes in (cumulative offset 10).
        let (mut faulty, mut server) = pair(&state);
        faulty.write_all(b"456789abcd").unwrap_err();
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"456789");
    }

    #[test]
    fn slow_loris_paces_but_delivers_everything() {
        let state = FaultState::new(&"loris@0:3:1".parse().unwrap());
        let (mut faulty, mut server) = pair(&state);
        faulty.write_all(b"the whole message arrives").unwrap();
        faulty.shutdown_write().unwrap();
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"the whole message arrives");
    }
}
