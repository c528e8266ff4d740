//! The traced pass's span recorder.
//!
//! Spans are taken only around the benchmark's own calls into each layer
//! and kept in memory until the run ends; self time is then computed by
//! the program's span-tree profiler ([`sper_obs::SpanProfile`]) from the
//! same record shape its trace sink writes. A disabled recorder still runs
//! the wrapped calls but keeps nothing, so one code path serves the
//! untraced and the traced pass.

use sper_obs::trace::RecordKind;
use sper_obs::{ProfileRecord, SpanProfile};
use std::time::Instant;

/// An open span: where and at which depth it started.
#[must_use = "close the span with Spans::exit"]
pub struct Open {
    start: Instant,
    depth: u64,
}

/// In-memory span recorder for one thread.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    depth: u64,
    records: Vec<ProfileRecord>,
}

impl Spans {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            depth: 0,
            records: Vec::new(),
        }
    }

    /// Opens a span; children opened before [`exit`](Self::exit) nest in it.
    pub fn enter(&mut self) -> Open {
        let open = Open {
            start: Instant::now(),
            depth: self.depth,
        };
        self.depth += 1;
        open
    }

    /// Closes `open` under `name`.
    pub fn exit(&mut self, name: &str, open: Open) {
        let end = Instant::now();
        self.depth -= 1;
        if self.enabled {
            self.records.push(ProfileRecord {
                t_ns: nanos(open.start - self.origin),
                kind: RecordKind::Span,
                name: name.to_string(),
                thread: 0,
                depth: open.depth,
                dur_ns: Some(nanos(end - open.start)),
                fields: Vec::new(),
            });
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter();
        let out = f();
        self.exit(name, open);
        out
    }

    /// Durations in milliseconds of every kept span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_ns.unwrap_or(0) as f64 / 1e6)
            .collect()
    }

    /// The call-tree profile of the kept spans.
    pub fn profile(&self) -> SpanProfile {
        SpanProfile::from_records(&self.records)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Mean self time in milliseconds of the spans named `name`, or `None`
/// when there is none.
pub fn mean_self_ms(profile: &SpanProfile, name: &str) -> Option<f64> {
    let stats = profile.names().get(name)?;
    (stats.count > 0).then(|| stats.self_ns as f64 / stats.count as f64 / 1e6)
}

/// Share of the root spans' time that no child span covers.
pub fn unattributed_share(profile: &SpanProfile) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for (path, stats) in profile.stacks() {
        if !path.contains(';') {
            own += stats.self_ns;
            total += stats.total_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let root = spans.enter();
        spans.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit("root", root);
        let profile = spans.profile();
        let leaf = mean_self_ms(&profile, "leaf").expect("leaf span kept");
        assert!(leaf >= 2.0);
        let root_self = mean_self_ms(&profile, "root").expect("root span kept");
        assert!(root_self < leaf);
        let share = unattributed_share(&profile);
        assert!((0.0..0.5).contains(&share), "share {share}");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        assert!(spans.records.is_empty());
    }
}
