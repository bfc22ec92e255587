//! An event sink for the traced run: it sums the fields and gauges the
//! library's `*_with(sink)` entry points emit, and the wall time of the
//! spans they open, keyed by `(engine, name)`.

use bddfc_core::obs::{Event, EventSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

type Key = (&'static str, &'static str, &'static str);

#[derive(Default)]
struct Inner {
    fields: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    events: BTreeMap<(&'static str, &'static str), u64>,
    open: HashMap<u64, (&'static str, &'static str, Instant)>,
    span_ns: BTreeMap<(&'static str, &'static str), u64>,
    next_id: u64,
}

/// Sums of everything the engines reported.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("recorder lock poisoned")
    }

    /// Sum of one deterministic field over all events of a kind.
    pub fn field(&self, engine: &str, name: &str, field: &str) -> f64 {
        sum(&self.lock().fields, engine, name, field)
    }

    /// Sum of one gauge over all events of a kind, in milliseconds when
    /// the gauge is a `wall_ns`.
    pub fn gauge_ms(&self, engine: &str, name: &str) -> f64 {
        sum(&self.lock().gauges, engine, name, "wall_ns") / 1e6
    }

    /// Number of events of a kind.
    pub fn events(&self, engine: &str, name: &str) -> f64 {
        let inner = self.lock();
        inner
            .events
            .iter()
            .filter(|((e, n), _)| *e == engine && *n == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    }

    /// Total wall time of the closed spans of a kind, in milliseconds.
    pub fn span_ms(&self, engine: &str, name: &str) -> f64 {
        let inner = self.lock();
        inner
            .span_ns
            .iter()
            .filter(|((e, n), _)| *e == engine && *n == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
            / 1e6
    }
}

fn sum(map: &BTreeMap<Key, u64>, engine: &str, name: &str, field: &str) -> f64 {
    map.iter()
        .filter(|((e, n, f), _)| *e == engine && *n == name && *f == field)
        .map(|(_, v)| *v)
        .sum::<u64>() as f64
}

impl EventSink for Recorder {
    fn record(&self, event: Event<'_>) {
        let mut inner = self.lock();
        for &(f, v) in event.fields {
            *inner
                .fields
                .entry((event.engine, event.name, f))
                .or_default() += v;
        }
        for &(g, v) in event.gauges {
            *inner
                .gauges
                .entry((event.engine, event.name, g))
                .or_default() += v;
        }
        *inner.events.entry((event.engine, event.name)).or_default() += 1;
    }

    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        _parent: u64,
        _key: Option<(&'static str, u64)>,
    ) -> u64 {
        let mut inner = self.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.open.insert(id, (engine, name, Instant::now()));
        id
    }

    fn span_close(&self, id: u64) {
        let mut inner = self.lock();
        if let Some((engine, name, start)) = inner.open.remove(&id) {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            *inner.span_ns.entry((engine, name)).or_default() += ns;
        }
    }
}
