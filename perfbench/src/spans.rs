//! The benchmark's own spans around each public call it makes, kept in
//! memory and written out when the run ends, plus the `ppm-trace`
//! analysis of the program's span sidecars.
//!
//! Spans are recorded only in traced runs; in untraced runs every
//! method is a no-op, so the end-to-end numbers carry no benchmark
//! tracing either.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use ppm::obs::{Analysis, TraceSet};

struct Rec {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Mutex<Vec<Rec>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` taken by the caller to recorder time.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span; returns its id (0 when tracing is off).
    pub fn record(&self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let mut recs = self.recs.lock().expect("span recorder poisoned");
        let id = recs.len() as u64 + 1;
        recs.push(Rec {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet; finish it
    /// with [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: u64) -> u64 {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Sets the end time of an opened span to now.
    pub fn close(&self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now();
        let mut recs = self.recs.lock().expect("span recorder poisoned");
        recs[id as usize - 1].end_ns = now;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn call<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(name, parent, start, self.now());
        out
    }

    /// Writes every span as JSON lines to `path` and prints the self
    /// time per span name — a span's duration minus the part of it its
    /// children cover — largest first.
    pub fn finish(&self, path: &Path) {
        if !self.on {
            return;
        }
        let recs = self.recs.lock().expect("span recorder poisoned");
        if let Ok(f) = std::fs::File::create(path) {
            let mut w = std::io::BufWriter::new(f);
            for r in recs.iter() {
                let _ = writeln!(
                    w,
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    r.id, r.parent, r.name, r.start_ns, r.end_ns
                );
            }
            if let Err(e) = w.flush() {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len() + 1];
        for r in recs.iter() {
            if r.parent != 0 {
                children[r.parent as usize].push((r.start_ns, r.end_ns));
            }
        }
        let mut by_name: Vec<(&'static str, usize, f64)> = Vec::new();
        for r in recs.iter() {
            let kids = &mut children[r.id as usize];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, r.start_ns);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(r.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let self_ms = (r.end_ns - r.start_ns - covered.min(r.end_ns - r.start_ns)) as f64 / 1e6;
            match by_name.iter_mut().find(|(n, _, _)| *n == r.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self_ms;
                }
                None => by_name.push((r.name, 1, self_ms)),
            }
        }
        by_name.sort_by(|a, b| b.2.total_cmp(&a.2));
        eprintln!("  benchmark spans: self time per public call");
        for (name, calls, ms) in &by_name {
            eprintln!("    {name:<24} {calls:>7} calls {ms:>12.3} ms");
        }
    }
}

/// Runs the `ppm-trace` analysis (the library behind the `ppm-trace`
/// binary) over one span sidecar file.
pub fn analyze(file: &Path) -> Analysis {
    let mut set = TraceSet::default();
    if let Err(e) = set.ingest_file(file) {
        eprintln!(
            "perfbench: cannot read span sidecar {}: {e}",
            file.display()
        );
    }
    let a = set.analyze();
    eprintln!(
        "  ppm-trace: spans={} W={} D={} W/D={:.1} wasted={} unresolved_parents={}",
        a.spans_total, a.work, a.depth, a.parallelism, a.wasted_work, a.unresolved_parents
    );
    a
}
