//! In-memory host-time spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public function; nothing is recorded inside the program. Spans of
//! one request share a job id. After the run, each layer's self time is
//! its span's duration minus its direct children, and every root span
//! must be exactly covered by its children plus an explicit
//! `unattributed` residual.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `verify.wcet`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub job: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created (`u64::MAX` while open).
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. When off, every call is a no-op, so the same
/// replay code gives the untraced baseline the overhead is measured
/// against.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.stack.last().copied(),
            start: self.now(),
            end: u64::MAX,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end = self.now();
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, job);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per layer, its self time summed within each job, ns: one entry per
/// job that called the layer, in job order.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut per_job: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *per_job.entry(s.name).or_default().entry(s.job).or_default() +=
            s.dur().saturating_sub(child_ns[i]);
    }
    per_job
        .into_iter()
        .map(|(name, jobs)| (name, jobs.into_values().collect()))
        .collect()
}

/// A root span with its residual.
#[derive(Debug, Clone, Copy)]
pub struct RootBalance {
    /// The root's duration, ns.
    pub dur: u64,
    /// What its direct children do not cover, ns.
    pub unattributed: u64,
}

/// Checks every root span: each direct child is closed, carries the
/// root's job id, lies inside the root, and does not overlap its
/// siblings, so `Σ children + unattributed == root` holds exactly with
/// a non-negative residual. Returns one balance per root, or every
/// violation found.
pub fn check_conservation(spans: &[Span]) -> Result<Vec<RootBalance>, Vec<String>> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut errs = Vec::new();
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end == u64::MAX {
            errs.push(format!("span {} ({}) never closed", i, s.name));
            continue;
        }
        let mut covered = 0u64;
        let mut last_end = s.start;
        for &c in &children[i] {
            let k = &spans[c];
            if k.job != s.job {
                errs.push(format!(
                    "span {c} ({}) has job {} under job {}",
                    k.name, k.job, s.job
                ));
            }
            if k.start < last_end || k.end > s.end {
                errs.push(format!(
                    "span {c} ({}) overlaps a sibling or leaves {}",
                    k.name, s.name
                ));
            }
            last_end = k.end.max(last_end);
            covered += k.dur();
        }
        if s.parent.is_none() {
            match s.dur().checked_sub(covered) {
                Some(unattributed) if unattributed + covered == s.dur() => {
                    roots.push(RootBalance {
                        dur: s.dur(),
                        unattributed,
                    })
                }
                _ => errs.push(format!("root {i} ({}) children exceed it", s.name)),
            }
        }
    }
    if errs.is_empty() {
        Ok(roots)
    } else {
        Err(errs)
    }
}

/// Writes the spans as CSV with each span's self time, plus one
/// `unattributed` row per root carrying its residual.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur();
        }
    }
    let mut out = String::from("id,name,job,parent,start_ns,end_ns,self_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let self_ns = s.dur().saturating_sub(child_ns[i]);
        let _ = writeln!(
            out,
            "{i},{},{},{parent},{},{},{self_ns}",
            s.name, s.job, s.start, s.end
        );
        if s.parent.is_none() {
            let _ = writeln!(out, ",unattributed,{},{i},,,{self_ns}", s.job);
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "root",
                job: 1,
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                job: 1,
                parent: Some(0),
                start: 10,
                end: 40,
            },
            Span {
                name: "b",
                job: 1,
                parent: Some(0),
                start: 50,
                end: 60,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], vec![60]);
        assert_eq!(st["a"], vec![30]);
        let mut two = spans.clone();
        two.push(Span {
            name: "a",
            job: 1,
            parent: Some(0),
            start: 70,
            end: 75,
        });
        assert_eq!(self_times(&two)["a"], vec![35], "summed within the job");
        let roots = check_conservation(&spans).expect("balanced");
        assert_eq!(roots[0].unattributed, 60);
    }

    #[test]
    fn overlapping_or_foreign_children_are_refused() {
        let spans = vec![
            Span {
                name: "root",
                job: 1,
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                job: 1,
                parent: Some(0),
                start: 10,
                end: 60,
            },
            Span {
                name: "b",
                job: 2,
                parent: Some(0),
                start: 50,
                end: 120,
            },
        ];
        let errs = check_conservation(&spans).expect_err("unbalanced");
        assert_eq!(
            errs.len(),
            3,
            "foreign job, overlap, children past the root: {errs:?}"
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x", 0);
        t.time("y", 0, || ());
        t.exit(open);
        assert!(t.spans().is_empty());
    }
}
