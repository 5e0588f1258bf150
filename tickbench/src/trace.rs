//! In-memory span recorder for the traced mode.
//!
//! A span is one call into a layer, recorded from the benchmark's own
//! code around a public library call: name, layer, start, end, parent
//! span and the tick it belongs to. Spans stay in memory (one
//! preallocated `Vec`) and are written out once, when the run ends. A
//! disabled recorder never reads the clock, so the untraced blocks of a
//! traced run pay one branch per span.

use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel id: "no span" (disabled recorder, or a root's parent).
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub tick: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder: spans in call order plus the stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Switches recording on or off (between blocks of ticks); returns
    /// the previous setting.
    pub fn set_enabled(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, tick: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            tick,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it by a panic).
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        tick: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, tick);
        let r = f();
        self.end(id);
        r
    }

    /// Adds child spans of the closed span `parent` from durations the
    /// program measured itself (phase timers), laid end to end from the
    /// parent's start and clipped to its end. Their sum is exact; their
    /// placement inside the parent is nominal.
    pub fn phases(&mut self, parent: u32, layer: &'static str, phases: &[(&'static str, f64)]) {
        if parent == NONE {
            return;
        }
        let p = self.spans[parent as usize];
        let mut t = p.start_ns;
        for &(name, secs) in phases {
            let end = (t + (secs.max(0.0) * 1e9) as u64).min(p.end_ns);
            self.spans.push(Span {
                name,
                layer,
                tick: p.tick,
                parent,
                start_ns: t,
                end_ns: end,
            });
            t = end;
        }
    }

    /// Duration of the closed span `id`, seconds (0 for [`NONE`]).
    pub fn dur_s(&self, id: u32) -> f64 {
        self.spans
            .get(id as usize)
            .map_or(0.0, |s| s.dur_ns() as f64 * 1e-9)
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON (`[name, layer, tick, parent, start_ns,
    /// end_ns]` rows; parent `-1` for roots) with a caller-supplied
    /// header object body.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + header.len() + 32);
        out.push('{');
        out.push_str(header);
        out.push_str(",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "{}[\"{}\",\"{}\",{},{},{},{}]",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.tick,
                parent,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged, so a child
/// interval is never subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-tick attribution of the traced tick trees: for every root span
/// named `root`, the tick duration and the summed duration of the leaf
/// spans below it (the named phases and layer calls).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    pub ticks: usize,
    pub tick_ns: u64,
    pub leaf_ns: u64,
}

impl Attribution {
    /// Leaves as a percentage of the ticks.
    pub fn attributed_pct(&self) -> f64 {
        100.0 * self.leaf_ns as f64 / self.tick_ns.max(1) as f64
    }

    /// Mean unattributed time per tick, milliseconds.
    pub fn residual_ms(&self) -> f64 {
        (self.tick_ns as f64 - self.leaf_ns as f64) * 1e-6 / self.ticks.max(1) as f64
    }
}

/// Sums ticks and their leaves over every tree rooted at a span named
/// `root`.
pub fn attribution(spans: &[Span], root: &str) -> Attribution {
    let mut has_child = vec![false; spans.len()];
    let mut root_of = vec![NONE; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NONE {
            has_child[s.parent as usize] = true;
            root_of[i] = root_of[s.parent as usize];
        } else if s.name == root {
            root_of[i] = i as u32;
        }
    }
    let mut a = Attribution::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NONE && s.name == root {
            a.ticks += 1;
            a.tick_ns += s.dur_ns();
        } else if root_of[i] != NONE && !has_child[i] {
            a.leaf_ns += s.dur_ns();
        }
    }
    a
}

/// Summed self time per layer over the trees rooted at spans named
/// `root`, in first-seen layer order.
pub fn layer_self_ns(spans: &[Span], root: &str) -> Vec<(&'static str, u64)> {
    let self_ns = self_times_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        in_tree[i] = if s.parent == NONE {
            s.name == root
        } else {
            in_tree[s.parent as usize]
        };
        if !in_tree[i] {
            continue;
        }
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += self_ns[i],
            None => out.push((s.layer, self_ns[i])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: &'static str, parent: u32, a: u64, b: u64) -> Span {
        Span {
            name,
            layer,
            tick: 0,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    /// tick [0,100) ⊃ solve [10,80) ⊃ {lq [10,40), riccati [40,50)},
    /// step [80,95); plus an unrelated replay root.
    fn tree() -> Vec<Span> {
        vec![
            span("tick", "bench", NONE, 0, 100),
            span("solve", "ilqr", 0, 10, 80),
            span("lq", "ilqr", 1, 10, 40),
            span("riccati", "ilqr", 1, 40, 50),
            span("step", "integrator", 0, 80, 95),
            span("replay", "bench", NONE, 100, 300),
            span("kin", "dynamics", 5, 110, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let st = self_times_ns(&tree());
        assert_eq!(st, vec![100 - 70 - 15, 70 - 40, 30, 10, 15, 200 - 10, 10]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("p", "a", NONE, 0, 100),
            span("c1", "b", 0, 10, 60),
            span("c2", "b", 0, 50, 70),
            span("c3", "b", 0, 90, 150), // runs past the parent's end
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn leaves_and_layers_of_tick_trees_only() {
        let spans = tree();
        let a = attribution(&spans, "tick");
        assert_eq!(a.ticks, 1);
        assert_eq!(a.tick_ns, 100);
        assert_eq!(a.leaf_ns, 30 + 10 + 15);
        assert!((a.attributed_pct() - 55.0).abs() < 1e-12);
        assert!((a.residual_ms() - 45e-6).abs() < 1e-15);
        let layers = layer_self_ns(&spans, "tick");
        assert_eq!(
            layers,
            vec![("bench", 15), ("ilqr", 30 + 30 + 10), ("integrator", 15)]
        );
    }

    #[test]
    fn recorder_nests_and_closes_on_unwind() {
        let mut rec = Recorder::new(8);
        assert_eq!(rec.begin("off", "x", 0), NONE);
        rec.set_enabled(true);
        let root = rec.begin("tick", "bench", 3);
        let inner = rec.begin("solve", "ilqr", 3);
        let _leaked = rec.begin("deep", "ilqr", 3); // never closed explicitly
        rec.end(inner);
        rec.end(root);
        rec.phases(inner, "ilqr", &[("lq", 1e-12), ("riccati", 1e3)]);
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, root);
        assert_eq!(s[2].parent, inner);
        assert!(s[2].end_ns >= s[2].start_ns && s[2].end_ns <= s[1].end_ns);
        // Program-timed phases stay inside their parent.
        assert_eq!(s[3].parent, inner);
        assert_eq!(s[4].end_ns, s[1].end_ns);
        assert!(s.iter().all(|x| x.tick == 3));
        let json = rec.to_json("\"workload\":\"t\"");
        assert!(json.starts_with("{\"workload\":\"t\",\"spans\":["));
        assert_eq!(json.matches("[\"").count(), 5);
    }
}
