//! The traced run: each query is executed stage by stage from here, with
//! one span around every call into a layer. Spans stay in memory and are
//! written out when the run ends; spans inside the engine are a later
//! change.

use crate::runner::{Pass, Prepared};
use crate::workloads::Item;
use rpt_common::{Error, Result};
use rpt_core::{binder, Planner, QueryResult};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the item in the pass; spans of one execution share it.
    pub query: usize,
    pub pass: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    query: usize,
    pass: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
            pass: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query: self.query,
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a child of the open span from a duration the callee reported
    /// itself (its position inside the parent is not known, only its
    /// length); returns where it ends, for laying the next one after it.
    fn reported_child(&mut self, name: &'static str, start_ns: u64, duration_ns: u64) -> u64 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: self.open.last().copied(),
            query: self.query,
            pass: self.pass,
        });
        start_ns + duration_ns
    }

    /// Self time per span name in pass `pass`, in seconds: each span's
    /// duration minus the part its direct children cover.
    pub fn self_times(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.pass == pass {
                *out.entry(s.name).or_insert(0.0) +=
                    s.duration_ns().saturating_sub(children) as f64 * 1e-9;
            }
        }
        out
    }

    /// Total duration per span name in pass `pass`, in seconds.
    pub fn durations(&self, pass: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.pass == pass) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
        }
        out
    }

    /// One span per line, so the file diffs and greps.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"query_id\": {}, \"pass\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.query,
                s.pass,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The stages `Database::query` runs, called one by one. `execute` plans
/// again internally (it takes a bound query, not a plan), so the planning
/// it repeats is laid out as `trace.replan` beside the run time the engine
/// reports, and what is left of the call is teardown and result assembly.
fn staged(p: &Prepared, item: &Item, rec: &mut Recorder) -> Result<QueryResult> {
    let q = &p.queries[item.query];
    let db = &p.dbs[q.dataset];
    let stmt = rec.span("sql.parse", |_| {
        rpt_sql::parse_select(&q.sql).map_err(Error::Parse)
    })?;
    let bound = rec.span("binder.bind", |_| binder::bind(&stmt, db.catalog()))?;
    let order = rec.span("optimizer.order", |_| db.choose_order(&bound, &item.opts))?;
    let compile_start = rec.now_ns();
    let plan = rec.span("planner.compile", |_| {
        Planner::new(&bound, &item.opts).compile(&order.plan())
    })?;
    let compile_ns = rec.now_ns() - compile_start;
    rec.span("analyze.verify", |_| {
        let report = plan.verify();
        drop(plan);
        if report.is_clean() {
            Ok(())
        } else {
            Err(Error::Plan(format!(
                "plan failed verification: {:?}",
                report.errors
            )))
        }
    })?;
    let mut opts = item.opts.clone();
    opts.join_order = Some(order);
    rec.span("exec.execute", |rec| {
        let start = rec.now_ns();
        let result = black_box(db.execute(&bound, &opts));
        let spent = rec.now_ns() - start;
        if let Ok(r) = &result {
            let run_ns = (r.wall_time.as_nanos() as u64).min(spent);
            let replan_ns = compile_ns.min(spent - run_ns);
            let run_start = rec.reported_child("trace.replan", start, replan_ns);
            rec.reported_child("exec.run", run_start, run_ns);
        }
        result
    })
}

impl Prepared {
    /// One traced pass. A span tree per item: `query` over the stages,
    /// then `bench.check` and `exec.drop` beside it.
    pub fn run_traced_pass(&self, rec: &mut Recorder, pass_no: usize) -> Pass {
        let mut pass = Pass::default();
        crate::env::reset_peak_rss();
        rec.pass = pass_no;
        rec.span("pass", |rec| {
            for (i, item) in self.items.iter().enumerate() {
                rec.query = i;
                let t = Instant::now();
                let result = rec.span("query", |rec| staged(self, item, rec));
                let call_s = t.elapsed().as_secs_f64();
                // `settle` checks, then drops; split its time between the
                // two from the drop time it adds to the latency.
                let start = rec.now_ns();
                self.settle(item, result, call_s, &mut pass);
                let drop_ns = ((pass.latencies[i] - call_s) * 1e9) as u64;
                let check_ns = (rec.now_ns() - start).saturating_sub(drop_ns);
                let drop_start = rec.reported_child("bench.check", start, check_ns);
                rec.reported_child("exec.drop", drop_start, drop_ns);
            }
        });
        pass.peak_rss_mb = crate::env::peak_rss_mb();
        pass
    }
}

/// Per-pass self time of each layer, from one traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub parse_s: f64,
    pub bind_s: f64,
    pub order_s: f64,
    pub compile_s: f64,
    pub verify_s: f64,
    pub run_s: f64,
    /// `execute` call + drop − run − replan.
    pub teardown_s: f64,
    pub replan_s: f64,
    pub check_s: f64,
    /// Time inside `query` spans that no stage covers, plus loop overhead.
    pub unattributed_s: f64,
    /// What `pass_s` means for a traced pass: query spans plus drops.
    pub traced_pass_s: f64,
}

impl LayerTimes {
    pub fn of(rec: &Recorder, pass: usize) -> LayerTimes {
        let own = rec.self_times(pass);
        let total = rec.durations(pass);
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        LayerTimes {
            parse_s: get(&own, "sql.parse"),
            bind_s: get(&own, "binder.bind"),
            order_s: get(&own, "optimizer.order"),
            compile_s: get(&own, "planner.compile"),
            verify_s: get(&own, "analyze.verify"),
            run_s: get(&own, "exec.run"),
            teardown_s: get(&own, "exec.execute") + get(&own, "exec.drop"),
            replan_s: get(&own, "trace.replan"),
            check_s: get(&own, "bench.check"),
            unattributed_s: get(&own, "query") + get(&own, "pass"),
            traced_pass_s: get(&total, "query") + get(&total, "exec.drop"),
        }
    }

    /// Share of the traced pass that named layers account for.
    pub fn attributed_share(&self) -> f64 {
        let named = self.parse_s
            + self.bind_s
            + self.order_s
            + self.compile_s
            + self.verify_s
            + self.run_s
            + self.teardown_s
            + self.replan_s;
        named / self.traced_pass_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::default();
        rec.spans.extend([
            Span {
                name: "query",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                query: 0,
                pass: 1,
            },
            Span {
                name: "exec.execute",
                start_ns: 100,
                end_ns: 900,
                parent: Some(0),
                query: 0,
                pass: 1,
            },
            Span {
                name: "exec.run",
                start_ns: 200,
                end_ns: 700,
                parent: Some(1),
                query: 0,
                pass: 1,
            },
            Span {
                name: "query",
                start_ns: 2000,
                end_ns: 2500,
                parent: None,
                query: 1,
                pass: 2,
            },
        ]);
        let own = rec.self_times(1);
        assert!((own["query"] - 200e-9).abs() < 1e-15);
        assert!((own["exec.execute"] - 300e-9).abs() < 1e-15);
        assert!((own["exec.run"] - 500e-9).abs() < 1e-15);
        // self times of a tree add up to the root's duration
        assert!((own.values().sum::<f64>() - 1000e-9).abs() < 1e-15);
        assert!((rec.self_times(2)["query"] - 500e-9).abs() < 1e-15);
        assert!(crate::json::Json::parse(&rec.to_json("w", 1)).is_ok());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut rec = Recorder::default();
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[2].end_ns);
    }
}
