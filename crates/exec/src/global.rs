//! The morsel-driven executor: one worker pool, one task queue,
//! partition-granular readiness (Leis et al., "Morsel-Driven Parallelism").
//!
//! Every pipeline decomposes into *tasks* — source-morsel claims, a merge
//! setup, one merge task per sink-state partition, a finish — and a single
//! pool of [`ExecContext::workers`] threads drains them all from one FIFO
//! queue, so the thread count is the pool size whatever the plan's shape.
//!
//! Readiness is tracked by an **event-count dependency graph** over
//! partition-granular grains ([`ResourceId::BufferPart`]): a pipeline's
//! streaming-operator reads (Bloom filters, hash tables) gate the pipeline
//! as a whole, while its source-buffer reads gate *per partition* — the
//! consumer's morsel tasks for partition `p` are enqueued the moment the
//! producer's merge task seals `p`, so producer merge and consumer probe
//! overlap instead of barriering (`sched_overlap_tasks` counts these).
//! This is sink-agnostic: buffer, hash-build, and aggregate (GROUP BY)
//! merges all run as `Merge { pipe, part }` tasks, and an aggregate's
//! sealed group partitions feed consumers exactly like collect buffers.
//!
//! Determinism: with `ctx.threads == 1` (the paper's default) each
//! pipeline runs as an *ordered chain* — one morsel task at a time,
//! partitions in index order — so every sink sees its chunks in source
//! order and results (including float aggregation order) are bit-identical
//! from run to run, whatever the pool size. With `ctx.threads > 1` morsels
//! fan out and only multiset/ulp-level determinism is guaranteed.

use crate::context::ExecContext;
use crate::operators::{lock_or_err, Morsels, PartitionMerger, ResourceId, Resources, Sink};
use crate::pipeline::{count_source_chunk, push_through, record_pipeline_rows, PhysicalPipeline};
use crate::scheduler::{build_dag, check_acyclic, NodeDeps};
use rpt_common::{Error, Result};
use std::collections::{HashMap, VecDeque};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// What the executor observed while running a query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// One record per pipeline, indexed by plan position.
    pub pipelines: Vec<PipelineStats>,
    /// Pipelines with at least one runnable task at the start.
    pub initially_ready: usize,
    /// Peak number of workers executing tasks simultaneously.
    pub max_parallel: usize,
    /// Tasks executed (opens + morsels + merge setup + merges + finishes).
    pub tasks: u64,
    /// Morsel tasks among them.
    pub morsel_tasks: u64,
    /// Consumer partition tasks that started while their producer pipeline
    /// had not yet sealed all partitions — the partition-overlap win.
    pub overlap_tasks: u64,
    /// Deepest the task queue ever got.
    pub max_queue_depth: usize,
    /// Σ nanoseconds workers spent inside tasks.
    pub busy_nanos: u64,
    /// Thread-lifetime wall nanoseconds summed over the workers — the
    /// denominator of `busy / wall` utilization, honest even when some
    /// workers idle.
    pub worker_wall_nanos: u64,
    /// Worker-pool size used.
    pub workers: usize,
}

/// What one pipeline's sink took in and how its merge split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// The plan's label for the pipeline.
    pub label: String,
    /// Whether its sink rows count toward `intermediate_tuples` (every
    /// pipeline but the final output collect).
    pub intermediate: bool,
    /// Rows into the sink, summed over the worker states.
    pub sink_rows: u64,
    /// Per-partition merge tasks its sink state ran.
    pub merge_tasks: u64,
    /// Rows handled by its largest merge task.
    pub merge_max_task_rows: u64,
}

/// One schedulable unit on the task queue.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// Open one source partition group's morsel stream (cheap: nothing is
    /// decoded or copied), then fan out its morsel tasks.
    Open { pipe: usize, group: usize },
    /// Claim and produce morsels of one group into a thread-local sink.
    Morsel { pipe: usize, group: usize },
    /// Collect worker states and build the sink's [`PartitionMerger`] (at
    /// every partition count: one partition is one `Merge` task).
    MergeSetup { pipe: usize },
    /// Merge and seal one sink-state partition (fires that partition's
    /// grains).
    Merge { pipe: usize, part: usize },
    /// Publish whole-resource results after all partition merges.
    Finish { pipe: usize },
}

/// Who a grain event wakes.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// Decrement the pipeline's base wait (streaming-operator reads).
    Base(usize),
    /// Decrement one source partition group's wait.
    Group { pipe: usize, group: usize },
}

/// Static, per-pipeline scheduling facts derived from the lowered pipeline
/// and its dependency grains.
struct PipeInfo {
    /// Source partition groups (== resource partitions for buffer sources).
    groups: usize,
    /// Pipelines writing the source buffer (for the overlap counter).
    source_producers: Vec<usize>,
    /// Buffers this pipeline's sink writes (partition grains fired per
    /// merge task).
    buffers_written: Vec<usize>,
    /// Non-buffer grains (filters, hash tables) fired at completion.
    other_write_grains: Vec<ResourceId>,
}

/// Mutable per-pipeline progress, guarded by the scheduler mutex.
struct PipeState {
    /// Unfired producer events gating the pipeline as a whole.
    base_wait: usize,
    open: bool,
    /// Unfired producer events per source partition group.
    group_wait: Vec<usize>,
    started: Vec<bool>,
    /// In-flight open/morsel tasks per group.
    group_tasks: Vec<usize>,
    groups_done: usize,
    /// Total in-flight open/morsel tasks.
    in_flight: usize,
    /// Ordered-chain cursor (`ctx.threads == 1`): next partition to run.
    ordered_next: usize,
    /// Partitions of the sink state (the merger's task count), set at
    /// merge setup; `Finish` fires the buffer grains from here on.
    merge_parts: usize,
    merge_left: usize,
    merge_setup: bool,
    completed: bool,
}

/// Lock-free-ish runtime data tasks touch outside the scheduler mutex.
struct PipeRuntime<'a> {
    groups: Vec<OnceLock<GroupRun<'a>>>,
    /// Reusable thread-local sink states; doubles as the collection point
    /// for `MergeSetup`.
    idle_states: Mutex<Vec<Box<dyn Sink>>>,
    merger: OnceLock<Arc<Box<dyn PartitionMerger>>>,
}

struct GroupRun<'a> {
    morsels: Box<dyn Morsels + 'a>,
    next: AtomicUsize,
}

/// Everything guarded by the single scheduler mutex.
struct Sched {
    queue: VecDeque<Task>,
    pipes: Vec<PipeState>,
    completed: usize,
    busy: usize,
    max_parallel: usize,
    max_queue_depth: usize,
    tasks: u64,
    morsel_tasks: u64,
    overlap_tasks: u64,
    /// This run's Σ task nanoseconds (the metrics counter is cumulative
    /// across runs on a shared context).
    busy_nanos: u64,
    /// Σ thread-lifetime wall nanoseconds, one contribution per worker.
    worker_wall_nanos: u64,
    error: Option<Error>,
    /// The per-pipeline records [`GlobalStats::pipelines`] returns.
    pipelines: Vec<PipelineStats>,
}

/// Result of executing one task outside the lock.
enum Done {
    Opened {
        morsels: usize,
    },
    Sunk,
    Setup {
        parts: usize,
        /// Rows the worker states took in.
        rows: u64,
    },
    MergedPart,
    Finished {
        max_task_rows: u64,
    },
}

struct Engine<'a> {
    phys: &'a [PhysicalPipeline],
    info: Vec<PipeInfo>,
    runtimes: Vec<PipeRuntime<'a>>,
    grains: HashMap<ResourceId, usize>,
    waiters: Vec<Vec<Waiter>>,
    partitions: usize,
    /// Ordered-chain mode: `ctx.threads == 1`.
    ordered: bool,
    /// Morsel fan-out per group in concurrent mode.
    fan: usize,
    ctx: &'a ExecContext,
    res: &'a Resources,
    state: Mutex<Sched>,
    cvar: Condvar,
}

/// Take the scheduler state back from a poisoned mutex only to record
/// the failure: a set `error` drains every worker and ends the run with it.
fn recover<G: DerefMut<Target = Sched>>(poisoned: PoisonError<G>) -> G {
    let mut s = poisoned.into_inner();
    s.error
        .get_or_insert_with(|| Error::Exec("scheduler state lock poisoned".into()));
    s
}

impl<'a> Engine<'a> {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state.lock().unwrap_or_else(recover)
    }

    fn enqueue(&self, s: &mut Sched, task: Task) {
        s.queue.push_back(task);
        s.max_queue_depth = s.max_queue_depth.max(s.queue.len());
    }

    /// Start every group that is sealed, unstarted, and admissible under
    /// the pipeline's ordering discipline.
    fn try_start_groups(&self, s: &mut Sched, pipe: usize) {
        if !s.pipes[pipe].open || s.pipes[pipe].merge_setup {
            return;
        }
        let groups = self.info[pipe].groups;
        loop {
            let st = &mut s.pipes[pipe];
            let g = if self.ordered {
                // One group at a time, strictly in partition order — this
                // is what makes threads == 1 runs bit-deterministic.
                if st.in_flight > 0 || st.ordered_next >= groups {
                    return;
                }
                let g = st.ordered_next;
                if st.group_wait[g] > 0 || st.started[g] {
                    return;
                }
                g
            } else {
                match (0..groups).find(|&g| st.group_wait[g] == 0 && !st.started[g]) {
                    Some(g) => g,
                    None => return,
                }
            };
            st.started[g] = true;
            st.in_flight += 1;
            st.group_tasks[g] += 1;
            // Partition overlap: this group starts while a producer still
            // has *other* partitions unsealed (`merge_left` counts merge
            // tasks not yet applied; it is decremented before the seal
            // event fires, so 0 means every partition is already sealed).
            if self.info[pipe]
                .source_producers
                .iter()
                .any(|&pr| s.pipes[pr].merge_left > 0)
            {
                s.overlap_tasks += 1;
            }
            self.enqueue(s, Task::Open { pipe, group: g });
            if self.ordered {
                return; // in_flight is now 1; nothing else admissible
            }
        }
    }

    /// One producer event on `grain`: wake base and group waiters.
    fn fire(&self, s: &mut Sched, grain: ResourceId) {
        let Some(&gi) = self.grains.get(&grain) else {
            return;
        };
        // Waiter lists are static (owned by the engine, not the mutex),
        // so they can be iterated while pipe state is mutated.
        for &w in &self.waiters[gi] {
            match w {
                Waiter::Base(c) => {
                    let st = &mut s.pipes[c];
                    debug_assert!(st.base_wait > 0, "base wait underflow");
                    st.base_wait -= 1;
                    if st.base_wait == 0 {
                        st.open = true;
                        self.try_start_groups(s, c);
                    }
                }
                Waiter::Group { pipe, group } => {
                    let st = &mut s.pipes[pipe];
                    debug_assert!(st.group_wait[group] > 0, "group wait underflow");
                    st.group_wait[group] -= 1;
                    if st.group_wait[group] == 0 {
                        self.try_start_groups(s, pipe);
                    }
                }
            }
        }
    }

    /// Mark `pipe` complete after its `Finish` and fire its completion
    /// grains: the buffer partitions its sink state does not have (a global
    /// aggregate's merge task published the whole buffer) and the
    /// non-buffer grains.
    fn complete(&self, s: &mut Sched, pipe: usize) {
        s.pipes[pipe].completed = true;
        s.completed += 1;
        for &b in &self.info[pipe].buffers_written {
            for p in s.pipes[pipe].merge_parts..self.partitions {
                self.fire(s, ResourceId::BufferPart(b, p));
            }
        }
        for &g in &self.info[pipe].other_write_grains {
            self.fire(s, g);
        }
    }

    /// Execute one task outside the lock.
    fn exec(&self, task: Task) -> Result<Done> {
        match task {
            Task::Open { pipe, group } => {
                let p: &'a PhysicalPipeline = &self.phys[pipe];
                let morsels = match p.source.partitioned_input() {
                    Some(_) => p.source.open_partition(self.ctx, self.res, group)?,
                    None => p.source.open(self.ctx, self.res)?,
                };
                let n = morsels.count();
                self.runtimes[pipe].groups[group]
                    .set(GroupRun {
                        morsels,
                        next: AtomicUsize::new(0),
                    })
                    .map_err(|_| Error::Exec("pipeline group opened twice".into()))?;
                Ok(Done::Opened { morsels: n })
            }
            Task::Morsel { pipe, group } => {
                let p = &self.phys[pipe];
                let run = self.runtimes[pipe].groups[group]
                    .get()
                    .ok_or_else(|| Error::Exec("morsel task before group open".into()))?;
                let mut state = {
                    let mut idle = lock_or_err(&self.runtimes[pipe].idle_states, "idle state")?;
                    match idle.pop() {
                        Some(st) => st,
                        None => p.sink.make(self.ctx)?,
                    }
                };
                loop {
                    let i = run.next.fetch_add(1, Ordering::Relaxed);
                    if i >= run.morsels.count() {
                        break;
                    }
                    let Some(chunk) = run.morsels.morsel(i, self.ctx)? else {
                        continue;
                    };
                    count_source_chunk(&chunk, self.ctx);
                    if let Some(out) = push_through(&p.ops, chunk, self.ctx, self.res)? {
                        state.sink(out, self.ctx)?;
                    }
                }
                lock_or_err(&self.runtimes[pipe].idle_states, "idle state")?.push(state);
                Ok(Done::Sunk)
            }
            Task::MergeSetup { pipe } => {
                let p = &self.phys[pipe];
                let states = std::mem::take(&mut *lock_or_err(
                    &self.runtimes[pipe].idle_states,
                    "idle state",
                )?);
                let rows = record_pipeline_rows(p, &states, self.ctx);
                let merger = Arc::new(p.sink.make_merger(states, self.ctx)?);
                let parts = merger.partitions();
                self.runtimes[pipe]
                    .merger
                    .set(merger)
                    .map_err(|_| Error::Exec("pipeline merger set twice".into()))?;
                Ok(Done::Setup { parts, rows })
            }
            Task::Merge { pipe, part } => {
                self.merger(pipe)?
                    .merge_partition(part, self.ctx, self.res)?;
                Ok(Done::MergedPart)
            }
            Task::Finish { pipe } => {
                let merger = self.merger(pipe)?;
                merger.finish(self.ctx, self.res)?;
                let max_task_rows = merger.max_task_rows();
                self.ctx
                    .metrics
                    .record_merge(merger.partitions() as u64, max_task_rows);
                Ok(Done::Finished { max_task_rows })
            }
        }
    }

    /// The merger `MergeSetup` built for `pipe`.
    fn merger(&self, pipe: usize) -> Result<&Arc<Box<dyn PartitionMerger>>> {
        self.runtimes[pipe]
            .merger
            .get()
            .ok_or_else(|| Error::Exec("merge/finish task before setup".into()))
    }

    /// Apply a finished task's effects under the lock.
    fn apply(&self, s: &mut Sched, task: Task, done: Done) -> Result<()> {
        match (task, done) {
            (Task::Open { pipe, group }, Done::Opened { morsels }) => {
                let fan = if self.ordered {
                    1
                } else {
                    self.fan.min(morsels).max(1)
                };
                // The open task accounted for one in-flight unit; morsel
                // tasks replace it.
                s.pipes[pipe].in_flight += fan - 1;
                s.pipes[pipe].group_tasks[group] += fan - 1;
                s.morsel_tasks += fan as u64;
                for _ in 0..fan {
                    self.enqueue(s, Task::Morsel { pipe, group });
                }
            }
            (Task::Morsel { pipe, group }, Done::Sunk) => {
                let st = &mut s.pipes[pipe];
                st.in_flight -= 1;
                st.group_tasks[group] -= 1;
                if st.group_tasks[group] == 0 {
                    st.groups_done += 1;
                    if self.ordered {
                        st.ordered_next = st.ordered_next.max(group + 1);
                    }
                }
                if st.groups_done == self.info[pipe].groups {
                    st.merge_setup = true;
                    self.enqueue(s, Task::MergeSetup { pipe });
                } else {
                    self.try_start_groups(s, pipe);
                }
            }
            (Task::MergeSetup { pipe }, Done::Setup { parts, rows }) => {
                s.pipes[pipe].merge_parts = parts;
                s.pipes[pipe].merge_left = parts;
                s.pipelines[pipe].sink_rows = rows;
                for part in 0..parts {
                    self.enqueue(s, Task::Merge { pipe, part });
                }
            }
            (Task::Merge { pipe, part }, Done::MergedPart) => {
                // Count this partition as sealed *before* firing its seal
                // events: consumers started by the fire read `merge_left`
                // as the number of still-unsealed partitions (the overlap
                // counter's definition).
                s.pipes[pipe].merge_left -= 1;
                for &b in &self.info[pipe].buffers_written {
                    if part < self.partitions {
                        self.fire(s, ResourceId::BufferPart(b, part));
                    }
                }
                if s.pipes[pipe].merge_left == 0 {
                    self.enqueue(s, Task::Finish { pipe });
                }
            }
            (Task::Finish { pipe }, Done::Finished { max_task_rows }) => {
                let stats = &mut s.pipelines[pipe];
                stats.merge_tasks = s.pipes[pipe].merge_parts as u64;
                stats.merge_max_task_rows = max_task_rows;
                self.complete(s, pipe);
            }
            _ => return Err(Error::Exec("scheduler task/result mismatch".into())),
        }
        Ok(())
    }

    fn worker(&self, n: usize) {
        // Each worker contributes its own thread-lifetime span to the
        // summed wall clock, so `busy / wall` utilization stays meaningful
        // when some workers spend the run idle.
        let t0 = Instant::now();
        self.worker_loop(n);
        let wall = t0.elapsed().as_nanos() as u64;
        let mut s = self.lock();
        s.worker_wall_nanos = s.worker_wall_nanos.saturating_add(wall);
    }

    fn worker_loop(&self, n: usize) {
        loop {
            let task = {
                let mut s = self.lock();
                loop {
                    if s.error.is_some() || s.completed == n {
                        drop(s);
                        self.cvar.notify_all();
                        return;
                    }
                    if let Some(task) = s.queue.pop_front() {
                        s.busy += 1;
                        s.max_parallel = s.max_parallel.max(s.busy);
                        s.tasks += 1;
                        break task;
                    }
                    s = self.cvar.wait(s).unwrap_or_else(recover);
                }
            };

            let t0 = Instant::now();
            // Contain panics from operator/sink/merger code: an unwinding
            // worker that never reports back would strand its peers in
            // `cvar.wait` forever; as an error it wakes and drains them.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.exec(task)))
                    .unwrap_or_else(|_| Err(Error::Exec("scheduler task panicked".into())));
            let busy = t0.elapsed().as_nanos() as u64;

            let mut s = self.lock();
            s.busy -= 1;
            s.busy_nanos = s.busy_nanos.saturating_add(busy);
            self.ctx
                .metrics
                .add(&self.ctx.metrics.sched_busy_nanos, busy);
            if let Err(e) = outcome.and_then(|done| self.apply(&mut s, task, done)) {
                s.error.get_or_insert(e);
            }
            drop(s);
            self.cvar.notify_all();
        }
    }
}

/// Run lowered pipelines on a pool of `ctx.workers` threads. `deps[i]`
/// holds pipeline `i`'s grains at `res`' partition count (what
/// [`crate::pipeline::PipelinePlan::deps`] returns). Returns the observed
/// stats or the first task error (`Error::Plan` for cyclic dependencies or
/// a `deps` slice that is not one entry per pipeline, both detected up
/// front).
pub fn run_physical_global(
    phys: &[PhysicalPipeline],
    deps: &[NodeDeps],
    ctx: &ExecContext,
    res: &Resources,
) -> Result<GlobalStats> {
    let n = phys.len();
    if n != deps.len() {
        return Err(Error::Plan(format!(
            "{n} pipelines but {} dependency records",
            deps.len()
        )));
    }
    if n == 0 {
        return Ok(GlobalStats::default());
    }
    let partitions = res.partitions();
    check_acyclic(&build_dag(deps))?;

    // Writer sets per grain.
    let mut writers: HashMap<ResourceId, Vec<usize>> = HashMap::new();
    for (i, d) in deps.iter().enumerate() {
        for &w in &d.writes {
            writers.entry(w).or_default().push(i);
        }
    }

    // Grain table + waiter lists + per-pipe static info and initial waits.
    let mut grains: HashMap<ResourceId, usize> = HashMap::new();
    let mut waiters: Vec<Vec<Waiter>> = Vec::new();
    let mut grain_idx = |g: ResourceId, waiters: &mut Vec<Vec<Waiter>>| -> usize {
        *grains.entry(g).or_insert_with(|| {
            waiters.push(Vec::new());
            waiters.len() - 1
        })
    };
    let mut info = Vec::with_capacity(n);
    let mut pipes = Vec::with_capacity(n);
    let mut runtimes = Vec::with_capacity(n);
    for (c, p) in phys.iter().enumerate() {
        let source_buf = p.source.partitioned_input();
        let groups = if source_buf.is_some() { partitions } else { 1 };
        let mut base_wait = 0usize;
        let mut group_wait = vec![0usize; groups];
        let mut source_producers: Vec<usize> = Vec::new();
        for &r in &deps[c].reads {
            let producing: Vec<usize> = writers
                .get(&r)
                .map(|ps| ps.iter().copied().filter(|&pr| pr != c).collect())
                .unwrap_or_default();
            match (r, source_buf) {
                (ResourceId::BufferPart(b, g), Some(src)) if b == src => {
                    // One wait unit per producer event; each producer fires
                    // the grain exactly once, and every fire walks the
                    // waiter list, so a single waiter entry suffices.
                    group_wait[g] += producing.len();
                    if !producing.is_empty() {
                        let gi = grain_idx(r, &mut waiters);
                        waiters[gi].push(Waiter::Group { pipe: c, group: g });
                    }
                    for pr in producing {
                        if !source_producers.contains(&pr) {
                            source_producers.push(pr);
                        }
                    }
                }
                _ => {
                    base_wait += producing.len();
                    if !producing.is_empty() {
                        let gi = grain_idx(r, &mut waiters);
                        waiters[gi].push(Waiter::Base(c));
                    }
                }
            }
        }
        let mut buffers_written: Vec<usize> = Vec::new();
        let mut other_write_grains: Vec<ResourceId> = Vec::new();
        for &w in &deps[c].writes {
            match w {
                ResourceId::BufferPart(b, _) => {
                    if !buffers_written.contains(&b) {
                        buffers_written.push(b);
                    }
                }
                other => {
                    if !other_write_grains.contains(&other) {
                        other_write_grains.push(other);
                    }
                }
            }
        }
        info.push(PipeInfo {
            groups,
            source_producers,
            buffers_written,
            other_write_grains,
        });
        pipes.push(PipeState {
            base_wait,
            open: base_wait == 0,
            group_wait,
            started: vec![false; groups],
            group_tasks: vec![0; groups],
            groups_done: 0,
            in_flight: 0,
            ordered_next: 0,
            merge_parts: 0,
            merge_left: 0,
            merge_setup: false,
            completed: false,
        });
        runtimes.push(PipeRuntime {
            groups: (0..groups).map(|_| OnceLock::new()).collect(),
            idle_states: Mutex::new(Vec::new()),
            merger: OnceLock::new(),
        });
    }

    let workers = ctx.workers.max(1);
    let engine = Engine {
        phys,
        info,
        runtimes,
        grains,
        waiters,
        partitions,
        ordered: ctx.threads <= 1,
        fan: ctx.threads.max(1),
        ctx,
        res,
        state: Mutex::new(Sched {
            queue: VecDeque::new(),
            pipes,
            completed: 0,
            busy: 0,
            max_parallel: 0,
            max_queue_depth: 0,
            tasks: 0,
            morsel_tasks: 0,
            overlap_tasks: 0,
            busy_nanos: 0,
            worker_wall_nanos: 0,
            error: None,
            pipelines: phys
                .iter()
                .map(|p| PipelineStats {
                    label: p.label.clone(),
                    intermediate: p.intermediate,
                    ..PipelineStats::default()
                })
                .collect(),
        }),
        cvar: Condvar::new(),
    };

    // Seed the queue with every immediately runnable group.
    let initially_ready = {
        let mut s = engine.lock();
        for pipe in 0..n {
            engine.try_start_groups(&mut s, pipe);
        }
        (0..n)
            .filter(|&pipe| s.pipes[pipe].started.iter().any(|&b| b))
            .count()
    };

    // Worker 0 is the calling thread: a one-worker run spawns nothing, and
    // every query keeps running on the thread (cache, malloc arena) its
    // client called from. Task panics are contained in `worker_loop`.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| engine.worker(n));
        }
        engine.worker(n);
    });

    let mut s = engine.lock();
    if let Some(e) = s.error.take() {
        return Err(e);
    }
    debug_assert_eq!(s.completed, n);
    Ok(GlobalStats {
        pipelines: std::mem::take(&mut s.pipelines),
        initially_ready,
        max_parallel: s.max_parallel,
        tasks: s.tasks,
        morsel_tasks: s.morsel_tasks,
        overlap_tasks: s.overlap_tasks,
        max_queue_depth: s.max_queue_depth,
        busy_nanos: s.busy_nanos,
        worker_wall_nanos: s.worker_wall_nanos,
        workers,
    })
}
