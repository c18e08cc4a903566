//! Tile-level task-graph execution: dependence counters between tiles,
//! work-stealing deques between workers (Sec. IV-D meets the hybrid
//! static/dynamic schedules of the tiled-polyhedral literature).
//!
//! The fixed-shape executors force a choice: `pipeline_2d` hard-codes
//! the `(i-1, j)/(i, j-1)` cone onto column blocks, and `wavefront_2d`
//! serializes whole diagonals behind a barrier even when the dependence
//! cone is far narrower. A [`TileGraph`] instead lowers the tiled
//! iteration space to an explicit dependence DAG over tiles:
//!
//! * every tile carries a cache-padded atomic **dependence counter**
//!   initialized to its in-graph predecessor count (derived from the
//!   inter-tile dependence vectors for grid graphs, or given explicitly
//!   for imperfect/multi-statement tile graphs);
//! * tiles whose counter hits zero enter per-worker **work-stealing
//!   deques** (owner pops LIFO for cache locality, thieves steal FIFO
//!   so the oldest — most-unblocking — tiles travel);
//! * completing a tile decrements each successor's counter and
//!   publishes any successor that reached zero. Scheduling is static
//!   *inside* a tile (the body runs the tile's cells in program order)
//!   and dynamic *between* tiles.
//!
//! The diagonal barrier of `wavefront_2d` is subsumed as a special
//! case: [`TileGraph::diagonal`] builds the full-cone counter graph in
//! which every tile depends on all tiles of the previous diagonal —
//! same order, but workers flow across diagonals without a gang-wide
//! barrier (or a fresh `doall` dispatch) per diagonal.
//!
//! ## Fault model
//!
//! The graph speaks the existing poison/progress protocol. A tile-body
//! panic is caught at the worker boundary and poisons the fabric; idle
//! workers observe the flag and exit, and — structurally — a failed
//! tile never decrements its successors, so every transitive successor
//! keeps a nonzero counter and can never run. The caller gets
//! [`RuntimeError::WorkerPanic`] with the failing tile. Under
//! [`RuntimeOptions::watchdog`] an idle worker that sees no global
//! progress (tile completions, workers coming online, or — until the
//! gang is fully online — pool job-lifecycle heartbeats) for the whole
//! deadline reports [`RuntimeError::Stalled`] with the ready-but-stuck
//! frontier tiles.

use crate::error::{RunStats, RuntimeError, RuntimeOptions};
use crate::pipeline::GridSweep;
use crate::pool;
use crate::sync::{payload_text, Backoff, CachePadded, Fabric, StallWatch, Wait, SPIN_LIMIT};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

/// Hard ceiling on graph nodes: each tile carries a 64-byte padded
/// counter, so 2^20 tiles cost 64 MiB of counters — tiles are coarse,
/// and a graph this size already indicates untiled input.
const MAX_TILES: u64 = 1 << 20;

/// Hard ceiling on total edges (successor-list entries), reached only
/// by adversarial dense graphs such as huge diagonal cones.
const MAX_EDGES: usize = 1 << 24;

/// How many ready-but-never-run tiles a stall diagnostic lists.
const STALL_SNAPSHOT_LIMIT: usize = 8;

/// A dependence-counter task graph over tiles. Build one with
/// [`TileGraph::from_grid_deps`] (2-D tile grid + dependence vectors),
/// [`TileGraph::diagonal`] (the wavefront-barrier special case), or
/// [`TileGraph::from_edges`] (an explicit DAG for imperfect or
/// multi-statement tile structures), then execute it with
/// [`TileGraph::run`]. Construction validates acyclicity, so a built
/// graph always makes progress when run.
#[derive(Debug)]
pub struct TileGraph {
    /// Successor lists, indexed by node id.
    succs: Vec<Vec<u32>>,
    /// Initial dependence-counter value (in-degree) per node.
    indeg: Vec<i64>,
    /// Diagnostic tile coordinate per node: the tile's `(i, j)` for
    /// grid graphs, the caller-supplied cell or `(id, 0)` for explicit
    /// graphs. Reported in errors and handed to the body.
    cells: Vec<(i64, i64)>,
}

impl TileGraph {
    /// Builds the counter graph of the tile grid `grid` under the
    /// inter-tile dependence vectors `deps`: tile `t` has an edge to
    /// `t + d` for every `d` in `deps` (targets outside the grid are
    /// dropped). Each vector must be lexicographically positive
    /// (`di > 0`, or `di == 0 && dj > 0`), which makes the graph a DAG
    /// by construction; anything else is [`RuntimeError::Misuse`].
    ///
    /// The standard cone `&[(1, 0), (0, 1)]` reproduces the dependence
    /// pattern of `pipeline_2d`; wider cones (e.g. `(1, 1)`, or the
    /// `(1, -1)` anti-diagonal vector of skewed stencils) express
    /// relations the fixed-shape primitives cannot.
    pub fn from_grid_deps(grid: GridSweep, deps: &[(i64, i64)]) -> Result<TileGraph, RuntimeError> {
        let cells_u = grid.cells_checked()?;
        if cells_u > MAX_TILES {
            return Err(RuntimeError::Misuse(format!(
                "tile grid [{}, {}) x [{}, {}) has {cells_u} tiles, over the {MAX_TILES} \
                 task-graph ceiling — tile coarser",
                grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
            )));
        }
        let mut vectors: Vec<(i64, i64)> = Vec::new();
        for &(di, dj) in deps {
            if !(di > 0 || (di == 0 && dj > 0)) {
                return Err(RuntimeError::Misuse(format!(
                    "dependence vector ({di}, {dj}) is not lexicographically positive; \
                     the tile graph would not be acyclic"
                )));
            }
            if !vectors.contains(&(di, dj)) {
                vectors.push((di, dj));
            }
        }
        let n = cells_u as usize;
        let nj = grid.j_hi.saturating_sub(grid.j_lo).max(0);
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0i64; n];
        let mut cells = Vec::with_capacity(n);
        let mut edge_total = 0usize;
        for i in grid.i_lo..grid.i_hi {
            for j in grid.j_lo..grid.j_hi {
                cells.push((i, j));
            }
        }
        for k in 0..n {
            let (i, j) = cells[k];
            for &(di, dj) in &vectors {
                let (Some(ti), Some(tj)) = (i.checked_add(di), j.checked_add(dj)) else {
                    continue;
                };
                if ti < grid.i_lo || ti >= grid.i_hi || tj < grid.j_lo || tj >= grid.j_hi {
                    continue;
                }
                let s = ((ti - grid.i_lo) * nj + (tj - grid.j_lo)) as usize;
                succs[k].push(s as u32);
                indeg[s] += 1;
                edge_total += 1;
                if edge_total > MAX_EDGES {
                    return Err(RuntimeError::Misuse(format!(
                        "tile graph exceeds {MAX_EDGES} edges — tile coarser or thin the \
                         dependence vector set"
                    )));
                }
            }
        }
        Ok(TileGraph {
            succs,
            indeg,
            cells,
        })
    }

    /// The diagonal-barrier special case: every tile depends on *all*
    /// tiles of the previous diagonal `i + j - 1`, i.e. exactly the
    /// order `wavefront_2d` enforces with a gang barrier, expressed as
    /// a (dense) full-cone counter graph. It covers every dependence
    /// wavefront legality covers — any vector moving strictly forward
    /// across diagonals — at the cost of `Σ |diag_w| · |diag_w+1|`
    /// edges, so it is the fallback for spaces whose true cone is
    /// unknown; prefer [`TileGraph::from_grid_deps`] when it is known.
    pub fn diagonal(grid: GridSweep) -> Result<TileGraph, RuntimeError> {
        let cells_u = grid.cells_checked()?;
        if cells_u > MAX_TILES {
            return Err(RuntimeError::Misuse(format!(
                "tile grid [{}, {}) x [{}, {}) has {cells_u} tiles, over the {MAX_TILES} \
                 task-graph ceiling — tile coarser",
                grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
            )));
        }
        let n = cells_u as usize;
        let mut cells = Vec::with_capacity(n);
        for i in grid.i_lo..grid.i_hi {
            for j in grid.j_lo..grid.j_hi {
                cells.push((i, j));
            }
        }
        // Group node ids by diagonal; w is grid-local so it never
        // overflows (extents already passed cells_checked).
        let mut diagonals: Vec<Vec<u32>> = Vec::new();
        for (k, &(i, j)) in cells.iter().enumerate() {
            let w = ((i - grid.i_lo) + (j - grid.j_lo)) as usize;
            if diagonals.len() <= w {
                diagonals.resize(w + 1, Vec::new());
            }
            diagonals[w].push(k as u32);
        }
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0i64; n];
        let mut edge_total = 0usize;
        for pair in diagonals.windows(2) {
            edge_total += pair[0].len() * pair[1].len();
            if edge_total > MAX_EDGES {
                return Err(RuntimeError::Misuse(format!(
                    "diagonal cone of grid [{}, {}) x [{}, {}) exceeds {MAX_EDGES} edges; \
                     use from_grid_deps with the true dependence vectors",
                    grid.i_lo, grid.i_hi, grid.j_lo, grid.j_hi
                )));
            }
            for &src in &pair[0] {
                for &dst in &pair[1] {
                    succs[src as usize].push(dst);
                    indeg[dst as usize] += 1;
                }
            }
        }
        Ok(TileGraph {
            succs,
            indeg,
            cells,
        })
    }

    /// An explicit task DAG over `n` nodes — the imperfect or
    /// multi-statement tile graphs the fixed-shape primitives reject.
    /// Each `(src, dst)` edge means `dst` waits for `src`. `cells`
    /// optionally attaches a diagnostic tile coordinate to each node
    /// (defaults to `(id, 0)`). Out-of-range endpoints, self-loops,
    /// and cycles are refused with [`RuntimeError::Misuse`].
    pub fn from_edges(
        n: usize,
        cells: Option<&[(i64, i64)]>,
        edges: &[(usize, usize)],
    ) -> Result<TileGraph, RuntimeError> {
        if n as u64 > MAX_TILES {
            return Err(RuntimeError::Misuse(format!(
                "task graph of {n} nodes is over the {MAX_TILES} ceiling"
            )));
        }
        if edges.len() > MAX_EDGES {
            return Err(RuntimeError::Misuse(format!(
                "task graph of {} edges is over the {MAX_EDGES} ceiling",
                edges.len()
            )));
        }
        if let Some(cs) = cells {
            if cs.len() != n {
                return Err(RuntimeError::Misuse(format!(
                    "task graph has {n} nodes but {} diagnostic cells",
                    cs.len()
                )));
            }
        }
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indeg = vec![0i64; n];
        for &(src, dst) in edges {
            if src >= n || dst >= n {
                return Err(RuntimeError::Misuse(format!(
                    "edge ({src}, {dst}) is out of range for a {n}-node task graph"
                )));
            }
            if src == dst {
                return Err(RuntimeError::Misuse(format!(
                    "edge ({src}, {dst}) is a self-loop; the node could never become ready"
                )));
            }
            succs[src].push(dst as u32);
            indeg[dst] += 1;
        }
        // Kahn's pass: every node must drain, or the graph has a cycle
        // whose members would deadlock at run time. O(V + E), once, at
        // build — run() then never needs a liveness check.
        let mut remaining = indeg.clone();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&k| remaining[k as usize] == 0).collect();
        let mut drained = 0usize;
        while let Some(k) = stack.pop() {
            drained += 1;
            for &s in &succs[k as usize] {
                remaining[s as usize] -= 1;
                if remaining[s as usize] == 0 {
                    stack.push(s);
                }
            }
        }
        if drained != n {
            return Err(RuntimeError::Misuse(format!(
                "task graph contains a dependence cycle ({} of {n} nodes unreachable \
                 from the roots)",
                n - drained
            )));
        }
        let cells = match cells {
            Some(cs) => cs.to_vec(),
            None => (0..n as i64).map(|k| (k, 0)).collect(),
        };
        Ok(TileGraph {
            succs,
            indeg,
            cells,
        })
    }

    /// Number of nodes (tiles) in the graph.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// The diagnostic tile coordinate of `node`.
    pub fn cell_of(&self, node: usize) -> Option<(i64, i64)> {
        self.cells.get(node).copied()
    }

    /// Every `(src, dst)` edge of the counter graph, for external
    /// certification (`polymix-verify` re-derives the inter-tile
    /// dependence relation and proves this edge set covers it).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (src, ss) in self.succs.iter().enumerate() {
            for &dst in ss {
                out.push((src, dst as usize));
            }
        }
        out
    }

    /// Executes the graph: `body(node, i, j)` runs exactly once per
    /// node (its id plus its diagnostic tile coordinate), never before
    /// all of the node's predecessors completed. Tiles are claimed
    /// dynamically from per-worker stealing deques; workers come from
    /// the persistent pool.
    pub fn run<F>(
        &self,
        threads: usize,
        opts: RuntimeOptions,
        body: F,
    ) -> Result<RunStats, RuntimeError>
    where
        F: Fn(usize, i64, i64) + Sync,
    {
        let n = self.succs.len();
        if n == 0 {
            return Ok(RunStats::default());
        }
        let nthr = threads.clamp(1, n);
        let pending: Vec<CachePadded<AtomicI64>> = self
            .indeg
            .iter()
            .map(|&d| CachePadded::new(AtomicI64::new(d)))
            .collect();
        let remaining = CachePadded::new(AtomicI64::new(n as i64));
        let deques: Vec<CachePadded<Mutex<VecDeque<u32>>>> = (0..nthr)
            .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
            .collect();
        // Seed the roots round-robin so the gang starts balanced; the
        // build-time acyclicity checks guarantee at least one root.
        {
            let mut t = 0usize;
            for (k, &d) in self.indeg.iter().enumerate() {
                if d == 0 {
                    deques[t]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(k as u32);
                    t = (t + 1) % nthr;
                }
            }
        }
        let fabric = Fabric::new(opts.watchdog.is_some(), nthr);
        let worker = |t: usize| {
            fabric.worker_online();
            let current: Cell<Option<(i64, i64)>> = Cell::new(None);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut backoff = Backoff::new(SPIN_LIMIT);
                let mut watch = StallWatch::new(opts.watchdog);
                loop {
                    if fabric.is_poisoned() {
                        return Wait::Poisoned;
                    }
                    if remaining.load(Ordering::Acquire) <= 0 {
                        return Wait::Ready;
                    }
                    let Some(k) = pop_or_steal(&deques, t) else {
                        // Idle: nothing ready anywhere yet. Back off,
                        // and under a watchdog watch for a global
                        // freeze (tile completions bump the epoch).
                        if watch.stalled(&fabric) {
                            return Wait::Stalled;
                        }
                        if !backoff.spin() {
                            backoff.wait();
                        }
                        continue;
                    };
                    backoff = Backoff::new(SPIN_LIMIT);
                    watch = StallWatch::new(opts.watchdog);
                    let ku = k as usize;
                    let (ci, cj) = self.cells[ku];
                    current.set(Some((ci, cj)));
                    body(ku, ci, cj);
                    current.set(None);
                    // Completion protocol: mark this node done (-1
                    // distinguishes "done" from "ready" for the stall
                    // snapshot), then decrement successors, publishing
                    // any that hit zero onto our own deque (thieves
                    // redistribute), then retire it from the global
                    // count and bump the watchdog epoch.
                    pending[ku].store(-1, Ordering::Release);
                    for &s in &self.succs[ku] {
                        if pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                            deques[t]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push_back(s);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::AcqRel);
                    fabric.bump();
                }
            }));
            match outcome {
                Ok(Wait::Ready) | Ok(Wait::Poisoned) => {}
                Ok(Wait::Stalled) => {
                    let stalled_cells = self.stalled_snapshot(&pending);
                    fabric.poison(RuntimeError::Stalled { stalled_cells }, &[]);
                }
                Err(payload) => {
                    // Poison releases the gang; the failed tile never
                    // decremented its successors, so every transitive
                    // successor stays structurally unreachable.
                    fabric.poison(
                        RuntimeError::WorkerPanic {
                            worker: t,
                            cell: current.get(),
                            payload: payload_text(payload.as_ref()),
                        },
                        &[],
                    );
                }
            }
        };
        if nthr == 1 {
            worker(0);
        } else {
            pool::execute(nthr, &worker);
        }
        match fabric.into_failure() {
            Some(err) => Err(err),
            None => Ok(RunStats {
                cells: n as u64,
                workers: nthr,
            }),
        }
    }

    /// The ready-but-never-run frontier for a stall diagnostic: tiles
    /// whose counter reached zero (including one wedged mid-body) but
    /// which never completed. Falls back to the first blocked tile for
    /// the degenerate case of an instantly-frozen run.
    fn stalled_snapshot(&self, pending: &[CachePadded<AtomicI64>]) -> Vec<(i64, i64)> {
        let mut frontier = Vec::new();
        let mut blocked = None;
        for (k, c) in pending.iter().enumerate() {
            let v = c.load(Ordering::Acquire);
            if v == 0 && frontier.len() < STALL_SNAPSHOT_LIMIT {
                frontier.push(self.cells[k]);
            }
            if v > 0 && blocked.is_none() {
                blocked = Some(self.cells[k]);
            }
        }
        if frontier.is_empty() {
            blocked.into_iter().collect()
        } else {
            frontier
        }
    }
}

/// Pop from our own deque (LIFO — the tile we just unblocked is
/// cache-warm), else steal the oldest tile from a sibling (FIFO — the
/// longest-ready tile unblocks the most downstream work).
fn pop_or_steal(deques: &[CachePadded<Mutex<VecDeque<u32>>>], t: usize) -> Option<u32> {
    if let Some(k) = deques[t]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_back()
    {
        return Some(k);
    }
    let n = deques.len();
    for off in 1..n {
        let victim = (t + off) % n;
        if let Some(k) = deques[victim]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(k);
        }
    }
    None
}

/// Runs `body(i, j)` over every tile of `grid` under the inter-tile
/// dependence vectors `deps` (see [`TileGraph::from_grid_deps`]). With
/// the standard cone `&[(1, 0), (0, 1)]` this is a drop-in replacement
/// for `pipeline_2d`/`wavefront_2d` that schedules tiles dynamically.
pub fn taskgraph_2d<F>(
    grid: GridSweep,
    threads: usize,
    deps: &[(i64, i64)],
    body: F,
) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    taskgraph_2d_opts(grid, threads, RuntimeOptions::default(), deps, body)
}

/// [`taskgraph_2d`] with a watchdog deadline ([`RuntimeOptions`]).
pub fn taskgraph_2d_opts<F>(
    grid: GridSweep,
    threads: usize,
    opts: RuntimeOptions,
    deps: &[(i64, i64)],
    body: F,
) -> Result<RunStats, RuntimeError>
where
    F: Fn(i64, i64) + Sync,
{
    let graph = TileGraph::from_grid_deps(grid, deps)?;
    graph.run(threads, opts, |_, i, j| body(i, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::Mutex;

    fn grid(ni: i64, nj: i64) -> GridSweep {
        GridSweep {
            i_lo: 0,
            i_hi: ni,
            j_lo: 0,
            j_hi: nj,
        }
    }

    /// Asserts each cell ran exactly once, after every in-grid `deps`
    /// source.
    fn check_order(events: &[(i64, i64)], g: GridSweep, deps: &[(i64, i64)]) {
        let mut pos = HashMap::new();
        for (k, &c) in events.iter().enumerate() {
            assert!(pos.insert(c, k).is_none(), "cell {c:?} ran twice");
        }
        assert_eq!(events.len() as i64, g.cells(), "missing cells");
        for (&(i, j), &k) in &pos {
            for &(di, dj) in deps {
                let (si, sj) = (i - di, j - dj);
                if si >= g.i_lo && si < g.i_hi && sj >= g.j_lo && sj < g.j_hi {
                    assert!(
                        pos[&(si, sj)] < k,
                        "({i}, {j}) ran before its source ({si}, {sj})"
                    );
                }
            }
        }
    }

    #[test]
    fn standard_cone_respects_dependences() {
        for threads in [1, 3, 8] {
            let log = Mutex::new(Vec::new());
            let stats = taskgraph_2d(grid(9, 13), threads, &[(1, 0), (0, 1)], |i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
            assert_eq!(stats.cells, 9 * 13);
            check_order(&log.into_inner().unwrap(), grid(9, 13), &[(1, 0), (0, 1)]);
        }
    }

    #[test]
    fn anti_diagonal_vector_is_expressible_and_respected() {
        // (1, -1) is outside every fixed-shape primitive's cone.
        let deps = [(1, 0), (0, 1), (1, -1)];
        let log = Mutex::new(Vec::new());
        taskgraph_2d(grid(8, 8), 4, &deps, |i, j| {
            log.lock().unwrap().push((i, j));
        })
        .expect("clean run");
        check_order(&log.into_inner().unwrap(), grid(8, 8), &deps);
    }

    #[test]
    fn matches_pipeline_on_order_sensitive_prefix_sums() {
        let ni = 12usize;
        let nj = 17usize;
        let run = |threads: usize| -> Vec<f64> {
            let table: Vec<Mutex<f64>> = (0..ni * nj).map(|_| Mutex::new(0.0)).collect();
            taskgraph_2d(grid(ni as i64, nj as i64), threads, &[(1, 0), (0, 1)], |i, j| {
                let (i, j) = (i as usize, j as usize);
                let up = if i > 0 {
                    *table[(i - 1) * nj + j].lock().unwrap()
                } else {
                    1.0
                };
                let left = if j > 0 {
                    *table[i * nj + j - 1].lock().unwrap()
                } else {
                    0.0
                };
                *table[i * nj + j].lock().unwrap() = up + left;
            })
            .expect("clean run");
            table.into_iter().map(|m| m.into_inner().unwrap()).collect()
        };
        let seq = run(1);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn diagonal_graph_subsumes_wavefront_order() {
        // The full-cone graph must order every pair of tiles on
        // adjacent diagonals — including (1, -1)-shaped pairs that the
        // standard cone leaves unordered.
        let g = grid(7, 9);
        let graph = TileGraph::diagonal(g).expect("build");
        let log = Mutex::new(Vec::new());
        graph
            .run(4, RuntimeOptions::default(), |_, i, j| {
                log.lock().unwrap().push((i, j));
            })
            .expect("clean run");
        let events = log.into_inner().unwrap();
        let mut pos = HashMap::new();
        for (k, &c) in events.iter().enumerate() {
            assert!(pos.insert(c, k).is_none(), "cell {c:?} ran twice");
        }
        assert_eq!(events.len() as i64, g.cells());
        for (&(i, j), &k) in &pos {
            for (&(si, sj), &sk) in &pos {
                if si + sj < i + j {
                    assert!(sk < k, "diagonal order violated: ({si},{sj}) vs ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn covers_same_cells_as_wavefront() {
        let a = Mutex::new(HashSet::new());
        taskgraph_2d(grid(5, 6), 4, &[(1, 0), (0, 1)], |i, j| {
            a.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        let b = Mutex::new(HashSet::new());
        crate::pipeline::wavefront_2d(grid(5, 6), 4, |i, j| {
            b.lock().unwrap().insert((i, j));
        })
        .expect("clean run");
        assert_eq!(a.into_inner().unwrap(), b.into_inner().unwrap());
    }

    #[test]
    fn explicit_dag_runs_each_node_once_in_order() {
        // A diamond with a tail: 0 -> {1, 2} -> 3 -> 4.
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)];
        let graph = TileGraph::from_edges(5, None, &edges).expect("build");
        for threads in [1, 2, 4] {
            let log = Mutex::new(Vec::new());
            let stats = graph
                .run(threads, RuntimeOptions::default(), |node, _, _| {
                    log.lock().unwrap().push(node);
                })
                .expect("clean run");
            assert_eq!(stats.cells, 5);
            let order = log.into_inner().unwrap();
            let pos: HashMap<usize, usize> =
                order.iter().enumerate().map(|(k, &n)| (n, k)).collect();
            assert_eq!(pos.len(), 5, "every node exactly once");
            for &(src, dst) in &edges {
                assert!(pos[&src] < pos[&dst], "edge ({src}, {dst}) violated");
            }
        }
    }

    #[test]
    fn imperfect_two_statement_tile_graph() {
        // Two statements per tile column — S-tiles feed their own next
        // tile and the T-tile of the same column (imperfect nest shape
        // the fixed primitives reject). Node 2k = S_k, 2k+1 = T_k.
        let n = 8usize;
        let mut edges = Vec::new();
        for k in 0..n / 2 {
            edges.push((2 * k, 2 * k + 1)); // S_k -> T_k
            if k + 1 < n / 2 {
                edges.push((2 * k, 2 * (k + 1))); // S_k -> S_{k+1}
            }
        }
        let graph = TileGraph::from_edges(n, None, &edges).expect("build");
        let log = Mutex::new(Vec::new());
        graph
            .run(3, RuntimeOptions::default(), |node, _, _| {
                log.lock().unwrap().push(node);
            })
            .expect("clean run");
        let order = log.into_inner().unwrap();
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(k, &v)| (v, k)).collect();
        for &(src, dst) in &edges {
            assert!(pos[&src] < pos[&dst]);
        }
    }

    #[test]
    fn cycle_is_rejected_at_build_time() {
        let err = TileGraph::from_edges(3, None, &[(0, 1), (1, 2), (2, 0)])
            .expect_err("cycle must be refused");
        assert!(matches!(err, RuntimeError::Misuse(ref m) if m.contains("cycle")), "{err:?}");
        let err = TileGraph::from_edges(2, None, &[(1, 1)]).expect_err("self-loop");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        let err = TileGraph::from_edges(2, None, &[(0, 5)]).expect_err("range");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
    }

    #[test]
    fn non_lex_positive_vectors_are_rejected() {
        for bad in [(0, 0), (-1, 0), (0, -1), (-1, 2)] {
            let err = taskgraph_2d(grid(4, 4), 2, &[bad], |_, _| {})
                .expect_err("must refuse non-forward vector");
            assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_grids() {
        let count = Mutex::new(0);
        let stats = taskgraph_2d(grid(0, 5), 4, &[(1, 0)], |_, _| {
            *count.lock().unwrap() += 1;
        })
        .expect("empty");
        assert_eq!(stats.cells, 0);
        taskgraph_2d(grid(1, 8), 4, &[(1, 0), (0, 1)], |_, _| {
            *count.lock().unwrap() += 1;
        })
        .expect("one row");
        taskgraph_2d(grid(8, 1), 4, &[(1, 0), (0, 1)], |_, _| {
            *count.lock().unwrap() += 1;
        })
        .expect("one column");
        assert_eq!(*count.lock().unwrap(), 16);
    }

    #[test]
    fn overflowing_grids_are_rejected() {
        let g = GridSweep {
            i_lo: i64::MIN,
            i_hi: i64::MAX,
            j_lo: 0,
            j_hi: 1,
        };
        let err = taskgraph_2d(g, 4, &[(1, 0)], |_, _| {}).expect_err("must refuse");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
        let err = TileGraph::diagonal(grid(1 << 20, 1 << 20)).expect_err("over tile cap");
        assert!(matches!(err, RuntimeError::Misuse(_)), "{err:?}");
    }

    #[test]
    fn panic_surfaces_and_successors_never_run() {
        let ran: Mutex<HashSet<(i64, i64)>> = Mutex::new(HashSet::new());
        let err = taskgraph_2d(grid(16, 16), 4, &[(1, 0), (0, 1)], |i, j| {
            if (i, j) == (4, 4) {
                panic!("taskgraph boom");
            }
            ran.lock().unwrap().insert((i, j));
        })
        .expect_err("panic must surface");
        match err {
            RuntimeError::WorkerPanic { cell, payload, .. } => {
                assert_eq!(cell, Some((4, 4)));
                assert!(payload.contains("taskgraph boom"), "{payload}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Structural guarantee: no transitive successor of (4, 4) can
        // have run — its counter chain was never decremented.
        let ran = ran.into_inner().unwrap();
        for i in 4..16 {
            for j in 4..16 {
                assert!(
                    !ran.contains(&(i, j)),
                    "transitive successor ({i}, {j}) of the panicked tile ran"
                );
            }
        }
    }

    #[test]
    fn watchdog_passes_healthy_runs() {
        let stats = taskgraph_2d_opts(
            grid(32, 32),
            4,
            RuntimeOptions::watched(),
            &[(1, 0), (0, 1)],
            |_, _| {},
        )
        .expect("healthy watched run");
        assert_eq!(stats.cells, 32 * 32);
    }

    #[test]
    fn edges_accessor_matches_structure() {
        let graph = TileGraph::from_grid_deps(grid(2, 2), &[(1, 0), (0, 1)]).expect("build");
        let mut edges = graph.edges();
        edges.sort_unstable();
        // Node ids row-major: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3.
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.cell_of(2), Some((1, 0)));
    }
}
