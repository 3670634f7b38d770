"""Out-of-core dense matrix multiply (paper Section IV-A).

``C = A B`` with the operands resident at the tree root (file storage in
the evaluated systems).  Each recursion level tiles its local problem
``C_l += A_l B_l`` into ``(tm x tk) @ (tk x tn)`` blocks sized by the
*child* node's free capacity, moves row/column shards down, recurses,
and copies result blocks back up -- Listing 3 over Figure 3.

Two paper optimisations are implemented and individually switchable
(the ablation benches exercise them):

* **row-shard reuse** ("the row shard m can stay in the l+1 level and
  the program just iteratively loads column shards"): A-tiles are
  fetched through the child node's buffer cache
  (:meth:`repro.core.system.System.fetch_down`), so the tiles of the
  current row strip hit across the j loop -- the runtime now provides
  centrally what this app used to hand-roll with a per-child dict of
  handles;
* **pipelining**: B tiles come from a depth-``pipeline_depth`` buffer
  pool, so the next column shard's load overlaps the current kernel.

Accumulation across the k loop happens where the paper puts it: the
child's C block stays resident while partial products accumulate into
it; when the incoming problem itself carries prior partials (``acc``),
the block is first initialised by moving the parent's current region
down.  Up-moves are therefore always plain copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.cache.spec import FetchSpec
from repro.compute.kernels.gemm import gemm_block, gemm_cost
from repro.compute.processor import ProcessorKind
from repro.core.buffers import BufferHandle
from repro.core.context import ExecutionContext
from repro.core.decomposition import ceil_div, window2d
from repro.core.program import NorthupProgram
from repro.core.system import System
from repro.errors import CapacityError, ConfigError
from repro.exec import Binding, kernel_spec
from repro.topology.node import TreeNode
from repro.workloads.matrices import load_array, random_dense

#: Fraction of a child node's capacity the decomposition may plan for;
#: the rest covers alignment padding and transient allocations.
CAPACITY_SAFETY = 0.9


@dataclass(frozen=True)
class GemmTiles:
    """Chosen tile shape for one level."""

    tm: int
    tn: int
    tk: int
    reuse: bool


def _reuse_cost(s: int, k: int, depth: int) -> int:
    """Resident elements with row-shard reuse and tk = k."""
    return s * k + depth * k * s + depth * s * s


def _noreuse_cost(s: int, tk: int, depth: int) -> int:
    """Resident elements without reuse (A and B both streamed)."""
    return depth * (s * tk + tk * s) + depth * s * s


def _max_s(cost_fn, budget: int, hi: int) -> int:
    """Largest ``s`` in [1, hi] with cost_fn(s) <= budget (0 if none)."""
    if cost_fn(1) > budget:
        return 0
    lo, best = 1, 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if cost_fn(mid) <= budget:
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    return best


def choose_gemm_tiles(m: int, k: int, n: int, *, elem_size: int,
                      budget_bytes: int, depth: int = 2,
                      prefer_reuse: bool = True,
                      align: int = 8) -> GemmTiles:
    """Pick the largest square output tile the child budget allows.

    With reuse the plan holds a full ``tm x k`` row strip of A plus
    ``depth`` B-tile and C-block sets; without it, ``depth`` sets of all
    three.  ``tk = k`` is preferred (no k loop -> single plain copy up);
    when the budget cannot host full-k strips, ``tk`` halves until a
    plan fits.
    """
    if min(m, k, n) < 1:
        raise ConfigError(f"gemm dims must be >= 1, got {(m, k, n)}")
    if depth < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {depth}")
    budget = int(budget_bytes) // elem_size
    smax = min(m, n)

    def aligned(s: int) -> int:
        if s >= align:
            s -= s % align
        return s

    if prefer_reuse:
        s = _max_s(lambda s: _reuse_cost(s, k, depth), budget, smax)
        if s >= align or s == smax:
            s = aligned(s) or s
            return GemmTiles(tm=s, tn=s, tk=k, reuse=True)

    # No (worthwhile) full-k reuse plan: split k.  Traffic is independent
    # of tk, so maximise the output tile s; among near-best s prefer the
    # largest tk (fewer, bigger transfers).
    best: GemmTiles | None = None
    best_s = 0
    tk = k
    while tk >= 1:
        s = _max_s(lambda s: _noreuse_cost(s, tk, depth), budget, smax)
        if s > best_s:
            best_s = s
            best = GemmTiles(tm=s, tn=s, tk=tk, reuse=False)
        if tk == 1:
            break
        tk //= 2
    if best is None:
        raise CapacityError(
            f"no GEMM tiling fits a budget of {budget_bytes} bytes for "
            f"problem {(m, k, n)}")
    # Walk tk back up while s stays within 10% of the best.
    tk = best.tk
    while tk * 2 <= k:
        s = _max_s(lambda s: _noreuse_cost(s, tk * 2, depth), budget, smax)
        if s < 0.9 * best_s:
            break
        tk *= 2
        best = GemmTiles(tm=s, tn=s, tk=tk, reuse=False)
    s = aligned(best.tm) or best.tm
    return GemmTiles(tm=s, tn=s, tk=best.tk, reuse=False)


@dataclass
class GemmLevel:
    """Per-level problem state: local operands and their logical shape.

    ``acc`` marks that ``c`` already holds partial sums from an earlier
    k-iteration of the level above.
    """

    a: BufferHandle
    b: BufferHandle
    c: BufferHandle
    m: int
    k: int
    n: int
    acc: bool = False


@dataclass(frozen=True)
class GemmChunk:
    """One (i, j, p) tile of a level's loop nest."""

    i: int
    j: int
    p: int
    row0: int
    rows: int
    col0: int
    cols: int
    k0: int
    kk: int
    last_p: bool


@dataclass
class _ChildState:
    """Per-child pools (chunks spread over sibling subtrees keep
    independent state on each).  A-tile residency is no longer tracked
    here: the node's buffer cache holds it."""

    b_pool: list[BufferHandle] = field(default_factory=list)
    b_next: int = 0
    c_current: BufferHandle | None = None


@dataclass
class _LevelPlan:
    """Transient per-invocation state."""

    tiles: GemmTiles
    elem: int
    tiles_n: int
    states: dict[int, _ChildState] = field(default_factory=dict)

    def state(self, node_id: int) -> _ChildState:
        return self.states.setdefault(node_id, _ChildState())


class GemmApp(NorthupProgram):
    """Northup out-of-core GEMM.

    Parameters
    ----------
    m, k, n:
        Problem shape: ``C (m x n) = A (m x k) @ B (k x n)``.
    seed:
        Workload seed for the operand matrices.
    pipeline_depth:
        Buffer sets for streamed tiles (1 disables the overlap).
    reuse_row_shard:
        Prefer the Section IV-A full-k row-strip tiling when planning
        tiles.  Whether repeated A windows actually hit is decided by
        the system's cache config (``CacheConfig.disabled()`` recovers
        the no-reuse behaviour for the ablation).
    """

    def __init__(self, system: System, *, m: int, k: int, n: int,
                 seed: int = 0, pipeline_depth: int = 2,
                 reuse_row_shard: bool = True,
                 force_tiles: GemmTiles | None = None) -> None:
        if min(m, k, n) < 1:
            raise ConfigError(f"gemm dims must be >= 1, got {(m, k, n)}")
        self.system = system
        self.m, self.k, self.n = m, k, n
        self.elem = 4
        self.pipeline_depth = pipeline_depth
        self.reuse_row_shard = reuse_row_shard
        self.force_tiles = force_tiles
        self.a_np = random_dense(m, k, seed=seed)
        self.b_np = random_dense(k, n, seed=seed + 1)
        root = system.tree.root
        self.a_root = load_array(system, self.a_np, root, label="A")
        self.b_root = load_array(system, self.b_np, root, label="B")
        self.c_root = system.alloc(m * n * self.elem, root, label="C")

    # -- template hooks -------------------------------------------------

    def before_run(self, ctx: ExecutionContext) -> None:
        ctx.payload = GemmLevel(a=self.a_root, b=self.b_root, c=self.c_root,
                                m=self.m, k=self.k, n=self.n, acc=False)

    def decompose(self, ctx: ExecutionContext) -> Iterable[GemmChunk]:
        lv: GemmLevel = ctx.payload
        # Chunks may spread over every child; tiles must fit the
        # tightest of them.  Plan against free-plus-reclaimable so cache
        # residency never shrinks the tiles (repeat runs pick the same
        # tiles and therefore hit).
        budget = int(min(ctx.system.free_for_planning(c)
                         for c in ctx.node.children) * CAPACITY_SAFETY)
        if self.force_tiles is not None:
            tiles = GemmTiles(tm=min(self.force_tiles.tm, lv.m),
                              tn=min(self.force_tiles.tn, lv.n),
                              tk=min(self.force_tiles.tk, lv.k),
                              reuse=self.force_tiles.reuse)
        else:
            tiles = choose_gemm_tiles(lv.m, lv.k, lv.n, elem_size=self.elem,
                                      budget_bytes=budget,
                                      depth=self.pipeline_depth,
                                      prefer_reuse=self.reuse_row_shard)
        tiles_m = ceil_div(lv.m, tiles.tm)
        tiles_n = ceil_div(lv.n, tiles.tn)
        tiles_k = ceil_div(lv.k, tiles.tk)
        ctx.scratch["plan"] = _LevelPlan(tiles=tiles, elem=self.elem,
                                         tiles_n=tiles_n)
        for i in range(tiles_m):
            row0 = i * tiles.tm
            rows = min(tiles.tm, lv.m - row0)
            for j in range(tiles_n):
                col0 = j * tiles.tn
                cols = min(tiles.tn, lv.n - col0)
                for p in range(tiles_k):
                    k0 = p * tiles.tk
                    kk = min(tiles.tk, lv.k - k0)
                    yield GemmChunk(i=i, j=j, p=p, row0=row0, rows=rows,
                                    col0=col0, cols=cols, k0=k0, kk=kk,
                                    last_p=(p == tiles_k - 1))

    def select_child(self, ctx: ExecutionContext,
                     chunk: GemmChunk) -> TreeNode:
        """Spread output blocks round-robin over sibling subtrees
        (Section III-C's multiple-tree-branch spawning).  All k-steps of
        one (i, j) block stay on one child: its C block accumulates
        there."""
        plan: _LevelPlan = ctx.scratch["plan"]
        children = ctx.node.children
        return children[(chunk.i * plan.tiles_n + chunk.j) % len(children)]

    def setup_buffers(self, ctx: ExecutionContext, child: TreeNode,
                      chunk: GemmChunk) -> dict:
        sys_ = ctx.system
        plan: _LevelPlan = ctx.scratch["plan"]
        state = plan.state(child.node_id)
        payload: dict = {}

        # The A tile arrives in data_down via fetch_down: the child
        # node's buffer cache keeps the current row strip resident
        # across the j loop (Section IV-A's reuse, now runtime-provided).

        # B tile: round-robin pool (pipelining).
        if not state.b_pool:
            size = plan.tiles.tk * plan.tiles.tn * plan.elem
            state.b_pool = [sys_.alloc(size, child, label=f"Bbuf{d}")
                            for d in range(self.pipeline_depth)]
        b = state.b_pool[state.b_next % len(state.b_pool)]
        state.b_next += 1

        # C block: allocated at p == 0, resident across the k loop.
        if chunk.p == 0:
            assert state.c_current is None, "previous C block not retired"
            state.c_current = sys_.alloc(chunk.rows * chunk.cols * plan.elem,
                                         child,
                                         label=f"C[{chunk.i},{chunk.j}]")
            payload["c_fresh"] = True
        c = state.c_current
        payload.update(b=b, c=c)
        return payload

    def data_down(self, ctx: ExecutionContext,
                  child_ctx: ExecutionContext, chunk: GemmChunk) -> None:
        sys_, lv = ctx.system, ctx.payload
        pay = child_ctx.payload
        elem = self.elem
        offset, rows, row_bytes, stride = window2d(
            chunk.row0, chunk.rows, chunk.k0, chunk.kk, lv.k, elem)
        pay["a"] = sys_.fetch_down(
            child_ctx.node, lv.a, rows=rows, row_bytes=row_bytes,
            src_offset=offset, src_stride=stride,
            label=f"A[{chunk.i},{chunk.p}]")
        sys_.move_2d(pay["b"], lv.b, rows=chunk.kk,
                     row_bytes=chunk.cols * elem,
                     src_offset=(chunk.k0 * lv.n + chunk.col0) * elem,
                     src_stride=lv.n * elem,
                     dst_offset=0, dst_stride=chunk.cols * elem,
                     label="B down")
        if pay.get("c_fresh") and lv.acc:
            # The level above accumulates into our C: this block already
            # holds partial sums -- bring them down before adding more.
            sys_.move_2d(pay["c"], lv.c, rows=chunk.rows,
                         row_bytes=chunk.cols * elem,
                         src_offset=(chunk.row0 * lv.n + chunk.col0) * elem,
                         src_stride=lv.n * elem,
                         dst_offset=0, dst_stride=chunk.cols * elem,
                         label="C init down")
        # Rewrap the child payload as the child's level problem.
        child_ctx.payload = GemmLevel(
            a=pay["a"], b=pay["b"], c=pay["c"],
            m=chunk.rows, k=chunk.kk, n=chunk.cols,
            acc=chunk.p > 0 or lv.acc)
        child_ctx.scratch["raw_payload"] = pay

    def compute_task(self, ctx: ExecutionContext) -> None:
        lv: GemmLevel = ctx.payload
        sys_ = ctx.system
        gpu = ctx.get_device(ProcessorKind.GPU)

        # The kernel is a spec over buffer bindings, so either compute
        # backend (inline or threaded) can run it; C is
        # an ``update`` binding because the block accumulates into it.
        label = f"gemm {lv.m}x{lv.k}x{lv.n}"
        sys_.launch(gpu, gemm_cost(lv.m, lv.k, lv.n),
                    reads=(lv.a, lv.b), writes=(lv.c,),
                    kernel=kernel_spec(
                        gemm_block,
                        Binding.read("a", lv.a, np.float32, (lv.m, lv.k)),
                        Binding.read("b", lv.b, np.float32, (lv.k, lv.n)),
                        Binding.update("c", lv.c, np.float32, (lv.m, lv.n)),
                        label=label),
                    label=label)

    def data_up(self, ctx: ExecutionContext, child_ctx: ExecutionContext,
                chunk: GemmChunk) -> None:
        if not chunk.last_p:
            return
        lv: GemmLevel = ctx.payload
        sys_ = ctx.system
        pay = child_ctx.scratch["raw_payload"]
        sys_.move_2d(lv.c, pay["c"], rows=chunk.rows,
                     row_bytes=chunk.cols * self.elem,
                     src_offset=0, src_stride=chunk.cols * self.elem,
                     dst_offset=(chunk.row0 * lv.n + chunk.col0) * self.elem,
                     dst_stride=lv.n * self.elem,
                     label="C up")

    def teardown_buffers(self, ctx: ExecutionContext,
                         child_ctx: ExecutionContext,
                         chunk: GemmChunk) -> None:
        sys_ = ctx.system
        plan: _LevelPlan = ctx.scratch["plan"]
        state = plan.state(child_ctx.node.node_id)
        pay = child_ctx.scratch["raw_payload"]
        sys_.fetch_release(pay["a"])
        if chunk.last_p:
            sys_.release(state.c_current)
            state.c_current = None

    def after_level(self, ctx: ExecutionContext) -> None:
        plan: _LevelPlan | None = ctx.scratch.get("plan")
        if plan is None:
            return
        for state in plan.states.values():
            for h in state.b_pool:
                ctx.system.release(h)
            state.b_pool.clear()

    def pipeline_window(self, ctx: ExecutionContext, chunks: list) -> int:
        """Chunks are *not* independent here: the C block accumulates
        across the k loop (``c_current`` carries from ``p`` to ``p+1``
        and is only retired at ``last_p``), and ``setup_buffers``
        asserts the previous block was retired before allocating the
        next.  The level must stay serial; overlap for GEMM comes from
        the B buffer pool's virtual-time depth instead."""
        return 1

    def prefetch_hints(self, ctx: ExecutionContext, chunks) -> list[tuple]:
        """Each chunk's A and B windows, in loop order (full-mode cache
        only; the Belady oracle and the lookahead fetcher consume it)."""
        lv: GemmLevel = ctx.payload
        plan: _LevelPlan = ctx.scratch["plan"]
        children = ctx.node.children
        hints = []
        for chunk in chunks:
            child = children[(chunk.i * plan.tiles_n + chunk.j)
                             % len(children)]
            a_off, a_rows, a_rb, a_stride = window2d(
                chunk.row0, chunk.rows, chunk.k0, chunk.kk, lv.k, self.elem)
            hints.append((child, FetchSpec.strided(
                lv.a, offset=a_off, rows=a_rows, row_bytes=a_rb,
                stride=a_stride)))
            b_off, b_rows, b_rb, b_stride = window2d(
                chunk.k0, chunk.kk, chunk.col0, chunk.cols, lv.n, self.elem)
            hints.append((child, FetchSpec.strided(
                lv.b, offset=b_off, rows=b_rows, row_bytes=b_rb,
                stride=b_stride)))
        return hints

    # -- results ---------------------------------------------------------

    def result(self) -> np.ndarray:
        """Fetch the product matrix C from the tree root."""
        return self.system.fetch(self.c_root, np.float32,
                                 shape=(self.m, self.n))

    def reference(self) -> np.ndarray:
        """The NumPy/host reference the tests compare against."""
        return self.a_np @ self.b_np

    def release_root_buffers(self) -> None:
        """Free the root-level buffers this app allocated."""
        for h in (self.a_root, self.b_root, self.c_root):
            if not h.released:
                self.system.release(h)
