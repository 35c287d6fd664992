"""Discrete p-median over a fixed candidate set.

Selecting p of m candidate columns to minimize the weighted sum of each
demand row's distance to its closest selected column. Solved exactly by one
best-first branch-and-bound, warm-started by an interchange run, which
queues nodes under an assignment bound and prunes popped ones by a
cardinality gain bound; and heuristically by multistart greedy
construction plus vertex substitution.
`solve` is the stage's entry point: it picks between the two by mode. A
solution is its selected columns, their objective and whether it is proven;
the refine stage reassigns every demand row, so no assignment is kept.
Its `stats` dict says how much work the solve did.

The multistart runs its starts in blocks of 1, 2, 4, ... and stops early
once a Lagrangian lower bound proves the incumbent (Beasley 1993,
"Lagrangean heuristics for location problems", EJOR 65): with the
assignment rows relaxed by multipliers lambda,
L(lambda) = sum_i lambda_i + the sum of the p smallest column reduced costs
rho_j = sum_i min(0, w_i d_ij - lambda_i) (Avella, Sassano & Vasil'ev 2007,
Math. Program. 109). After each block the bound takes subgradient steps
aimed at the incumbent, and the p smallest-rho columns are evaluated as
one more candidate set. A heuristic solution is proven when
UB - LB <= PROOF_TOL * UB. A bound whose first refresh leaves a gap wider
than GIVE_UP_GAP is dropped, and the remaining starts run without it.

Greedy construction keeps one nd x m array of each row's saving per
column, max(cur - d, 0) against its nearest chosen column's distance cur.
After a pick only the rows that the new column serves strictly nearer
change cur, so only those rows are rewritten, by the same float operations
as a full rebuild: the array, and with it every pick, is bit-identical to
rebuilding it at every step.

The substitution search evaluates swaps incrementally after Resende &
Werneck (2007), "A fast swap-based local search procedure for location
problems", Ann. Oper. Res. 150: per-column gain, per-facility loss and a
facility x column extra table are kept across iterations, and after a swap
only the demand rows whose nearest or second-nearest facility can change
are taken out of them and added back. Each row's columns are sorted by
distance once per interchange call; a row's gain and extra terms are 0 at
every column no nearer than its second-nearest open facility, so only the
prefix before it is read.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .instances import Instance

EXACT_LIMIT = 10_000_000  # auto mode solves exactly up to this many p-subsets
NODE_BUDGET = 10_000_000  # branch-and-bound nodes before the incumbent is returned unproven
DEFAULT_STARTS = 100  # interchange runs per discrete solve, at most
# A solution is proven when UB - LB <= PROOF_TOL * UB: far above the ~1e-14
# relative rounding of the bound, far below any objective difference the
# pipeline reports.
PROOF_TOL = 1e-9
GIVE_UP_GAP = 1e-2  # relative gap after the first refresh that drops the bound
FIRST_STEPS, LATER_STEPS, MAX_STEPS = 100, 50, 300  # subgradient steps
ROW_CELLS = 1 << 16  # the bound's work buffer: at most this many matrix cells


class InfeasibleCardinalityError(ValueError):
    """Fewer candidates than facilities requested (m < p)."""


@dataclass
class DiscreteSolution:
    selected: tuple[int, ...]  # p column indices, ascending
    objective: float
    # True when optimality was proven: by branch-and-bound, by a Lagrangian
    # bound within PROOF_TOL relative, or in closed form at p = 1
    proven: bool
    sites: np.ndarray | None = None  # (p, 2) selected coordinates, when known
    # work done: branch-and-bound "nodes"; or interchange "starts" run, "lower_bound"
    # (None when no bound ran, the objective at p = 1), "bound_steps", "bound_gave_up"
    stats: dict = field(default_factory=dict)


def build_matrix(instance: Instance, xy: np.ndarray) -> np.ndarray:
    """Dense (nd, m) Euclidean distance matrix demand x candidate, from an
    (m, 2) array of candidate coordinates."""
    xy = np.asarray(xy, dtype=float)
    if instance.n_demand == 0 or len(xy) == 0:
        raise ValueError("demand and candidate sets must be non-empty")
    diff = instance.demand_xy[:, None, :] - xy[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def evaluate(matrix: np.ndarray, weights: np.ndarray, selected) -> DiscreteSolution:
    """Solution record for a given selected set (not necessarily optimal):
    each demand row is served by its closest selected column."""
    cols = sorted(int(c) for c in selected)
    return DiscreteSolution(
        selected=tuple(cols),
        objective=float(weights @ matrix[:, cols].min(axis=1)),
        proven=False,
    )


def _branch_and_bound(matrix, weights, p, incumbent, incumbent_obj):
    """Best-first search over p-subsets of the columns, taken in `order`
    (lowest mean distance first). A node is a set of chosen columns whose
    completions add columns from position `idx` of `order` on; expanding it
    makes one child per column it may add next.

    A node is queued under its assignment bound: every row served by its
    nearest column among the chosen ones and order[idx:], as if all of them
    could stay. One vectorised pass gives it for all children of a node.
    A popped node with something chosen is first tested against a gain
    bound: with c_i the distance from row i to its nearest chosen column, a
    free column j saves at most g_j = sum_i w_i max(0, c_i - d_ij), and a
    set saves at most the sum of its members' savings, so `need` more
    columns cost at least w.c minus the `need` largest g_j. A popped node
    whose gain bound reaches the incumbent is pruned. A node that needs one
    more column is closed by its cheapest completion.
    """
    nd, m = matrix.shape
    order = np.argsort(matrix.mean(axis=0))  # promising columns first
    cols = np.ascontiguousarray(matrix.T[order])  # cols[k]: column order[k]
    # suffix[k]: each demand row's nearest column among order[k:]
    suffix = np.minimum.accumulate(cols[::-1], axis=0)[::-1]
    heap = [(float(weights @ suffix[0]), 0, (), 0)]
    tick = itertools.count(1)
    nodes = 0
    while heap:
        bound, _, chosen, idx = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-12:
            break  # the heap is bound-ordered: everything left is pruned
        nodes += 1
        if nodes > NODE_BUDGET:
            return incumbent, False, nodes - 1
        need, free = p - len(chosen), m - idx
        c = matrix[:, list(chosen)].min(axis=1) if chosen else np.full(nd, np.inf)
        if need == 1:  # the cheapest free column completes the set
            k = idx + int(np.argmin(np.minimum(c, cols[idx:]) @ weights))
            obj = float(weights @ np.minimum(c, cols[k]))
            if obj < incumbent_obj:
                incumbent, incumbent_obj = tuple(sorted(chosen + (int(order[k]),))), obj
            continue
        if chosen:
            gains = np.maximum(c - cols[idx:], 0.0) @ weights
            top = np.partition(gains, free - need)[free - need:]
            if float(weights @ c - top.sum()) >= incumbent_obj - 1e-12:
                continue
        # child t adds order[idx + t]; it may then add order[idx + t + 1:]
        child = np.minimum(c, suffix[idx:m - need + 1]) @ weights
        for t in np.flatnonzero(child < incumbent_obj - 1e-12).tolist():
            heapq.heappush(heap, (float(child[t]), next(tick),
                                  chosen + (int(order[idx + t]),), idx + t + 1))
    return incumbent, True, nodes


def solve_exact(matrix: np.ndarray, weights, p: int) -> DiscreteSolution:
    """Optimal p-subset of columns by branch-and-bound, or the best
    incumbent flagged non-proven after NODE_BUDGET nodes.

    One interchange run (greedy plus vertex substitution) gives the first
    incumbent, and its argument checks raise for p < 1 and m < p. Ties: of
    several optimal sets the first one found is kept, the warm start before
    any set the search reaches, and the search prunes every node whose bound
    is within 1e-12 of the incumbent, so a set better by no more than that
    may go unfound.
    """
    weights = np.asarray(weights, dtype=float)
    # more interchange runs cost more than the nodes their incumbent saves;
    # a single start builds no Lagrangian bound
    warm = solve_interchange(matrix, weights, p, starts=1, seed=0)
    sel, proven, nodes = _branch_and_bound(matrix, weights, p, warm.selected, warm.objective)
    sol = evaluate(matrix, weights, sel)
    sol.proven = proven
    sol.stats = {"nodes": nodes}
    return sol


def _greedy(d, weights, first: int | None, p: int) -> list[int]:
    """Greedy construction of p >= 2 columns: best single column (or a
    given first column), then repeatedly the column with the largest cost
    reduction weights @ gap (ties: the lowest column), where
    gap[i, j] = max(cur_i - d_ij, 0) and cur_i is row i's distance to its
    nearest chosen column.

    `gap` is built once and kept. After a pick j, only the rows with
    d_ij < cur_i get a new cur_i; every other row's gap entries are
    unchanged, so only those rows are rewritten, with the same subtraction
    and floor as a full rebuild. Every entry is thus bit-identical to
    rebuilding `gap` from scratch, and so are the reductions and the picks.
    """
    m = d.shape[1]
    if first is None:
        first = int(np.argmin(weights @ d))
    chosen = [first]
    in_sel = np.zeros(m, dtype=bool)
    in_sel[first] = True
    cur = d[:, first].copy()
    gap = np.subtract(cur[:, None], d)
    np.maximum(gap, 0.0, out=gap)
    while True:
        reduction = weights @ gap
        reduction[in_sel] = -1.0
        j = int(np.argmax(reduction))
        chosen.append(j)
        if len(chosen) == p:
            return chosen
        in_sel[j] = True
        col = d[:, j]
        rows = np.flatnonzero(col < cur)
        near = col.take(rows)
        cur[rows] = near
        moved = d.take(rows, axis=0)
        np.subtract(near[:, None], moved, out=moved)
        np.maximum(moved, 0.0, out=moved)
        gap[rows] = moved


def _row_order(d) -> tuple[np.ndarray, np.ndarray]:
    """Each row's columns by ascending distance (ties: lower column first)
    and each column's position in its row's order, both int32."""
    near = np.argsort(d, axis=1, kind="stable").astype(np.int32)
    place = np.empty_like(near)
    np.put_along_axis(place, near, np.arange(d.shape[1], dtype=np.int32)[None, :], axis=1)
    return near, place


def _local_search(d, weights, sel: list[int], rng, row_order) -> tuple[list[int], float]:
    """Vertex substitution to a local optimum.

    The delta of swapping open column r out and closed column a in is
    loss[r] - extra[r, a] - gain[a] (Resende & Werneck 2007). The three
    aggregates are sums of per-row terms that depend only on the row's
    nearest and second-nearest open facility, so after a swap only the rows
    whose pair can change are taken out, re-ranked and added back; when
    they are at least half of the rows, the sums are rebuilt from every row
    instead. A row's gain and extra terms vanish at every column no nearer
    than its second-nearest facility, so they are read from the prefix of
    the row's columns sorted by distance (`row_order`, `_row_order(d)`).
    Facilities live in slots: the inserted column takes the removed
    column's slot. The first improving swap in a per-iteration random order
    is applied. Takes p >= 2 facilities.
    """
    nd, m = d.shape
    p = len(sel)
    cols = np.array(sorted(sel), dtype=int)  # slot -> column
    near, place = row_order
    slot_of = np.full(m, -1)  # column -> slot, -1 when closed
    slot_of[cols] = np.arange(p)
    s1 = np.empty(nd, dtype=int)  # slot of the nearest open facility
    s2 = np.empty(nd, dtype=int)  # slot of the second-nearest
    d1 = np.empty(nd)
    d2 = np.empty(nd)
    gain = np.zeros(m)  # saving of opening column a, all slots kept
    loss = np.zeros(p)  # cost of closing slot r, nothing opened
    extra = np.zeros((p, m))  # what opening a gives back of loss[r]

    def rank(rows):
        sub = d.take((rows * m)[:, None] + cols)
        a, b = np.argpartition(sub, 1, axis=1)[:, :2].T
        i = np.arange(len(rows))
        s1[rows], s2[rows] = a, b  # argpartition puts the smaller of the two first
        d1[rows], d2[rows] = sub[i, a], sub[i, b]

    def account(rows, sign):
        ws = sign * weights[rows]
        r1, n1, n2 = s1[rows], d1[rows], d2[rows]
        loss[:] += np.bincount(r1, weights=ws * (n2 - n1), minlength=p)
        # in a row's order, the columns past its nearest (second-nearest)
        # open facility lie no nearer, so its gain (extra) terms there are 0
        w1 = place[rows, cols[r1]].max(initial=0)
        w2 = place[rows, cols[s2[rows]]].max(initial=0)
        at = near[rows, :w2]
        dw = d.take(at + (rows * m)[:, None])
        ws, n1, n2 = ws[:, None], n1[:, None], n2[:, None]
        term = n1 - dw[:, :w1]
        np.maximum(term, 0.0, out=term)
        term *= ws
        gain[:] += np.bincount(at[:, :w1].ravel(), weights=term.ravel(), minlength=m)
        # d2 - max(d, d1), floored at 0: the part of d2 - d1 that a regains
        np.maximum(dw, n1, out=dw)
        np.subtract(n2, dw, out=dw)
        np.maximum(dw, 0.0, out=dw)
        dw *= ws
        at = at + (r1 * m)[:, None]
        extra[:] += np.bincount(at.ravel(), weights=dw.ravel(), minlength=p * m).reshape(p, m)

    every = np.arange(nd)
    rank(every)
    account(every, 1.0)
    while True:
        by_col = np.argsort(cols)  # delta rows follow ascending open columns
        closed = np.flatnonzero(slot_of < 0)
        delta = (loss[by_col, None] - extra.take(by_col, 0).take(closed, 1)) - gain.take(closed)
        improving = delta.ravel() < -1e-9
        if not improving.any():
            return sorted(cols.tolist()), float(weights @ d1)
        # first improving pair in this iteration's random scan order
        order = rng.permutation(p * len(closed))
        r_pos, a_pos = divmod(int(order[np.argmax(improving[order])]), len(closed))
        slot, new = int(by_col[r_pos]), int(closed[a_pos])
        touched = np.flatnonzero((s1 == slot) | (s2 == slot) | (d[:, new] < d2))
        if 2 * len(touched) < nd:
            account(touched, -1.0)
            loss[slot] = 0.0
            extra[slot] = 0.0
        else:  # rebuilding the sums reads fewer rows (every row at p=2)
            touched = every
            gain[:] = loss[:] = extra[:] = 0.0
        slot_of[cols[slot]] = -1
        slot_of[new] = slot
        cols[slot] = new
        rank(touched)
        account(touched, 1.0)


class _LagrangianBound:
    """Lagrangian lower bound on the p-median optimum over `d`'s columns.

    With mu = lambda / w (the weights are > 0), rho_j = c_j - w.mu where
    c_j = sum_i w_i min(d_ij, mu_i), so L = sum of the p smallest c_j minus
    (p - 1) w.mu. The subgradient at the p smallest-c columns S is
    g_i = 1 - #{j in S: d_ij < mu_i}. c is summed a block of rows at a time,
    so the bound keeps no nd x m array. mu starts halfway between each row's
    nearest and second-nearest facility of the incumbent, and is carried
    from one refresh to the next.
    """

    def __init__(self, d, weights, p, selected):
        self.d, self.w, self.p = d, weights, p
        near = np.sort(d[:, list(selected)], axis=1)
        self.mu = 0.5 * (near[:, 0] + near[:, 1])
        self.rows = max(1, ROW_CELLS // d.shape[1])
        self.buf = np.empty((min(self.rows, len(d)), d.shape[1]))
        self.lb, self.steps = -math.inf, 0

    def _column_sums(self) -> np.ndarray:
        c = np.zeros(self.d.shape[1])
        for a in range(0, len(self.d), self.rows):
            d = self.d[a:a + self.rows]
            out = self.buf[:len(d)]
            np.minimum(d, self.mu[a:a + self.rows, None], out=out)
            c += self.w[a:a + self.rows] @ out
        return c

    def refresh(self, ub: float) -> tuple[float, np.ndarray | None]:
        """Polyak subgradient steps aimed at `ub`, until the bound meets it
        or the step allowance is spent; returns the best Lagrangian set seen
        (objective, columns), or (inf, None).

        The first refresh takes FIRST_STEPS and halves its step after 5
        steps without a new best bound, so that the give-up test sees a
        settled bound; later ones take LATER_STEPS, restart the step and
        halve it after 20, to leave a plateau. MAX_STEPS caps the total."""
        first = self.steps == 0
        steps = min(FIRST_STEPS if first else LATER_STEPS, MAX_STEPS - self.steps)
        patience, theta, stall = (5 if first else 20), 2.0, 0
        best_obj, best_cols = math.inf, None
        for _ in range(steps):
            self.steps += 1
            c = self._column_sums()
            cols = np.argpartition(c, self.p - 1)[:self.p]
            value = float(c[cols].sum()) - (self.p - 1) * float(self.w @ self.mu)
            sub = self.d[:, cols]
            if value > self.lb:
                self.lb, stall = value, 0
                obj = float(self.w @ sub.min(axis=1))  # as evaluate() sums it
                if obj < best_obj:
                    best_obj, best_cols = obj, cols
            else:
                stall += 1
                if stall == patience:
                    theta, stall = theta / 2, 0
            target = min(ub, best_obj)
            if target - self.lb <= PROOF_TOL * target:
                break
            g = 1.0 - (sub < self.mu[:, None]).sum(axis=1)
            norm = float(g @ g)
            if norm == 0:  # S serves every row once: L is its cost
                break
            self.mu = np.maximum(self.mu + (theta * (ub - value) / norm) * g / self.w, 0.0)
        return best_obj, best_cols


def _better(obj, sel, best_obj, best_sel) -> bool:
    """Lower objective wins; within 1e-12, the lexicographically smaller set."""
    return obj < best_obj - 1e-12 or (
        abs(obj - best_obj) <= 1e-12 and (best_sel is None or sel < best_sel)
    )


def solve_interchange(
    matrix: np.ndarray,
    weights,
    p: int,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> DiscreteSolution:
    """Best of at most `starts` greedy + vertex-substitution runs; stops
    once a Lagrangian bound proves the incumbent.

    The first run grows greedily from the best single column; later runs
    greedily complete a random first column. Scan order of the substitution
    neighborhood is re-randomized per iteration from the run's stream, and
    each run draws its stream from the seed in run order, so every run made
    is the same as in a full `starts` multistart.

    Runs go in blocks of 1, 2, 4, ... After each block, while starts remain,
    the bound is refreshed and its best Lagrangian set competes with the
    runs. When UB - LB <= PROOF_TOL * UB, the incumbent is returned with
    `proven` True. A bound still GIVE_UP_GAP off after its first refresh is
    dropped. One start, or a weight <= 0, builds no bound. One facility
    needs no run: the cheapest column is the proven optimum.
    """
    weights = np.asarray(weights, dtype=float)
    nd, m = matrix.shape
    if p < 1 or starts < 1:
        raise ValueError("p and starts must be >= 1")
    if m < p:
        raise InfeasibleCardinalityError(f"{m} candidates < p={p}")
    if p == 1:
        sol = evaluate(matrix, weights, [np.argmin(weights @ matrix)])
        sol.proven = True
        sol.stats = {"starts": 0, "lower_bound": sol.objective, "bound_steps": 0,
                     "bound_gave_up": False}
        return sol

    row_order = _row_order(matrix)  # the starts share one row order
    best_obj = math.inf
    best_sel = None
    master = np.random.default_rng(seed)
    bound, proven, gave_up = None, False, False
    lower_bound, steps = None, 0
    bounded = bool((weights > 0).all())
    done, block = 0, 1
    while done < starts:
        for run in range(done, min(done + block, starts)):
            rng = np.random.default_rng(master.integers(2**63))
            first = None if run == 0 else int(rng.integers(m))
            chosen = _greedy(matrix, weights, first, p)
            sel, obj = _local_search(matrix, weights, chosen, rng, row_order)
            if _better(obj, sel, best_obj, best_sel):
                best_obj, best_sel = obj, sel
        done, block = run + 1, 2 * block
        if not bounded or done == starts:
            continue
        first_refresh = bound is None
        if first_refresh:
            bound = _LagrangianBound(matrix, weights, p, best_sel)
        obj, cols = bound.refresh(best_obj)
        if cols is not None:
            sel = sorted(cols.tolist())
            if _better(obj, sel, best_obj, best_sel):
                best_obj, best_sel = obj, sel
        lower_bound, steps = bound.lb, bound.steps
        if best_obj - lower_bound <= PROOF_TOL * best_obj:
            proven = True
            break
        if first_refresh and best_obj - lower_bound > GIVE_UP_GAP * best_obj:
            bound, bounded, gave_up = None, False, True  # frees the bound's arrays
    sol = evaluate(matrix, weights, best_sel)
    sol.proven = proven
    sol.stats = {"starts": done, "lower_bound": lower_bound, "bound_steps": steps,
                 "bound_gave_up": gave_up}
    return sol


def solve(
    matrix: np.ndarray,
    weights,
    p: int,
    mode: str = "auto",
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> DiscreteSolution:
    """The discrete stage by mode: "exact", "heuristic" (best of at most
    `starts` interchange runs; stops once proven within PROOF_TOL relative)
    or "auto", exact when there are at most EXACT_LIMIT p-subsets and
    heuristic otherwise."""
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" or (mode == "auto" and math.comb(matrix.shape[1], p) <= EXACT_LIMIT):
        return solve_exact(matrix, weights, p)
    return solve_interchange(matrix, weights, p, starts=starts, seed=seed)
