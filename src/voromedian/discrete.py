"""Discrete p-median over a fixed candidate set.

Selecting p of m candidate columns to minimize the weighted sum of each
demand row's distance to its closest selected column. Solved exactly by
chunked enumeration of p-subsets when C(m, p) is small, by best-first
branch-and-bound with an assignment-relaxation bound otherwise, and
heuristically by multistart greedy construction plus vertex substitution.
`solve` is the stage's entry point: it picks between the two by mode.

The substitution search evaluates swaps incrementally after Resende &
Werneck (2007), "A fast swap-based local search procedure for location
problems", Ann. Oper. Res. 150: per-column gain, per-facility loss and a
facility x column extra table are kept across iterations, and after a swap
only the demand rows whose nearest or second-nearest facility can change
are taken out of them and added back.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance

ENUM_LIMIT = 10_000_000  # max p-subsets enumerated before switching to B&B
DEFAULT_NODE_BUDGET = 10_000_000


class InfeasibleCardinalityError(ValueError):
    """Fewer candidates than facilities requested (m < p)."""


@dataclass
class DiscreteSolution:
    selected: tuple[int, ...]  # p column indices, ascending
    assignment: np.ndarray  # (nd,) column index of the serving facility
    objective: float
    proven: bool  # True when optimality was proven
    sites: np.ndarray | None = None  # (p, 2) selected coordinates, when known


def build_matrix(instance: Instance, xy: np.ndarray) -> np.ndarray:
    """Dense (nd, m) Euclidean distance matrix demand x candidate, from an
    (m, 2) array of candidate coordinates."""
    xy = np.asarray(xy, dtype=float)
    if instance.n_demand == 0 or len(xy) == 0:
        raise ValueError("demand and candidate sets must be non-empty")
    diff = instance.demand_xy[:, None, :] - xy[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _assignment(matrix: np.ndarray, selected) -> tuple[np.ndarray, np.ndarray]:
    """Closest selected column per demand row (ties: lowest column index)."""
    cols = np.asarray(sorted(selected), dtype=int)
    sub = matrix[:, cols]
    pos = np.argmin(sub, axis=1)  # argmin takes the first minimum
    return cols[pos], sub[np.arange(len(sub)), pos]


def evaluate(matrix: np.ndarray, weights: np.ndarray, selected) -> DiscreteSolution:
    """Solution record for a given selected set (not necessarily optimal)."""
    assignment, dist = _assignment(matrix, selected)
    return DiscreteSolution(
        selected=tuple(sorted(int(c) for c in selected)),
        assignment=assignment,
        objective=float(weights @ dist),
        proven=False,
    )


def _enumerate_exact(matrix, weights, p) -> tuple[tuple[int, ...], float]:
    nd, m = matrix.shape
    block = max(128, 4_000_000 // (nd * p))
    best_obj = math.inf
    best = None
    combos = itertools.combinations(range(m), p)
    while True:
        chunk = np.array(list(itertools.islice(combos, block)), dtype=int)
        if len(chunk) == 0:
            break
        # running minimum over the p columns of each subset -> weighted sum
        cur = matrix[:, chunk[:, 0]]
        for j in range(1, p):
            np.minimum(cur, matrix[:, chunk[:, j]], out=cur)
        objs = weights @ cur
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj = float(objs[k])
            best = tuple(int(c) for c in chunk[k])
    return best, best_obj


def _branch_and_bound(matrix, weights, p, node_budget, incumbent, incumbent_obj):
    """Best-first search over include/exclude decisions on candidate columns.

    Lower bound of a node: every demand row served by its cheapest column
    among those not yet excluded (valid since at most p of them stay).
    """
    nd, m = matrix.shape
    order = np.argsort(matrix.mean(axis=0))  # promising columns first
    d = matrix[:, order]

    def lb(excluded_mask) -> float:
        return float(weights @ d[:, ~excluded_mask].min(axis=1))

    root_excl = np.zeros(m, dtype=bool)
    heap = [(lb(root_excl), 0, (), 0, root_excl)]
    tick = itertools.count(1)
    nodes = 0
    proven = True
    while heap:
        bound, _, chosen, idx, excl = heapq.heappop(heap)
        nodes += 1
        if nodes > node_budget:
            proven = False
            break
        if bound >= incumbent_obj - 1e-12:
            continue  # heap is bound-ordered; everything left is pruned
        remaining = m - idx
        need = p - len(chosen)
        if need == 0 or remaining == need:
            sel = list(chosen) + list(range(idx, idx + need))
            obj = float(weights @ d[:, sel].min(axis=1))
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent = tuple(sel)
            continue
        # include idx: bound unchanged (idx was already allowed)
        heapq.heappush(heap, (bound, next(tick), chosen + (idx,), idx + 1, excl))
        # exclude idx: bound must be recomputed
        excl2 = excl.copy()
        excl2[idx] = True
        if m - (idx + 1) >= need:
            b2 = lb(excl2)
            if b2 < incumbent_obj - 1e-12:
                heapq.heappush(heap, (b2, next(tick), chosen, idx + 1, excl2))
    selected = tuple(sorted(int(order[j]) for j in incumbent))
    return selected, incumbent_obj, proven


def solve_exact(
    matrix: np.ndarray,
    weights,
    p: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DiscreteSolution:
    """Optimal p-subset of columns, or the best incumbent flagged non-proven
    when the branch-and-bound node budget runs out.
    """
    weights = np.asarray(weights, dtype=float)
    nd, m = matrix.shape
    if p < 1:
        raise ValueError("p must be >= 1")
    if m < p:
        raise InfeasibleCardinalityError(f"{m} candidates < p={p}")

    if math.comb(m, p) <= ENUM_LIMIT:
        selected, _ = _enumerate_exact(matrix, weights, p)
        proven = True
    else:
        # warm-start the search with a quick heuristic incumbent, mapped
        # into the branch-and-bound column order
        warm = solve_interchange(matrix, weights, p, starts=20, seed=0)
        order = np.argsort(matrix.mean(axis=0))
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        warm_local = tuple(sorted(int(inv[c]) for c in warm.selected))
        selected, _, proven = _branch_and_bound(
            matrix, weights, p, node_budget, warm_local, warm.objective
        )
    sol = evaluate(matrix, weights, selected)
    sol.proven = proven
    return sol


def _greedy(d, weights, first: int | None, p: int) -> list[int]:
    """Greedy construction: best single column (or a given first column),
    then repeatedly the column with the largest cost reduction."""
    m = d.shape[1]
    if first is None:
        first = int(np.argmin(weights @ d))
    chosen = [first]
    in_sel = np.zeros(m, dtype=bool)
    in_sel[first] = True
    cur = d[:, first].copy()
    while len(chosen) < p:
        reduction = weights @ np.maximum(cur[:, None] - d, 0.0)
        reduction[in_sel] = -1.0
        j = int(np.argmax(reduction))
        chosen.append(j)
        in_sel[j] = True
        cur = np.minimum(cur, d[:, j])
    return chosen


def _local_search(d, weights, sel: list[int], rng) -> tuple[list[int], float]:
    """Vertex substitution to a local optimum.

    The delta of swapping open column r out and closed column a in is
    loss[r] - extra[r, a] - gain[a] (Resende & Werneck 2007). The three
    aggregates are sums of per-row terms that depend only on the row's
    nearest and second-nearest open facility, so after a swap only the rows
    whose pair can change are taken out, re-ranked and added back. Facilities
    live in slots: the inserted column takes the removed column's slot. The
    first improving swap in a per-iteration random order is applied.
    """
    nd, m = d.shape
    p = len(sel)
    cols = np.array(sorted(sel), dtype=int)  # slot -> column
    if p == m:
        return cols.tolist(), float(weights @ d.min(axis=1))
    if p == 1:
        # no second-nearest facility: the swap delta is a column-cost difference
        cost = weights @ d
        col = int(cols[0])
        while True:
            closed = np.delete(np.arange(m), col)
            improving = cost[closed] - cost[col] < -1e-9
            if not improving.any():
                # summed from a contiguous copy, as evaluate() sums it: a
                # strided dot product may round differently
                return [col], float(weights @ np.ascontiguousarray(d[:, col]))
            order = rng.permutation(m - 1)
            col = int(closed[order[np.nonzero(improving[order])[0][0]]])

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
        sub = d[rows[:, None], cols]
        part = np.argpartition(sub, 1, axis=1)[:, :2]
        pair = sub[np.arange(len(rows))[:, None], part]
        flip = pair[:, 0] > pair[:, 1]
        part[flip] = part[flip, ::-1]
        pair[flip] = pair[flip, ::-1]
        s1[rows], s2[rows] = part[:, 0], part[:, 1]
        d1[rows], d2[rows] = pair[:, 0], pair[:, 1]

    def account(rows, sign):
        ws = sign * weights[rows]
        n1, n2 = d1[rows, None], d2[rows, None]
        dr = d[rows]
        below = n1 - dr
        gain[:] += ws @ np.maximum(below, 0.0, out=below)
        loss[:] += np.bincount(s1[rows], weights=ws * (n2 - n1)[:, 0], minlength=p)
        # dr becomes max(d2 - max(d, d1), 0): the part of d2 - d1 that a regains
        np.maximum(dr, n1, out=dr)
        np.subtract(n2, dr, out=dr)
        np.maximum(dr, 0.0, out=dr)
        onehot = s1[rows, None] == np.arange(p)[None, :]
        # a C-ordered left operand: threaded OpenBLAS took up to 50x longer
        # on the transposed view at nd=1000
        extra[:] += np.ascontiguousarray((onehot * ws[:, None]).T) @ dr

    every = np.arange(nd)
    rank(every)
    account(every, 1.0)
    while True:
        by_col = np.argsort(cols)  # delta rows follow ascending open columns
        closed = np.flatnonzero(slot_of < 0)
        delta = (loss[by_col, None] - extra[by_col[:, None], closed]) - gain[None, closed]
        improving = delta.ravel() < -1e-9
        if not improving.any():
            return sorted(cols.tolist()), float(weights @ d1)
        # first improving pair in this iteration's random scan order
        order = rng.permutation(p * len(closed))
        r_pos, a_pos = divmod(int(order[np.nonzero(improving[order])[0][0]]), len(closed))
        slot, new = int(by_col[r_pos]), int(closed[a_pos])
        touched = np.flatnonzero((s1 == slot) | (s2 == slot) | (d[:, new] < d2))
        account(touched, -1.0)
        loss[slot] = 0.0
        extra[slot] = 0.0
        slot_of[cols[slot]] = -1
        slot_of[new] = slot
        cols[slot] = new
        rank(touched)
        account(touched, 1.0)


def solve_interchange(
    matrix: np.ndarray,
    weights,
    p: int,
    starts: int = 100,
    seed: int = 0,
) -> DiscreteSolution:
    """Best of `starts` greedy + vertex-substitution runs.

    The first run grows greedily from the best single column; later runs
    greedily complete a random first column. Scan order of the substitution
    neighborhood is re-randomized per iteration from the run's stream.
    """
    weights = np.asarray(weights, dtype=float)
    nd, m = matrix.shape
    if p < 1 or starts < 1:
        raise ValueError("p and starts must be >= 1")
    if m < p:
        raise InfeasibleCardinalityError(f"{m} candidates < p={p}")

    best_obj = math.inf
    best_sel = None
    master = np.random.default_rng(seed)
    for run in range(starts):
        rng = np.random.default_rng(master.integers(2**63))
        first = None if run == 0 else int(rng.integers(m))
        chosen = _greedy(matrix, weights, first, p)
        sel, obj = _local_search(matrix, weights, chosen, rng)
        if obj < best_obj - 1e-12 or (
            abs(obj - best_obj) <= 1e-12 and (best_sel is None or sel < best_sel)
        ):
            best_obj, best_sel = obj, sel
    return evaluate(matrix, weights, best_sel)


def solve(
    matrix: np.ndarray,
    weights,
    p: int,
    mode: str = "auto",
    starts: int = 100,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DiscreteSolution:
    """The discrete stage by mode: "exact", "heuristic" (best of `starts`
    interchange runs) or "auto", exact when the C(m, p) subsets can be
    enumerated and heuristic otherwise."""
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" or (mode == "auto" and math.comb(matrix.shape[1], p) <= ENUM_LIMIT):
        return solve_exact(matrix, weights, p, node_budget=node_budget)
    return solve_interchange(matrix, weights, p, starts=starts, seed=seed)
