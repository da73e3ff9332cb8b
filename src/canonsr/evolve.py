"""NSGA-II engine and the variation operators over sets of basis trees.

Individuals are Models: a set of grammar-derived basis trees whose linear
coefficients are always refit by least squares, never evolved.  Selection
minimizes (training error, complexity); a run-wide archive keeps every
nondominated valid individual seen so far.

Trees are immutable.  An operator rebuilds only the path from a basis root
to the node it changes and shares everything else with the parents, so an
offspring reuses the stored columns and complexities of unchanged bases.
Fits are batched: fit_models fits a population, or a generation's new
offspring, with one least-squares call per basis count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .config import OPERATOR_NAMES, RunConfig
from .draws import floyd_sample
from .expr import (INF, BasisTree, Model, NTNode, Path, VCLeaf, WeightLeaf,
                   complexity_of_bases, leaf_count, repair_all_zero_vc, replace_at,
                   stored_column, tree_depth, walk)
from .fit import _error, fit_weights
from .grammar import Grammar, crossover_sites, random_tree

Objectives = Tuple[float, float]   # (train error %, complexity), both minimized
Parents = Sequence[Model]          # an operator's parents, one per requirement


# ---------------------------------------------------------------------------
# dominance machinery
# ---------------------------------------------------------------------------

# the dominance _fronts decides, kept as the tests' reference for it
def dominates(a: Objectives, b: Objectives) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def _fronts(points: Sequence[Objectives]) -> Iterator[List[int]]:
    """nondominated_sort's fronts in order, each peeled only when asked for."""
    n = len(points)
    if n == 0:
        return
    pts = np.asarray(points, dtype=float).reshape(n, 2)
    # dense ranks order as the floats do for any non-NaN point, and compare
    # fastest in the narrowest integer type that holds them
    e, c = (np.unique(col, return_inverse=True)[1].astype(np.min_scalar_type(n))
            for col in pts.T)
    # dom[p, q]: p dominates q (copies of one point never dominate each other)
    dom = ((e[:, None] <= e) & (c[:, None] <= c)
           & ((e[:, None] < e) | (c[:, None] < c)))
    count = dom.sum(axis=0)
    front = np.flatnonzero(count == 0)
    while front.size:
        yield front.tolist()
        rows = dom[front]
        count -= rows.sum(axis=0)
        nxt = np.flatnonzero((count == 0) & rows.any(axis=0))
        last = len(front) - 1 - np.argmax(rows[::-1, nxt], axis=0)
        front = nxt[np.lexsort((nxt, last))]


def nondominated_sort(points: Sequence[Objectives]) -> List[List[int]]:
    """Fast nondominated sort; front k is dominated only by fronts < k.

    Front 0 lists its members in ascending index order.  A later front lists
    its members in the order the classic peeling loop appends them: by the
    position of their last dominator in the previous front, then by index.
    That order feeds the stable crowding-distance tie-breaks.  No objective
    may be NaN; fit_models marks an invalid model with +inf error.
    """
    return list(_fronts(points))


def crowding_distance(front: Sequence[Objectives]) -> List[float]:
    """Per-member crowding distance; boundary members get +inf per objective."""
    n = len(front)
    if n == 0:
        raise ValueError("front must be nonempty")
    dist = [0.0] * n
    for m in range(2):
        order = sorted(range(n), key=lambda i: front[i][m])
        dist[order[0]] = INF
        dist[order[-1]] = INF
        lo, hi = front[order[0]][m], front[order[-1]][m]
        span = hi - lo
        if span <= 0 or not np.isfinite(span):
            continue
        for k in range(1, n - 1):
            gap = front[order[k + 1]][m] - front[order[k - 1]][m]
            dist[order[k]] += gap / span
    return dist


def train_objective(m: Model) -> Objectives:
    """A model's objective pair, as selection, the archive and SAG read it."""
    return (m.train_error, m.complexity)


def pareto_front(models: Sequence[Model],
                 objective: Callable[[Model], Objectives] = train_objective) -> List[Model]:
    """The models on the first front of _fronts, one per objective pair (the
    first in `models`), in ascending complexity.

    These are the models that inserting `models` one by one into a mutually
    nondominated list keeps, a model being refused when a kept one has its
    objective pair or dominates it.
    """
    objs = [objective(m) for m in models]
    first = {}
    for i in next(_fronts(objs), ()):
        first.setdefault(objs[i], i)
    return [models[i] for i in sorted(first.values(), key=lambda i: objs[i][1])]


class ParetoArchive:
    """Run-wide nondominated set over (train error, complexity).

    `models` is pareto_front of every valid model merged so far: one model
    per objective pair (the first merged), so the archive maps to a strictly
    monotone tradeoff curve.
    """

    def __init__(self):
        self.models: List[Model] = []

    def __len__(self) -> int:
        return len(self.models)

    def merge(self, candidates: Sequence[Model]) -> None:
        """Add a batch; invalid models and non-finite train errors are dropped."""
        kept = [m for m in candidates if m.valid and math.isfinite(m.train_error)]
        self.models = pareto_front(self.models + kept)


# ---------------------------------------------------------------------------
# fitness evaluation
# ---------------------------------------------------------------------------

def fit_models(bases_list: Sequence[Sequence[BasisTree]], X: np.ndarray, y: np.ndarray,
               reference: float, cfg: RunConfig) -> List[Model]:
    """Least-squares fits of the linear weights of each model in `bases_list`;
    a model with a non-finite basis column is invalid.

    Columns are read from the trees (see stored_column).  The models with
    one basis count are fitted in one fit_weights call, and each gets the
    coefficients and error a fit of its own gives, byte for byte.  The
    coefficients are read-only, so models with the same bases may share them."""
    models: List[Model] = [None] * len(bases_list)
    groups = {}     # basis count -> [(index, complexity, columns)]
    for i, bases in enumerate(bases_list):
        cpx = complexity_of_bases(bases, cfg.wb, cfg.wvc)
        columns = []
        for tree in bases:
            col, finite = stored_column(tree, X, cfg.B)
            if not finite:
                models[i] = Model(bases=list(bases), coeffs=None, train_error=INF,
                                  complexity=cpx, valid=False)
                break
            columns.append(col)
        else:
            groups.setdefault(len(bases), []).append((i, cpx, columns))
    for k, group in groups.items():
        Phi = np.ones((len(group), X.shape[0], k + 1))    # offset column first
        if k:
            Phi.transpose(0, 2, 1)[:, 1:] = [columns for _, _, columns in group]
        for P, coeffs, (i, cpx, _) in zip(Phi, fit_weights(Phi, y), group):
            coeffs.flags.writeable = False
            error = _error(P @ coeffs, y, reference)
            valid = math.isfinite(error)
            models[i] = Model(bases=list(bases_list[i]), coeffs=coeffs,
                              train_error=error if valid else INF,
                              complexity=cpx, valid=valid)
    return models


def fit_model(bases: Sequence[BasisTree], X: np.ndarray, y: np.ndarray,
              reference: float, cfg: RunConfig) -> Model:
    """fit_models for one model."""
    return fit_models([bases], X, y, reference, cfg)[0]


# ---------------------------------------------------------------------------
# leaf-level operators
# ---------------------------------------------------------------------------

def weight_cauchy_mutate(w: WeightLeaf, B: float, rng) -> WeightLeaf:
    """Add a standard Cauchy step to the stored value, clamped to [-2B, 2B]."""
    step = rng.standard_cauchy()
    return WeightLeaf(float(np.clip(w.stored + step, -2.0 * B, 2.0 * B)))


def vc_onepoint_crossover(a: VCLeaf, b: VCLeaf, rng) -> Tuple[VCLeaf, VCLeaf]:
    """Swap exponent suffixes at a uniform cut point; repairs all-zero children."""
    if len(a.exponents) != len(b.exponents):
        raise ValueError("variable combos have different lengths")
    d = len(a.exponents)
    if d == 1:
        return a, b
    k = 1 + rng.below(d - 1)
    ea = a.exponents[:k] + b.exponents[k:]
    eb = b.exponents[:k] + a.exponents[k:]
    return (VCLeaf(repair_all_zero_vc(ea, rng)),
            VCLeaf(repair_all_zero_vc(eb, rng)))


def vc_exponent_mutate(vc: VCLeaf, rng, exp_cap: int = RunConfig.exp_cap) -> VCLeaf:
    """Step one exponent by +/-1, clamped to the cap; repairs all-zero results."""
    exps = list(vc.exponents)
    dim = rng.below(len(exps))
    step = 1 if rng.below(2) == 0 else -1
    exps[dim] = int(np.clip(exps[dim] + step, -exp_cap, exp_cap))
    return VCLeaf(repair_all_zero_vc(exps, rng))


# ---------------------------------------------------------------------------
# model-level operators.  Each takes (parents, grammar, n_vars, cfg, rng),
# with rng the run's Draws, and returns a list of offspring bases;
# apply_operator first checks every parent against its requirement in
# OPERATORS.  Site lists are in preorder, basis by basis, and every random
# draw happens in a fixed order, so a seed always gives the same offspring.
# ---------------------------------------------------------------------------

def _nonempty_subset(items: Sequence, rng) -> List:
    # uniform over nonempty subsets, by rejection
    while True:
        mask = [rng.below(2) for _ in items]
        if any(mask):
            return [item for item, keep in zip(items, mask) if keep]


def op_basis_set_crossover(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    if not (parents[0].bases and parents[1].bases):   # a parent has no bases: grow the first
        return apply_operator("basis_add", parents[:1], g, n_vars, cfg, rng)
    chosen = [tree for p in parents for tree in _nonempty_subset(p.bases, rng)]
    if len(chosen) > cfg.max_bases:
        keep = sorted(floyd_sample(rng.below, len(chosen), cfg.max_bases))
        chosen = [chosen[i] for i in keep]
    return [chosen]


def op_basis_delete(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    bases = list(parents[0].bases)
    bases.pop(rng.below(len(bases)))
    return [bases]


def op_basis_add(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    return [list(parents[0].bases) + [random_tree(g, cfg.max_depth, rng, n_vars, B=cfg.B)]]


def op_basis_copy_in(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    p, donor = parents
    sites = [site for tree in donor.bases for site in crossover_sites(tree, "REPVC")]
    return [list(p.bases) + [sites[rng.below(len(sites))]]]


def _nt_sites(tree: BasisTree) -> List[Tuple[NTNode, Path]]:
    return [(node, path) for node, path in walk(tree) if type(node) is NTNode]


Site = Tuple[int, Path, object]   # (basis index, path in that basis, node there)


def _with_node(bases: Sequence[BasisTree], site: Site, node) -> List[BasisTree]:
    """`bases` with the node at `site` replaced by `node`."""
    i, path, _ = site
    out = list(bases)
    out[i] = replace_at(out[i], path, node)
    return out


def op_subtree_crossover(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    """Swap same-symbol subtrees; retries on depth violations, then gives up."""
    p1, p2 = parents
    i1 = rng.below(len(p1.bases))
    i2 = rng.below(len(p2.bases))
    t1, t2 = p1.bases[i1], p2.bases[i2]
    sites1, sites2 = _nt_sites(t1), _nt_sites(t2)
    shared = sorted({n.symbol for n, _ in sites1} & {n.symbol for n, _ in sites2})
    b1, b2 = list(p1.bases), list(p2.bases)
    if not shared:
        return [b1, b2]

    symbol = shared[rng.below(len(shared))]
    s1 = [s for s in sites1 if s[0].symbol == symbol]
    s2 = [s for s in sites2 if s[0].symbol == symbol]
    for _ in range(10):
        n1, path1 = s1[rng.below(len(s1))]
        n2, path2 = s2[rng.below(len(s2))]
        if (len(path1) + tree_depth(n2) > cfg.max_depth
                or len(path2) + tree_depth(n1) > cfg.max_depth):
            continue
        b1[i1] = replace_at(t1, path1, n2)
        b2[i2] = replace_at(t2, path2, n1)
        return [b1, b2]
    return [b1, b2]   # abandoned: parents returned unchanged


def op_subtree_mutate(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    """Regrow a uniformly chosen subtree within the remaining depth budget."""
    p = parents[0]
    i = rng.below(len(p.bases))
    sites = _nt_sites(p.bases[i])
    node, path = sites[rng.below(len(sites))]
    budget = cfg.max_depth - len(path)
    fresh = random_tree(g, budget, rng, n_vars, B=cfg.B, start=node.symbol)
    return [_with_node(p.bases, (i, path, node), fresh)]


def _pick_leaf(bases: Sequence[BasisTree], counts: List[int], leaf_type, rng) -> Site:
    """One uniform draw over the `leaf_type` leaves of `bases`, numbered basis
    by basis in preorder; only the basis holding the drawn leaf is walked."""
    k = rng.below(sum(counts))
    i = 0
    while k >= counts[i]:
        k -= counts[i]
        i += 1
    stack = [(bases[i], ())]
    while True:
        node, path = stack.pop()
        kind = type(node)
        if kind is NTNode:
            ch = node.children
            for j in range(len(ch) - 1, -1, -1):
                stack.append((ch[j], path + (j,)))
        elif kind is leaf_type:
            if not k:
                return i, path, node
            k -= 1


def _leaf_site(p: Model, leaf_type, rng) -> Site:
    return _pick_leaf(p.bases, [leaf_count(t, leaf_type) for t in p.bases], leaf_type, rng)


def op_weight_cauchy_mutate(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    site = _leaf_site(parents[0], WeightLeaf, rng)
    return [_with_node(parents[0].bases, site, weight_cauchy_mutate(site[2], cfg.B, rng))]


def op_vc_exponent_mutate(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    site = _leaf_site(parents[0], VCLeaf, rng)
    return [_with_node(parents[0].bases, site, vc_exponent_mutate(site[2], rng, cfg.exp_cap))]


def op_vc_onepoint_crossover(parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    sites = [_leaf_site(p, VCLeaf, rng) for p in parents]
    children = vc_onepoint_crossover(sites[0][2], sites[1][2], rng)
    # an unchanged combo keeps the parent's own basis, and with it the
    # basis's stored column
    return [list(p.bases) if c.exponents == site[2].exponents
            else _with_node(p.bases, site, c)
            for p, site, c in zip(parents, sites, children)]


# parent requirements: predicates on (model, cfg)
def _bases(m: Model, cfg: RunConfig) -> bool:
    return bool(m.bases)


def _room(m: Model, cfg: RunConfig) -> bool:
    return len(m.bases) < cfg.max_bases


def _leaves(leaf_type) -> Callable[[Model, RunConfig], bool]:
    # a list, not a generator: any() over a few counts runs faster on one
    return lambda m, cfg: any([leaf_count(tree, leaf_type) for tree in m.bases])


# operator name -> (function, one requirement per parent: a predicate on
# (model, cfg), or None when any parent will do)
OPERATORS = {
    "basis_set_crossover": (op_basis_set_crossover, (None, None)),
    "basis_delete": (op_basis_delete, (_bases,)),
    "basis_add": (op_basis_add, (_room,)),
    "basis_copy_in": (op_basis_copy_in, (_room, _bases)),
    "subtree_crossover": (op_subtree_crossover, (_bases, _bases)),
    "subtree_mutate": (op_subtree_mutate, (_bases,)),
    "weight_cauchy_mutate": (op_weight_cauchy_mutate, (_leaves(WeightLeaf),)),
    "vc_onepoint_crossover": (op_vc_onepoint_crossover, (_leaves(VCLeaf), _leaves(VCLeaf))),
    "vc_exponent_mutate": (op_vc_exponent_mutate, (_leaves(VCLeaf),)),
}


def apply_operator(name: str, parents: Parents, g: Grammar, n_vars: int, cfg: RunConfig, rng):
    """Offspring bases, or None, before any draw, when a parent fails its requirement."""
    fn, requirements = OPERATORS[name]
    for requirement, p in zip(requirements, parents):
        if requirement is not None and not requirement(p, cfg):
            return None
    return fn(parents, g, n_vars, cfg, rng)


# ---------------------------------------------------------------------------
# NSGA-II generation loop
# ---------------------------------------------------------------------------

def init_population(g: Grammar, n_vars: int, X: np.ndarray, y: np.ndarray,
                    reference: float, cfg: RunConfig, rng) -> List[Model]:
    """Random individuals with basis counts uniform in [1, max_bases]."""
    all_bases = []
    for _ in range(cfg.population):
        nb = 1 + rng.below(cfg.max_bases)
        all_bases.append([random_tree(g, cfg.max_depth, rng, n_vars, B=cfg.B)
                          for _ in range(nb)])
    return fit_models(all_bases, X, y, reference, cfg)


def _rank_and_crowding(objs: Sequence[Objectives]) -> Tuple[List[int], List[float]]:
    fronts = nondominated_sort(objs)
    rank = [0] * len(objs)
    crowd = [0.0] * len(objs)
    for r, front in enumerate(fronts):
        dists = crowding_distance([objs[i] for i in front])
        for i, d in zip(front, dists):
            rank[i] = r
            crowd[i] = d
    return rank, crowd


def _tournament(rank: List[int], crowd: List[float], below) -> int:
    i = below(len(rank))
    j = below(len(rank))
    if rank[j] < rank[i] or (rank[j] == rank[i] and crowd[j] > crowd[i]):
        return j
    return i


def _environmental_selection(combined: List[Model], objs: List[Objectives],
                             mu: int) -> List[Model]:
    """The mu best of `combined` by front, then by crowding in the front that
    does not fit whole; fronts past that one are never peeled."""
    chosen: List[int] = []
    for front in _fronts(objs):
        room = mu - len(chosen)
        if len(front) > room:
            dists = crowding_distance([objs[i] for i in front])
            order = sorted(range(len(front)), key=lambda k: -dists[k])
            front = [front[k] for k in order[:room]]
        chosen.extend(front)
        if len(chosen) == mu:
            break
    return [combined[i] for i in chosen]


def nsga2_generation(pop: List[Model], X: np.ndarray, y: np.ndarray,
                     reference: float, g: Grammar, cfg: RunConfig, rng,
                     archive: ParetoArchive) -> List[Model]:
    """One mu+lambda NSGA-II step (lambda = mu) with archive maintenance."""
    if len(pop) != cfg.population:
        raise ValueError(f"population size {len(pop)} != configured {cfg.population}")
    n_vars = X.shape[1]
    objs = [train_objective(m) for m in pop]
    rank, crowd = _rank_and_crowding(objs)
    # the cumulative distribution Generator.choice(p=...) builds from the
    # normalised operator weights; bisect_right on it picks the index that
    # choice's searchsorted(side="right") picks from the same one draw
    w = np.array([cfg.operator_weights[n] for n in OPERATOR_NAMES])
    cdf = (w / w.sum()).cumsum()
    cdf = (cdf / cdf[-1]).tolist()

    offspring_bases: List[List[BasisTree]] = []
    guard = 0
    while len(offspring_bases) < len(pop):
        name = OPERATOR_NAMES[bisect_right(cdf, rng.random())]
        parents = [pop[_tournament(rank, crowd, rng.below)] for _ in OPERATORS[name][1]]
        result = apply_operator(name, parents, g, n_vars, cfg, rng)
        guard += result is None
        if result is None and guard > 100 * len(pop):
            # degenerate population; force growth to make progress
            result = (apply_operator("basis_add", parents, g, n_vars, cfg, rng)
                      or apply_operator("basis_delete", parents, g, n_vars, cfg, rng))
        if result is None:
            continue
        offspring_bases.extend(result)
    offspring_bases = offspring_bases[: len(pop)]

    # an offspring with the very bases of a parent or an earlier offspring,
    # in order, shares that model's fit; the others are fitted in one call
    fitted = {tuple(map(id, m.bases)): m for m in pop}
    keys = [tuple(map(id, bases)) for bases in offspring_bases]
    new = {key: bases for key, bases in zip(keys, offspring_bases) if key not in fitted}
    fresh = dict(zip(new, fit_models(list(new.values()), X, y, reference, cfg)))
    fitted.update(fresh)
    offspring = [fresh.pop(key) if key in fresh else replace(fitted[key], bases=list(bases))
                 for key, bases in zip(keys, offspring_bases)]

    archive.merge(offspring)
    combined = pop + offspring
    combined_objs = objs + [train_objective(m) for m in offspring]
    return _environmental_selection(combined, combined_objs, len(pop))
