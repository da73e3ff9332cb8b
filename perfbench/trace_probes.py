"""Per-layer counters for the traced run.

Each probe wraps one public canonsr function and replaces it in every canonsr
module that holds it, so callers that look the name up find the wrapper.  A
wrapper counts outermost calls and busy seconds, and lets enclosing probes
compute self time.  Work a probe does for its own counters (keys, shares) is
timed and subtracted from every span open around it.

A probe whose function a refactor removed or renamed is reported as absent;
the run goes on without it.
"""

import functools
import importlib
import time
import weakref

PACKAGE = "canonsr"
MODULES = ("cli", "config", "dataset", "evolve", "expr", "fit", "grammar", "pipeline")


def _distinct_points(population):
    return len({(m.train_error, m.complexity) for m in population})


class _Probe:
    __slots__ = ("calls", "busy", "child", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.active = False
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.probes = {}
        self.absent = []
        self.stack = []          # [child seconds, overhead at entry] per open span
        self.overhead = 0.0      # seconds spent in probe bookkeeping
        self._seen_rows = {}     # id(X) -> (weak ref to X, tree keys evaluated on X)
        self._tree_key = None

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                pass
        expr = modules.get("expr")
        tracer._tree_key = getattr(expr, "tree_to_dict", None)
        for name, home, attr, before, after in tracer._probe_table():
            owner = modules.get(home)
            if owner is not None and "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                tracer.absent.append(name)
                continue
            wrapper = tracer._wrap(name, fn, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in list(modules.values()) + [importlib.import_module(PACKAGE)]:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
        return tracer

    def _probe_table(self):
        # (metric prefix, home module, attribute, before-hook, after-hook)
        return [
            ("evolve.nondominated_sort", "evolve", "nondominated_sort",
             lambda p, a, k: p.add("points", len(a[0])), None),
            ("evolve.crowding_distance", "evolve", "crowding_distance", None, None),
            ("evolve.ParetoArchive.merge", "evolve", "ParetoArchive.merge", None, None),
            ("evolve.fit_model", "evolve", "fit_model", None,
             lambda p, r: p.add("invalid", 0 if r.valid else 1)),
            ("expr.eval_basis_matrix", "expr", "eval_basis_matrix", self._note_repeat, None),
            ("expr.complexity_of_bases", "expr", "complexity_of_bases", None, None),
            ("fit.fit_weights", "fit", "fit_weights", None, None),
            ("evolve.apply_operator", "evolve", "apply_operator", None,
             lambda p, r: p.add("empty", 1 if r is None else 0)),
            ("grammar.random_tree", "grammar", "random_tree", None, None),
            ("evolve.init_population", "evolve", "init_population", None, None),
            ("evolve.nsga2_generation", "evolve", "nsga2_generation", None,
             lambda p, r: p.add("distinct", _distinct_points(r))),
            ("pipeline.simplify_after_generation", "pipeline",
             "simplify_after_generation", None, None),
            ("fit.forward_regression_press", "fit", "forward_regression_press", None, None),
            ("fit.press", "fit", "press", None, None),
            ("pipeline.filter_test_tradeoff", "pipeline", "filter_test_tradeoff", None, None),
            ("pipeline.export", "pipeline", "export", None, None),
            ("dataset.load_csv", "dataset", "load_csv", None,
             lambda p, r: p.add("rows", r.n_samples)),
            ("pipeline.load_model_json", "pipeline", "load_model_json", None, None),
            ("cli.cmd_eval", "cli", "cmd_eval", None, None),
        ]

    def _note_repeat(self, probe, args, kwargs):
        tree = args[0] if args else kwargs.get("tree")
        X = args[1] if len(args) > 1 else kwargs.get("X")
        if self._tree_key is None or X is None:
            return
        entry = self._seen_rows.get(id(X))
        if entry is None or entry[0]() is not X:
            entry = self._seen_rows[id(X)] = (weakref.ref(X), set())
        rows = entry[1]
        key = repr(self._tree_key(tree))
        probe.add("repeats", 1 if key in rows else 0)
        rows.add(key)

    def _wrap(self, name, fn, before, after):
        probe = self.probes[name] = _Probe()
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.active:
                return fn(*args, **kwargs)
            if before is not None:
                t = clock()
                before(probe, args, kwargs)
                self.overhead += clock() - t
            frame = [0.0, self.overhead]
            self.stack.append(frame)
            probe.active = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0 - (self.overhead - frame[1])
                probe.active = False
                self.stack.pop()
                probe.calls += 1
                probe.busy += elapsed
                probe.child += frame[0]
                if self.stack:
                    self.stack[-1][0] += elapsed
            if after is not None:
                t = clock()
                after(probe, result)
                self.overhead += clock() - t
            return result

        return wrapper

    def report(self) -> dict:
        """Raw per-probe totals; run.py turns them into the named metrics."""
        return {
            "absent": self.absent,
            "overhead_s": self.overhead,
            "probes": {name: {"calls": p.calls, "busy_s": p.busy,
                              "self_s": p.busy - p.child, **p.extra}
                       for name, p in self.probes.items()},
        }
