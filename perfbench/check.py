"""Output checks made apart from the program: numpy and the json module only.

The evaluator reads exported model JSON and applies the canonical grammar's
semantics directly; it shares no code with canonsr.  Each check returns a
list of problems, empty when the output is right.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

# RunConfig defaults the benchmark relies on (the paper's settings); the
# config the benchmark passes sets only population, generations and seed.
MAX_DEPTH = 8
MAX_BASES = 15
EXP_CAP = 5
B = 10.0
WB = 10.0
WVC = 0.25

# tolerances, stated in README.md.  A prediction sums M+1 terms c_j * phi_j;
# canonsr and this evaluator may add them in another order, so two correct
# predictions differ by up to a few ulps of sum_j |c_j * phi_j|, which is far
# larger than the prediction when big terms cancel.
ROUNDING = 16 * np.finfo(float).eps   # per unit of sum_j |c_j * phi_j|
ERR_RTOL, ERR_ATOL = 1e-7, 1e-9      # error percentages, on top of the rounding slack
NORMAL_EQ_TOL = 1e-10                 # |Phi^T r| against ||Phi|| (||r|| + ||Phi|| ||c|| + ||y||)
CPX_ATOL = 1e-9

_UNARY = {
    "sqrt": np.sqrt, "ln": np.log, "log10": np.log10,
    "inv": lambda x: 1.0 / x, "abs": np.abs, "sq": lambda x: x * x,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "relu": lambda x: np.maximum(0.0, x), "negrelu": lambda x: np.minimum(0.0, x),
    "exp2": np.exp2, "exp10": lambda x: np.power(10.0, x),
}
_BINARY = {
    "add": lambda a, b: a + b, "mul": lambda a, b: a * b,
    "max": np.maximum, "min": np.minimum, "pow": np.power, "div": lambda a, b: a / b,
}


def weight_value(stored: float) -> float:
    """Stored weight in [-2B, 2B] -> 0, or sign * 10^(|stored| - B)."""
    if stored == 0.0:
        return 0.0
    return math.copysign(10.0 ** (abs(stored) - B), stored)


def _poison(value, *inputs):
    """An operator applied to any non-finite input gives NaN there."""
    bad = np.zeros(np.shape(value), dtype=bool)
    for v in inputs:
        bad = bad | ~np.isfinite(v)
    return np.where(bad, np.nan, value)


class Evaluator:
    """Evaluates tree dicts ({"kind": "nt" | "vc" | "w" | "op", ...}) on X."""

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=float)

    def node(self, d):
        kind = d["kind"]
        if kind == "vc":
            out = np.ones(self.X.shape[0])
            for i, e in enumerate(d["exponents"]):
                if e:
                    out = out * np.power(self.X[:, i], float(e))
            return out
        if kind == "w":
            return np.float64(weight_value(d["stored"]))
        sym, ch = d["symbol"], d["children"]
        if sym == "REPVC":                       # VC | REPVC * REPOP | REPOP
            val = self.node(ch[0])
            for c in ch[1:]:
                val = val * self.node(c)
            return val
        if sym == "REPOP":
            head = ch[0]
            if head["kind"] == "nt" and head["symbol"] == "REPOP":   # REPOP * REPOP
                return self.node(ch[0]) * self.node(ch[1])
            op = head["children"][0]["name"]
            if head["symbol"] == "1OP":          # 1OP ( W + REPADD )
                arg = self.node(ch[1]) + self.node(ch[2])
                return _poison(_UNARY[op](arg), arg)
            if head["symbol"] == "2OP":          # 2OP ( 2ARGS )
                a, b = self.node(ch[1])
                return _poison(_BINARY[op](a, b), a, b)
            raise ValueError(f"operator family {head['symbol']!r} is not in the grammar")
        if sym == "2ARGS":                       # W + REPADD , MAYBEW | MAYBEW , W + REPADD
            if ch[0]["kind"] == "w":
                return self.node(ch[0]) + self.node(ch[1]), self.node(ch[2])
            return self.node(ch[0]), self.node(ch[1]) + self.node(ch[2])
        if sym == "MAYBEW":                      # W | W + REPADD
            return sum(self.node(c) for c in ch)
        if sym == "REPADD":                      # W * REPVC | REPADD + REPADD
            if ch[0]["kind"] == "w":
                return self.node(ch[0]) * self.node(ch[1])
            return self.node(ch[0]) + self.node(ch[1])
        raise ValueError(f"unknown nonterminal {sym!r}")

    def basis(self, tree) -> np.ndarray:
        with np.errstate(all="ignore"):
            val = self.node(tree)
        return np.broadcast_to(np.asarray(val, dtype=float), (self.X.shape[0],)).copy()

    def design(self, model) -> np.ndarray:
        cols = [np.ones(self.X.shape[0])] + [self.basis(t) for t in model["bases"]]
        return np.column_stack(cols)

    def predict(self, model):
        """(predictions, rounding slack per row) of a model with coefficients."""
        return combine(self.design(model), model["coeffs"])


def combine(Phi, coeffs):
    """Phi @ coeffs, and the rounding slack each row's sum may carry."""
    coeffs = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        return Phi @ coeffs, ROUNDING * (np.abs(Phi) @ np.abs(coeffs))


def nmse_pct(pred, y, reference: float) -> float:
    if not np.all(np.isfinite(pred)):
        return math.inf
    r = (pred - y) / reference
    return float(100.0 * np.sqrt(np.mean(r * r)))


def error_close(got: float, stored: float, slack, reference: float) -> bool:
    """Error percentages agree, allowing the predictions' rounding slack."""
    if math.isinf(got) or math.isinf(stored):
        return got == stored
    allowed = (ERR_ATOL + ERR_RTOL * max(abs(got), abs(stored))
               + 100.0 * float(np.sqrt(np.mean(slack * slack))) / reference)
    return abs(got - stored) <= allowed


# ---------------------------------------------------------------------------
# tree structure
# ---------------------------------------------------------------------------

def _walk(tree, level=1):
    yield tree, level
    for c in tree.get("children", ()):
        yield from _walk(c, level + 1)


def recount_complexity(bases) -> float:
    """wb per basis + payload leaves + wvc * sum |exponent|."""
    total = 0.0
    for tree in bases:
        leaves = vc_cost = 0.0
        for node, _ in _walk(tree):
            if node["kind"] != "nt":
                leaves += 1
            if node["kind"] == "vc":
                vc_cost += WVC * sum(abs(e) for e in node["exponents"])
        total += WB + leaves + vc_cost
    return total


def tree_problems(bases) -> list:
    problems = []
    if len(bases) > MAX_BASES:
        problems.append(f"{len(bases)} bases > max_bases {MAX_BASES}")
    for tree in bases:
        depth = max(level for node, level in _walk(tree) if node["kind"] == "nt")
        if depth > MAX_DEPTH:
            problems.append(f"tree depth {depth} > max_depth {MAX_DEPTH}")
        for node, _ in _walk(tree):
            if node["kind"] == "vc" and any(abs(e) > EXP_CAP for e in node["exponents"]):
                problems.append(f"exponent beyond cap {EXP_CAP}: {node['exponents']}")
            if node["kind"] == "w" and abs(node["stored"]) > 2 * B:
                problems.append(f"stored weight {node['stored']} outside [-2B, 2B]")
    return problems


# ---------------------------------------------------------------------------
# search output: an exported front directory
# ---------------------------------------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_front(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"complexity": float(r["complexity"]), "n_bases": int(r["n_bases"]),
             "train": float(r["train_error_pct"]), "test": float(r["test_error_pct"])}
            for r in rows]


def normal_equation_problem(Phi, y, coeffs):
    r = y - Phi @ coeffs
    lhs = float(np.linalg.norm(Phi.T @ r))
    norm_phi = float(np.linalg.norm(Phi))
    scale = norm_phi * (float(np.linalg.norm(r)) + norm_phi * float(np.linalg.norm(coeffs))
                        + float(np.linalg.norm(y)))
    if not lhs <= NORMAL_EQ_TOL * scale:
        return f"normal equations off: |Phi^T r| = {lhs:.3g}, allowed {NORMAL_EQ_TOL * scale:.3g}"
    return None


def check_front(out_dir: str, X_train, y_train, X_test, y_test) -> dict:
    """Check one exported run; returns {"problems", "front_hash", "size", "best_test"}."""
    problems = []
    front = _read_front(os.path.join(out_dir, "front.csv"))
    reference = float(np.max(np.abs(y_train)))
    train_eval, test_eval = Evaluator(X_train), Evaluator(X_test)
    if not front:
        problems.append("empty front")
    for i, row in enumerate(front):
        with open(os.path.join(out_dir, f"model_{i}.json"), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        model = payload["model"]
        tag = f"model_{i}"
        if payload["var_names"] != [f"x{k + 1}" for k in range(X_train.shape[1])]:
            problems.append(f"{tag}: variables {payload['var_names']}")
            continue
        if payload["train_reference"] != reference:
            problems.append(f"{tag}: train reference {payload['train_reference']} != {reference}")
        problems += [f"{tag}: {p}" for p in tree_problems(model["bases"])]
        cpx = recount_complexity(model["bases"])
        if abs(cpx - model["complexity"]) > CPX_ATOL or abs(cpx - row["complexity"]) > CPX_ATOL:
            problems.append(f"{tag}: complexity {model['complexity']} / {row['complexity']}, "
                            f"recounted {cpx}")
        if row["n_bases"] != len(model["bases"]):
            problems.append(f"{tag}: front says {row['n_bases']} bases, model has "
                            f"{len(model['bases'])}")
        Phi = train_eval.design(model)
        coeffs = np.asarray(model["coeffs"], dtype=float)
        if not np.all(np.isfinite(Phi)):
            problems.append(f"{tag}: non-finite training column")
            continue
        for label, (pred, slack), y, key in (
                ("train", combine(Phi, coeffs), y_train, "train"),
                ("test", test_eval.predict(model), y_test, "test")):
            got = nmse_pct(pred, y, reference)
            for where, stored in (("model JSON", model[f"{key}_error_pct"]),
                                  ("front.csv", row[key])):
                if stored is None or not error_close(got, float(stored), slack, reference):
                    problems.append(f"{tag}: {label} error {stored} in {where}, "
                                    f"recomputed {got!r}")
        bad = normal_equation_problem(Phi, y_train, coeffs)
        if bad:
            problems.append(f"{tag}: {bad}")
    if front:
        if front[0]["n_bases"] != 0 or front[0]["complexity"] != 0.0:
            problems.append("test front does not start at the constant model")
        for a, b in zip(front, front[1:]):
            if not (b["complexity"] > a["complexity"] and b["test"] < a["test"]):
                problems.append(f"test front not strictly monotone at complexity "
                                f"{a['complexity']} -> {b['complexity']}")
    return {"problems": problems,
            "front_hash": sha256_file(os.path.join(out_dir, "front.csv")),
            "size": len(front),
            "best_test": min((r["test"] for r in front), default=math.inf)}


# ---------------------------------------------------------------------------
# prediction output: one canonsr eval call
# ---------------------------------------------------------------------------

def check_eval(payload: dict, X, y, stdout: str, preds_path: str, names) -> dict:
    """Check one eval call's predictions file and printed nmse_pct.

    X holds the data file's columns in the order `names`.
    """
    problems = []
    model = payload["model"]
    if payload["var_names"] != list(names):
        return {"problems": [f"model variables {payload['var_names']} are not {list(names)}"],
                "hash": sha256_file(preds_path)}
    want, slack = Evaluator(X).predict(model)
    with open(preds_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "prediction":
        problems.append("predictions file lacks its header")
    got = np.array([float(v) for v in lines[1:]])
    if got.shape != want.shape:
        problems.append(f"{got.size} predictions for {want.size} rows")
    else:
        finite = np.isfinite(want)
        if not np.array_equal(finite, np.isfinite(got)):
            problems.append("non-finite predictions in other places")
        elif np.any(np.abs(got - want)[finite] > slack[finite]):
            worst = int(np.argmax(np.where(finite, np.abs(got - want) - slack, -np.inf)))
            problems.append(f"prediction {worst} is {float(got[worst])!r}, "
                            f"recomputed {float(want[worst])!r}")
    printed = [ln.split(":", 1)[1].strip() for ln in stdout.splitlines()
               if ln.startswith("nmse_pct:")]
    expected = nmse_pct(want, y, payload["train_reference"])
    if len(printed) != 1 or not error_close(float(printed[0]), expected, slack,
                                            payload["train_reference"]):
        problems.append(f"printed nmse_pct {printed}, recomputed {expected!r}")
    return {"problems": problems, "hash": sha256_file(preds_path)}
