"""Fuzz the grammar, config and model-file parsers: every input ends in a
documented exit code or exception, never in a traceback."""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canonsr.cli import main
from canonsr.config import OPERATOR_NAMES, ConfigError, RunConfig, load_config_values, make_config
from canonsr.grammar import default_grammar_text

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# the packaged grammar with its commented 4OP rule switched on
_FULL_TEXT = default_grammar_text().replace("# REPOP  =>", "REPOP  =>").replace(
    "# 4OP    =>", "4OP    =>")
_RULE_LINES = [f"{lhs} => {alt.strip()}"
               for lhs, rhs in re.findall(r"^(\w+)\s*=>(.*(?:\n\s+\|.*)*)", _FULL_TEXT, re.M)
               for alt in rhs.split("|")]
_SOUP = ["=>", "|", "'", "#", "REPVC", "REPOP", "REPADD", "MAYBEW", "2ARGS", "1OP",
         "2OP", "4OP", "FOO", "'VC'", "'W'", "VC", "'SIN'", "'DIVIDE'", "'LTE'", "'FROB'",
         "'('", "')'", "'*'", "'+'", "','", "''", "\n", "$"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A 9-row samples CSV, a tiny run config and an exported model with bases."""
    d = tmp_path_factory.mktemp("fuzz")
    rows = [(a, b, 1.0 + a / b) for a in (0.9, 1.0, 1.1) for b in (1.8, 2.0, 2.2)]
    (d / "data.csv").write_text("x1,x2,y\n" + "".join(f"{a},{b},{y!r}\n" for a, b, y in rows))
    code, _ = _main(["run", "--train", str(d / "data.csv"), "--test", str(d / "data.csv"),
                     "--target", "y", "--out", str(d / "front"), "--quiet"]
                    + _config_flags(d, "population = 20\ngenerations = 3\n"))
    assert code == 0
    models = sorted(d.glob("front/model_*.json"), key=lambda p: len(p.read_text()))
    (d / "model.json").write_text(models[-1].read_text())
    assert '"kind": "op"' in models[-1].read_text()
    return d


def _config_flags(d, text):
    (d / "run.cfg").write_text(text)
    return ["--config", str(d / "run.cfg")]


def _main(argv):
    """main(argv) with its output caught: (exit code, standard error)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# grammar text: packaged alternatives dropped, repeated or reordered, plus
# token soup, through `canonsr run`: exit 0 or 2
# ---------------------------------------------------------------------------

@st.composite
def grammar_texts(draw):
    order = draw(st.permutations(_RULE_LINES))
    keep = draw(st.lists(st.integers(0, 4), min_size=len(order), max_size=len(order)))
    lines = [line for line, k in zip(order, keep) if k]
    soup = st.lists(st.sampled_from(_SOUP), max_size=6).map(" ".join)
    extras = st.sampled_from(_RULE_LINES) | soup | st.tuples(
        st.sampled_from(["REPVC", "REPOP", "REPADD", "1OP", "FOO"]), soup).map(" => ".join)
    for extra in draw(st.lists(extras, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


@settings(SETTINGS, max_examples=150)
@given(text=grammar_texts())
def test_fuzzed_grammar_text_exits_0_or_2(data_dir, text):
    (data_dir / "fuzz.grammar").write_text(text)
    flags = _config_flags(data_dir, "population = 4\ngenerations = 1\n"
                                    f"grammar = {data_dir / 'fuzz.grammar'}\n")
    code, err = _main(["run", "--train", str(data_dir / "data.csv"),
                       "--test", str(data_dir / "data.csv"), "--target", "y",
                       "--out", str(data_dir / "grammar_out"), "--quiet"] + flags)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# config text: load_config_values and make_config give a RunConfig or a
# ConfigError; no evolution runs, since a fuzzed population may be huge
# ---------------------------------------------------------------------------

_KEYS = [f.name for f in RunConfig.__dataclass_fields__.values() if f.name != "operator_weights"]
_VALUES = st.one_of(
    st.integers(-3, 20).map(str),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1e400", "-0", "0x10", "1_000", "nan", "many", "5 # note", "'8'"]),
    st.text(max_size=6))
_KEY_LINES = st.tuples(st.sampled_from(_KEYS + ["populaton", "operator.nope.weight"]
                                       + [f"operator.{n}.weight" for n in OPERATOR_NAMES]),
                       _VALUES).map(" = ".join)
_LINES = st.one_of(_KEY_LINES, _KEY_LINES, _KEY_LINES, st.text(max_size=12))


@settings(SETTINGS, max_examples=300)
@given(lines=st.lists(_LINES, max_size=6), tail=st.binary(max_size=4))
def test_fuzzed_config_text_gives_a_config_or_a_config_error(data_dir, lines, tail):
    path = data_dir / "fuzz.cfg"
    path.write_bytes("\n".join(lines).encode("utf-8") + tail)
    try:
        cfg = make_config(load_config_values(str(path)), "invalid configuration")
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert all(math.isfinite(w) and w > 0 for w in cfg.operator_weights.values())


# ---------------------------------------------------------------------------
# model JSON: an exported model with keys dropped, values of the wrong type
# and perturbed trees, through `canonsr eval`: exit 0 or 3
# ---------------------------------------------------------------------------

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from(["nt", "vc", "w", "op", "REPVC", "REPOP", "REPADD", "MAYBEW", "2ARGS",
                     "1OP", "2OP", "4OP", "FOO", "sin", "add", "lte4", "x1", "y", "5", 1e9]))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.sampled_from(["kind", "symbol", "children", "x"]),
                                       inner, max_size=3), max_leaves=6)


def _slots(value, slots):
    """Every (container, key) pair inside a JSON value, preorder."""
    keys = range(len(value)) if isinstance(value, list) else list(value)
    for key in keys:
        slots.append((value, key))
        if isinstance(value[key], (list, dict)):
            _slots(value[key], slots)
    return slots


@st.composite
def mutated_models(draw, text):
    payload = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(payload, [])
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["drop", "replace", "copy"]))
        if action == "drop":
            del container[key]
        elif action == "replace":
            container[key] = draw(_JSON)
        else:
            container[key] = json.loads(json.dumps(draw(st.sampled_from(slots))[0]))
    return json.dumps(payload)


@SETTINGS
@given(data=st.data())
def test_fuzzed_model_json_exits_0_or_3(data_dir, data):
    text = data.draw(mutated_models((data_dir / "model.json").read_text()))
    (data_dir / "fuzz.json").write_text(text)
    code, err = _main(["eval", "--model", str(data_dir / "fuzz.json"),
                       "--data", str(data_dir / "data.csv"), "--out", str(data_dir / "p.csv")])
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("error: ")
