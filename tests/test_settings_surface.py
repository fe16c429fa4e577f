"""Property tests of the input surface: every block of a scenario, the
weights file of ``eval``, a policy file and the flags of ``learn``.

Whatever a config's blocks or a weights file hold (nesting deeper than the
interpreter's recursion limit too), and wherever a removed learner flag
appears on a ``learn`` command line, the CLI exits 0, 1 or 2 without a
traceback, and a failure writes exactly one ``error:`` line.  A policy file,
which no command reads, loads or raises one one-line ``IngestError``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecegames import AffineGaussianPolicySet, IngestError, trajio
from ecegames.cli import main

# Keys that are not settings (any more): the run's mode and seed, the effort
# floor constant, the sample count of a learner that draws nothing, and a
# solver bound that became a constant.
REMOVED = {"learner": ["mode", "effort_weight_floor", "base_seed", "samples_per_expectation"],
           "solver": ["min_step"]}

EDGES = [1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 10**400, -(10**400),
         float("nan"), float("inf"), float("-inf")]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.sampled_from(EDGES),
    st.floats(), st.text(max_size=4),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)


@pytest.fixture(scope="module")
def surface(tmp_path_factory, config_dir):
    """The lq_tracking document, a 2-trial trajectory file and a work directory."""
    root = tmp_path_factory.mktemp("surface")
    config = str(config_dir / "lq_tracking.json")
    demos = str(root / "demos.csv")
    assert main(["gen-demos", "--config", config, "--trials", "2", "--seed", "1",
                 "--out", demos]) == 0
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, config, demos, root


def run(argv):
    """(exit code, stderr) of one in-process command; argparse's exit counts."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, stderr):
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr
    if code != 0:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, stderr


@st.composite
def mutated_blocks(draw, doc):
    """``doc`` with its solver and learner blocks mutated: keys deleted, set
    to values of any type (removed keys too), or whole blocks replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 4))):
        block = draw(st.sampled_from(["solver", "learner"]))
        if not isinstance(doc.get(block), dict) or draw(st.integers(0, 9)) == 0:
            doc[block] = draw(st.one_of(st.just({}), VALUES))
            continue
        keys = sorted(doc[block]) + REMOVED[block]
        key = draw(st.sampled_from(keys))
        if key in doc[block] and draw(st.booleans()):
            del doc[block][key]
        else:
            doc[block][key] = draw(VALUES)
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_settings_block_exits_cleanly(surface, data):
    doc, _, demos, root = surface
    mutated = data.draw(mutated_blocks(doc))
    path = root / "mutated.json"
    path.write_text(json.dumps(mutated), encoding="utf-8")
    assert_clean_exit(*run(["validate", "--config", str(path), "--trajectories", demos]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    flag=st.sampled_from(["--lr", "--samples"]),
    value=st.one_of(st.sampled_from(["0.1", "5", "-1", "nan", "1e308", ""]), st.none()),
    where=st.integers(0, 6),
)
def test_removed_learner_flags_are_usage_errors(surface, flag, value, where):
    _, config, demos, root = surface
    argv = ["--config", config, "--demos", demos, "--out-weights", str(root / "w.json")]
    argv[where:where] = [flag] if value is None else [flag, value]
    code, stderr = run(["learn", *argv])
    assert code == 2, stderr
    assert_clean_exit(code, stderr)


# A placeholder string that the written file holds as nesting ``depth`` lists deep.
DEEP = "\x00deep"
DEPTHS = [sys.getrecursionlimit() // 2, sys.getrecursionlimit() + 1, 200_000]
NUMBERS = st.recursive(st.one_of(st.floats(), st.integers(-3, 9)),
                       lambda inner: st.lists(inner, max_size=4), max_leaves=12)
# The keys and kind names of the dynamics, noise, initial_state and agents blocks.
MODEL_KEYS = ["kind", "A", "B", "position_indices", "scale", "gain", "covariance", "value",
              "mean", "start", "goal", "features", "true_weights", "temperature", "target",
              "sigma"]
KINDS = ["double_integrator", "unicycle", "linear", "none", "scaled_identity", "matrix", "fixed",
         "gaussian", "reference_tracking", "control_effort", "gaussian_proximity"]
LEAVES = st.one_of(VALUES, NUMBERS, st.sampled_from(KINDS), st.just(DEEP))


def _holds(node, key):
    return key in node if isinstance(node, dict) else key < len(node)


@st.composite
def edited(draw, doc, top, keys):
    """``doc`` with one to four edits under its ``top`` keys: each walks down
    from one of them and deletes the entry it stops at or sets it to any
    value; at a dict it may stop at one of ``keys`` that it lacks."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 4))):
        node, key = doc, draw(st.sampled_from(top))
        while _holds(node, key) and isinstance(node[key], (dict, list)) and node[key]:
            if draw(st.integers(0, 3)) == 0:
                break
            node = node[key]
            if isinstance(node, dict):
                key = draw(st.sampled_from(sorted(node) + keys))
            else:
                key = draw(st.integers(0, len(node) - 1))
        if _holds(node, key) and draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(LEAVES)
    return doc


def write(path, doc, depth):
    """Write ``doc`` as JSON, each :data:`DEEP` as lists ``depth`` deep."""
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    path.write_text(text, encoding="utf-8")


@settings(max_examples=800, derandomize=True, deadline=None)
@given(data=st.data(), depth=st.sampled_from(DEPTHS))
def test_any_model_block_exits_cleanly(surface, data, depth):
    doc, _, demos, root = surface
    path = root / "model.json"
    write(path, data.draw(edited(doc, ["dynamics", "noise", "initial_state", "agents"],
                                 MODEL_KEYS)), depth)
    assert_clean_exit(*run(["validate", "--config", str(path), "--trajectories", demos]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), depth=st.sampled_from(DEPTHS))
def test_any_weights_file_exits_cleanly(surface, data, depth):
    doc, config, demos, root = surface
    path = root / "weights.json"
    write(path, data.draw(edited(_weights_doc(doc), ["weights", "feature_names"], [])), depth)
    assert_clean_exit(*_eval(config, demos, path, root))


def _weights_doc(doc):
    return {"weights": [a["true_weights"] for a in doc["agents"]],
            "feature_names": [[f["kind"] for f in a["features"]] for a in doc["agents"]]}


def _eval(config, demos, weights, root):
    return run(["eval", "--config", config, "--demos", demos, "--weights", str(weights),
                "--trials", "1", "--out", str(root / "eval")])


# Finite weights out to the ends of the float range, which the file takes
# and eval's solves (from the demo start and cold) must fail on or survive;
# effort weights stay positive, so that most files reach the solves.
FINITE_EDGES = st.one_of(st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0]),
                         st.floats(-10.0, 10.0))
EFFORT_EDGES = st.one_of(st.sampled_from([1e308, 5e-324]), st.floats(1e-3, 10.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_finite_weights_exit_cleanly(surface, data):
    doc, config, demos, root = surface
    weights = _weights_doc(doc)
    weights["weights"] = [
        [data.draw(EFFORT_EDGES if name == "control_effort" else FINITE_EDGES) for name in names]
        for names in weights["feature_names"]
    ]
    path = root / "finite_weights.json"
    path.write_text(json.dumps(weights), encoding="utf-8")
    assert_clean_exit(*_eval(config, demos, path, root))


NOT_UTF8 = [b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\xc0\xaf"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_weights_file_not_utf8_is_one_error_line(surface, data):
    doc, config, demos, root = surface
    text = json.dumps(_weights_doc(doc)).encode("utf-8")
    at = data.draw(st.integers(0, len(text)))
    path = root / "bytes_weights.json"
    path.write_bytes(text[:at] + data.draw(st.sampled_from(NOT_UTF8)) + text[at:])
    code, stderr = _eval(config, demos, path, root)
    assert code == 1, stderr
    assert_clean_exit(code, stderr)
    assert stderr.startswith(f"error: {path}: invalid weights file ("), stderr


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data(), depth=st.sampled_from(DEPTHS))
def test_any_policy_file_loads_or_raises_one_line(tmp_path_factory, data, depth):
    path = tmp_path_factory.getbasetemp() / "policy.json"
    trajio.write_policy(path, AffineGaussianPolicySet.zero(3, 4, (2, 1)))
    policy = json.loads(path.read_text(encoding="utf-8"))
    write(path, data.draw(edited(policy, sorted(policy), [])), depth)
    try:
        trajio.read_policy(path)
    except IngestError as exc:
        assert "\n" not in str(exc), str(exc)
