"""The CLI contract under malformed input.

Each example takes a valid system, config, control or plan file, replaces
one value (or one token of the system file) with something malformed, or
adds a random expression tree to one equation, and runs the subcommand
that reads it.  Whatever the input, `main` returns a documented exit code
(0 success, 1 input error, 2 negative verdict, 3 blow-up), writes a
manifest that holds that code, and lets no exception or traceback out.
No JSON substitute is a large finite number, so no run can be long; a
1e300 in a system changes values, not the number of steps.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlkit.cli import main

SYSTEM = "system heading\nstates x1 x2\ninputs v\ndx1 = sin(v) * x2\ndx2 = cos(v) + x1\n"
CONFIG = {
    "horizon": 1.0, "segments": 3, "input_box": [[-2.0, 2.0]], "samples": 20,
    "window": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": [8, 8], "seed": 5, "step": 0.05,
}
CONFIG_EXT = dict(CONFIG, input_box=[[-3.0, 3.0]], window=CONFIG["window"] + [[-4.0, 4.0]], resolution=[8, 8, 4])
CONTROL = [{"duration": 0.5, "values": [1.0]}, {"duration": 0.25, "values": [-1.0]}]
PLAN = {"start": [0.0, 0.0, 0.0], "segments": [
    {"kind": "jump", "channel": 0, "displacement": 1.0},
    {"kind": "drift", "duration": 0.3, "values": [1.0]},
]}
DOCUMENTS = {"config": CONFIG, "config_ext": CONFIG_EXT, "control": CONTROL, "plan": PLAN}
MALFORMED = [float("inf"), float("nan"), -1, 0, 2.5, "x", None, True, [], {}, [1, 2, 3], [[1]]]
TOKENS = [
    "2^2000", "1e400", "x1^-400", "1/(x1-x1)", "sin(exp(x1^400))", "1/0", "exp(1000)", "log(x1)",
    "0", "-1", "v", "x9", "(", ")", "*", "^", "=", "states", "",
]
COMMANDS = {
    "parse": ["parse", "{system}"],
    "extend": ["extend", "{system}", "--out", "{dir}/ext.sys"],
    "reduce": ["reduce", "{system}", "--out", "{dir}/red.sys"],
    "kalman": ["check", "{system}", "--method", "kalman", "--out", "{dir}/k.json"],
    "larc": ["check", "{system}", "--method", "larc", "--point", "0.5,0.5", "--out", "{dir}/l.json"],
    "simulate": ["simulate", "{system}", "--x0", "0,0", "--control", "{control}", "--out", "{dir}/t.csv"],
    "reach": ["reach", "{system}", "--x0", "0,0", "--config", "{config}", "--out", "{dir}/c.csv"],
    "compare": [
        "compare", "{system}", "--x0", "0,0", "--config", "{config}", "--config-ext", "{config_ext}",
        "--out", "{dir}/cmp.json",
    ],
    "realize": ["realize", "{system}", "--plan", "{plan}", "--gain-sweep", "10:20:2", "--out", "{dir}/r.csv"],
}
# the subcommand that reads each JSON file
READER = {"config": "reach", "config_ext": "compare", "control": "simulate", "plan": "realize"}


def _paths(node, prefix=()):
    """Every key or index path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


JSON_SITES = [(name, path) for name, doc in DOCUMENTS.items() for path in _paths(doc)]
TOKEN_SPANS = [m.span() for m in re.finditer(r"[A-Za-z_]\w*|[0-9.]+|\S", SYSTEM)]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run_contract(command: str, system: str, documents: dict):
    with tempfile.TemporaryDirectory() as d:
        files = {"dir": d, "system": os.path.join(d, "s.sys")}
        with open(files["system"], "w") as fh:
            fh.write(system)
        for name, doc in documents.items():
            files[name] = os.path.join(d, f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump(doc, fh)
        manifest = os.path.join(d, "run.manifest.json")
        argv = [arg.format(**files) for arg in COMMANDS[command]] + ["--manifest", manifest]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        with open(manifest) as fh:
            assert json.load(fh)["exit_code"] == code
        return code


CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@CONTRACT
@given(site=st.sampled_from(JSON_SITES), value=st.sampled_from(MALFORMED))
def test_malformed_json_value_keeps_the_contract(site, value):
    name, path = site
    documents = dict(DOCUMENTS, **{name: _replaced(DOCUMENTS[name], path, value)})
    _run_contract(READER[name], SYSTEM, documents)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("site", JSON_SITES, ids=lambda site: "-".join(map(str, (site[0], *site[1]))))
def test_non_finite_json_value_is_an_input_error(site, value):
    # a non-finite plan start used to exit 3, as a blow-up
    name, path = site
    documents = dict(DOCUMENTS, **{name: _replaced(DOCUMENTS[name], path, value)})
    assert _run_contract(READER[name], SYSTEM, documents) == 1


@CONTRACT
@given(span=st.sampled_from(TOKEN_SPANS), token=st.sampled_from(TOKENS), command=st.sampled_from(sorted(COMMANDS)))
def test_malformed_system_token_keeps_the_contract(span, token, command):
    start, end = span
    _run_contract(command, SYSTEM[:start] + token + SYSTEM[end:], DOCUMENTS)


# Trees over 0, 1 and 1e300 reach the variable-free zero denominators,
# zero bases and overflows that single tokens do not, such as 1/-(0).
TREES = st.recursive(
    st.sampled_from(["0", "1", "1e300"]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: f"({ab[0]} / {ab[1]})"),
        kids.map(lambda a: f"-({a})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), kids).map(lambda fa: f"{fa[0]}({fa[1]})"),
        st.tuples(kids, st.sampled_from([*range(-3, 4), 2000])).map(lambda ak: f"({ak[0]})^{ak[1]}"),
    ),
    max_leaves=6,
)


@settings(CONTRACT, max_examples=300)
@given(tree=TREES, line=st.sampled_from([3, 4]), command=st.sampled_from(sorted(COMMANDS)))
def test_random_expression_tree_keeps_the_contract(tree, line, command):
    lines = SYSTEM.splitlines()
    lines[line] += f" + {tree}"
    _run_contract(command, "\n".join(lines) + "\n", DOCUMENTS)
