"""Fuzzing the file boundary: JSON documents fed to the CLI on stdin.

Every document read by ``verify``, ``reduce`` or ``discretize`` must end in
exit 0, in exit 1 (``verify`` only) or in exit 2 with exactly one ``error:``
line: never in exit 3, an exception or a traceback. The documents are
arbitrary JSON, valid configurations and spaces, and those with one or two
fields replaced by hostile values or dropped.
"""

import contextlib
import io
import json
import sys
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from expert_spread import cli  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_home(tmp_path_factory):
    """Keep hypothesis's cache of source constants out of the working directory."""
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    set_hypothesis_home_dir(None)


# derandomized, with no example database
FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# JSON tokens json.dumps cannot write, drawn as these strings and spliced
# into the text in their place: integers past Python's 4300-digit
# conversion limit, and an underflowing literal
RAW = {
    "@huge@": "1" + "0" * 5000,
    "@-huge@": "-1" + "0" * 5000,
    "@tiny@": "1e-5000",
}

# hypothesis builds its full character table on a text strategy's first
# use, which costs about a second; this alphabet mixes number syntax with
# non-ASCII digits and separators
TEXT = st.text(
    st.sampled_from([*"0123456789/-+.eE xg{}[]\":,\\\n", "é", "\uff11", "\u0663", "\u2028", "\x00"]),
    max_size=6,
)

HOSTILE = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.integers(),
    st.sampled_from(
        [
            -1, 0, -(10**30), 10**7, 10**4000, *RAW,
            "1e-5000", "3/0", "9" * 1001, "1/" + "7" * 1001, "-1/2", "1/2", "", "x", "1e5000",
        ]
    ),
    TEXT,
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(TEXT, st.integers(0, 3), max_size=2),
)

JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)

DELTAS = ["1/10", "1/4", "1/3", "2/5", "1/2", "3/4"]


@st.composite
def configurations(draw):
    """A valid configuration document with masses in units of their total."""
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # pure cells more often than mixed ones, so columns and rows spread apart
    cell = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 1)])
    masses = {(k, j): draw(cell) for k in range(1, cols + 1) for j in range(1, rows + 1)}
    total = sum(a + ac for a, ac in masses.values())
    if not total:
        masses[1, 1], total = (1, 0), 1
    return {
        "delta": draw(st.sampled_from(DELTAS)),
        "cols": cols,
        "rows": rows,
        "cells": [
            {"col": k, "row": j, "a": f"{a}/{total}", "ac": f"{ac}/{total}"}
            for (k, j), (a, ac) in masses.items()
            if a or ac
        ],
    }


@st.composite
def spaces(draw):
    """A valid raw space document with weights in units of their total."""
    atoms = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=5))
    total = sum(w for w, _ in atoms)
    labels = st.sampled_from(["g1", "g2", "h1", "h2", ""])
    return {
        "atoms": [
            {"w": f"{w}/{total}", "a": f"{min(a, w)}/{total}", "g": draw(labels), "h": draw(labels)}
            for w, a in atoms
        ]
    }


def _slots(doc):
    """Every ``(container, key)`` pair below ``doc``, outermost first."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            found += _slots(value)
    return found


@st.composite
def hostile(draw, documents):
    """A document of ``documents`` with up to two fields replaced by hostile values or dropped."""
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(doc)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(HOSTILE)
    return doc


def _text(doc):
    text = json.dumps(doc)
    for name, token in RAW.items():
        text = text.replace(f'"{name}"', token)
    return text


COMMANDS = {
    "verify": ["verify", "-"],
    "reduce": ["reduce", "--eps", "1/100", "-"],
    "discretize": ["discretize", "--delta", "1/4", "-"],
    "coarsen": ["discretize", "--delta", "1/4", "--n", "4", "-"],
}


def _run(name, text):
    """Run one command on ``text`` through ``cli.main``; check its exit and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(COMMANDS[name])
    finally:
        sys.stdin = saved
    err = err.getvalue()
    assert code in ((0, 1, 2) if name == "verify" else (0, 2)), (name, code, err, text[:300])
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err, text[:300])
    else:
        assert err == "", (name, err, text[:300])
    return code


def _fuzz(strategy, names):
    """Run each command of ``names`` on every document ``strategy`` draws; count the exits."""
    codes = Counter()

    @FUZZ
    @given(strategy)
    def run(doc):
        text = doc if isinstance(doc, str) else _text(doc)
        for name in names:
            codes[name, _run(name, text)] += 1

    run()
    return codes


def test_arbitrary_json_and_text_end_in_one_error_line():
    codes = _fuzz(JSON | st.lists(TEXT, max_size=6).map("".join), list(COMMANDS))
    assert sum(codes.values()) >= 4 * 100, codes


def test_hostile_configurations_end_in_one_error_line():
    codes = _fuzz(hostile(configurations()), ["verify", "reduce"])
    # documents left whole get past the loader; few of them reduce, which
    # the valid configurations cover
    assert codes["verify", 0] >= 20, codes


def test_hostile_spaces_end_in_one_error_line():
    codes = _fuzz(hostile(spaces()), ["discretize", "coarsen"])
    assert codes["discretize", 0] >= 20 and codes["coarsen", 0] >= 20, codes


def test_valid_configurations_reduce_or_are_refused_in_one_line():
    codes = _fuzz(configurations(), ["verify", "reduce"])
    # reduce refuses delta >= 1/2 and a configuration with no spread
    assert codes["verify", 0] >= 40 and codes["reduce", 0] >= 10, codes
