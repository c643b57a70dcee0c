"""Golden reports of the CLI on the builtin examples, with ``--json`` and as text.

Each ``--json`` report is compared field by field with its recording
under ``tests/golden/`` (``<slug>.json``).  Every field must match
exactly, except ``residual`` values, which may move by at most 1e-15
(they are norms of differences near rounding level and depend on the
order of floating-point sums).  Each text report is compared line by line
with ``<slug>.txt``, with the figure after every ``residual`` masked for
the same reason.

After a deliberate change of the reports, regenerate the recordings with

    PYTHONPATH=src python tests/test_golden.py [slug ...]

which rewrites only the named recordings (file names without extension),
or all of them when no slug is given.  To account for such a change first,

    PYTHONPATH=src python tests/test_golden.py --account [slug ...]

prints every leaf that differs from its recording (slug, path, old value,
new value and, between two floats, their distance in ulp) and every text
line that differs (slug, line number, old line, new line), and rewrites
nothing.
"""

import io
import itertools
import json
import math
import re
import struct
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from owalk.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
RESIDUAL_TOL = 1e-15
TAU_K3 = repr(2 * math.pi / (3 * math.sqrt(3)))
RESIDUAL_FIGURE = re.compile(r"(?<=residual )[-+.0-9e]+")

COMMANDS = [
    ["spectrum", "k3"],
    ["spectrum", "irrational5"],
    ["spectrum", "mst8"],
    ["support", "k3", "0"],
    ["support", "irrational5", "3"],
    ["support", "mst8", "0"],
    ["cospectral", "k3", "0", "1"],
    ["cospectral", "irrational5", "3", "4"],
    ["cospectral", "irrational5", "0", "1"],
    ["cospectral", "mst8", "0", "1"],
    ["periodic", "k3", "0"],
    ["periodic", "irrational5", "3"],
    ["periodic", "irrational5", "0"],
    ["periodic", "mst8", "0"],
    ["pst", "k3", "0", "1", "--scan", "--t-max", "10"],
    ["pst", "irrational5", "3", "4", "--scan", "--t-max", "5"],
    ["pst", "mst8", "0", "1", "--scan", "--t-max", "4"],
    ["pst", "k3", "0", "1", "--time", TAU_K3],
    ["pst", "mst8", "0", "6", "--time", repr(math.pi / 4)],
    ["mst", "k3"],
    ["mst", "irrational5"],
    ["mst", "mst8"],
    ["autos", "k3"],
    ["autos", "mst8"],
    ["evolve", "k3", "--source", "0", "--t-max", "3", "--steps", "7"],
    ["evolve", "mst8", "--source", "0", "--t-max", "2", "--steps", "5"],
    ["example", "irrational5"],
]


def _slug(argv):
    return "_".join(arg if arg != TAU_K3 else "tau" for arg in argv).replace(
        "-", ""
    )


def _run(argv):
    code, text = _run_text([*argv, "--json"])
    return code, json.loads(text)


def _run_text(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _masked(text):
    """The lines of a text report with every residual figure masked."""
    return RESIDUAL_FIGURE.sub("*", text).splitlines()


def _compare(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} vs {list(want)}"
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    elif path.endswith(".residual"):
        assert abs(got - want) <= RESIDUAL_TOL, f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def _leaves(obj, path="$"):
    """(path, value) of every leaf of a JSON value, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _ulps(old, new):
    """Number of doubles from old to new, or None unless both are floats."""
    if type(old) is not float or type(new) is not float:
        return None
    ordered = [struct.unpack("<q", struct.pack("<d", x))[0] for x in (old, new)]
    ordered = [i if i >= 0 else -(2**63) - i for i in ordered]  # monotone in x, 0 at +-0.0
    return abs(ordered[1] - ordered[0])


def _account(slug, recorded, record):
    """Print each leaf of ``record`` that differs from ``recorded``; return how many."""
    old, new = dict(_leaves(recorded)), dict(_leaves(record))
    moved = 0
    for path in [*old, *(p for p in new if p not in old)]:
        before, after = old.get(path, "<absent>"), new.get(path, "<absent>")
        if type(before) is not type(after) or before != after:
            ulps = _ulps(before, after)
            print(slug, path, repr(before), repr(after), "-" if ulps is None else f"{ulps} ulp")
            moved += 1
    return moved


def _account_text(slug, recorded, text):
    """Print each line of ``text`` that differs from ``recorded``; return how many."""
    moved = 0
    pairs = itertools.zip_longest(recorded.splitlines(), text.splitlines(), fillvalue="<absent>")
    for number, (before, after) in enumerate(pairs, 1):
        if before != after:
            print(slug, f"line {number}", repr(before), repr(after))
            moved += 1
    return moved


@pytest.mark.parametrize("argv", COMMANDS, ids=_slug)
def test_report_matches_golden(argv):
    recorded = json.loads((GOLDEN_DIR / f"{_slug(argv)}.json").read_text())
    code, report = _run(argv)
    assert code == recorded["exit_code"]
    _compare(report, recorded["report"])


@pytest.mark.parametrize("argv", COMMANDS, ids=_slug)
def test_text_report_matches_golden(argv):
    recorded = (GOLDEN_DIR / f"{_slug(argv)}.txt").read_text()
    _, text = _run_text(argv)
    assert _masked(text) == _masked(recorded)


if __name__ == "__main__":
    account = sys.argv[1:2] == ["--account"]
    wanted = set(sys.argv[1 + account :])
    unknown = wanted - {_slug(argv) for argv in COMMANDS}
    if unknown:
        sys.exit(f"unknown golden slugs: {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    moved = 0
    for argv in COMMANDS:
        if wanted and _slug(argv) not in wanted:
            continue
        code, report = _run(argv)
        record = {"argv": argv, "exit_code": code, "report": report}
        _, text = _run_text(argv)
        path, text_path = (GOLDEN_DIR / f"{_slug(argv)}{suffix}" for suffix in (".json", ".txt"))
        if account:
            moved += _account(_slug(argv), json.loads(path.read_text()), record)
            moved += _account_text(_slug(argv), text_path.read_text(), text)
        else:
            path.write_text(json.dumps(record, indent=1) + "\n")
            text_path.write_text(text)
    if account:
        print(f"{moved} leaves and lines differ")
