"""Seeded inputs of the three workloads: the graphs and the op list of one round.

Stdlib only, so the worker can build its inputs before it times the import
of owalk.  The same (workload, seed) always yields the same plan; the
oracle side of the benchmark calls :func:`plan` again to know what was run.

A plan is a dict with
  ``graphs``: name -> spec (family and parameters; builtins by name)
  ``ops``:    the op list of one round, in a seeded random order.

An op is a dict.  Survey ops are library calls on one graph's shared
decomposition (``verdict``, ``cospectral``, ``char_poly``, ``support``).
CLI ops hold ``argv`` for ``owalk.cli.main``; ``argv[1]`` is a graph name
that the worker replaces with the graph file it wrote (or keeps, for a
builtin example).  Ops of one :func:`op_class` cost the same up to noise;
short ops are timed in such classes (see README).
"""

from __future__ import annotations

import random

WORKLOADS = ("survey", "pst-scan", "mst-autos")
BUILTINS = ("k3", "irrational5", "mst8")


# --- graph families -------------------------------------------------------


def paley_edges(q: int) -> list[tuple[int, int]]:
    """Paley tournament on F_q (q prime, q = 3 mod 4): u -> v when v - u is a square."""
    squares = {(x * x) % q for x in range(1, q)}
    return [(u, v) for u in range(q) for v in range(q) if u != v and (v - u) % q in squares]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    """Oriented cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return [(i, (i + 1) % n) for i in range(n)]


def k3_power_edges(d: int) -> list[tuple[int, int]]:
    """Cartesian power k3 x ... x k3 (d factors); vertex = base-3 digits, digit i -> i+1."""
    edges = []
    for v in range(3**d):
        for i in range(d):
            digit = (v // 3**i) % 3
            edges.append((v, v + (((digit + 1) % 3) - digit) * 3**i))
    return edges


def k3_power_shift(v: int, c: int, d: int) -> int:
    """Vertex v + c*(1, ..., 1) in Z_3^d."""
    out = 0
    for i in range(d):
        out += (((v // 3**i) % 3 + c) % 3) * 3**i
    return out


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_edges(n: int, seed: int, p: float = 0.5) -> list[tuple[int, int]]:
    """Connected random oriented graph G(n, p) with random orientations."""
    rng = random.Random(seed)
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v) if rng.random() < 0.5 else (v, u))
        if _connected(n, edges):
            return edges


def graph_edges(spec: dict) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a non-builtin graph spec."""
    family = spec["family"]
    if family == "paley":
        return spec["q"], paley_edges(spec["q"])
    if family == "cycle":
        return spec["n"], cycle_edges(spec["n"])
    if family == "k3pow":
        return 3 ** spec["d"], k3_power_edges(spec["d"])
    if family == "random":
        return spec["n"], random_edges(spec["n"], spec["seed"])
    raise ValueError(f"unknown graph family {family!r}")


def graph_text(spec: dict) -> str:
    n, edges = graph_edges(spec)
    return f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


# --- op lists ---------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"owalk-perfbench:{workload}:{seed}")


def _pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    return [tuple(rng.sample(range(n), 2)) for _ in range(count)]


# Survey: per graph, (verdict vertices, cospectral pairs, char_poly calls).
# Verdicts are limited to n <= 64: is_periodic pays a full char_poly even on
# a random graph that the float test already rejects (11 s at n = 96).
# Counts place the median among the n = 256 support calls and the 90th
# percentile among the Paley 23 verdicts, with tens of samples in each of
# these classes (see README).  Verdict vertices are drawn with replacement:
# Paley 23 has 23 vertices, and Paley graphs are vertex-transitive.
SURVEY_PALEY = {19: (3, 4), 23: (30, 4), 31: (2, 4), 43: (2, 4)}
SURVEY_CYCLES = tuple(range(3, 17))
SURVEY_CYCLE_OPS = (1, 1)
SURVEY_RANDOM_SMALL = {32: (2, 3), 48: (2, 3), 64: (1, 3)}
SURVEY_RANDOM_LARGE = (256, 256)
SURVEY_LARGE_SUPPORTS = 65
SURVEY_LARGE_PAIRS = 8


def _survey(seed: int) -> dict:
    rng = _rng("survey", seed)
    graphs: dict[str, dict] = {}
    ops: list[dict] = []

    def per_graph(name, n, verdicts, pairs, extra_pairs=()):
        ops.extend({"kind": "verdict", "graph": name, "vertex": v} for v in rng.choices(range(n), k=verdicts))
        ps = list(extra_pairs) + _pairs(rng, n, pairs)
        ops.extend({"kind": "cospectral", "graph": name, "a": a, "b": b} for a, b in ps)
        ops.append({"kind": "char_poly", "graph": name})

    for q, (verdicts, pairs) in SURVEY_PALEY.items():
        graphs[f"paley{q}"] = {"family": "paley", "q": q}
        per_graph(f"paley{q}", q, verdicts, pairs)
    for n in SURVEY_CYCLES:
        graphs[f"cycle{n}"] = {"family": "cycle", "n": n}
        per_graph(f"cycle{n}", n, *SURVEY_CYCLE_OPS)
    graphs["k3pow3"] = {"family": "k3pow", "d": 3}
    u = rng.randrange(27)
    # two pairs on a coset of the diagonal, which are strongly cospectral
    per_graph("k3pow3", 27, 4, 4, [(u, k3_power_shift(u, 1, 3)), (u, k3_power_shift(u, 2, 3))])
    for n, (verdicts, pairs) in SURVEY_RANDOM_SMALL.items():
        graphs[f"random{n}"] = {"family": "random", "n": n, "seed": rng.randrange(2**32)}
        per_graph(f"random{n}", n, verdicts, pairs)
    for i, n in enumerate(SURVEY_RANDOM_LARGE):
        name = f"random{n}_{i}"
        graphs[name] = {"family": "random", "n": n, "seed": rng.randrange(2**32)}
        vs = rng.sample(range(n), SURVEY_LARGE_SUPPORTS)
        ops.extend({"kind": "support", "graph": name, "vertex": v} for v in vs)
        ps = _pairs(rng, n, SURVEY_LARGE_PAIRS)
        ops.extend({"kind": "cospectral", "graph": name, "a": a, "b": b} for a, b in ps)
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


# pst-scan: fast queries repeat so that the median and the 90th percentile
# sit inside one class of ops each (see README).
PST_FAST_REPEAT = 3
PST_RANDOM = {32: 9, 48: 1, 64: 1}
PST_TMAX_LONG = "20000"


def _pst_scan(seed: int) -> dict:
    rng = _rng("pst-scan", seed)
    graphs: dict[str, dict] = {name: {"family": "builtin"} for name in BUILTINS}
    queries: list[tuple[str, int, int]] = []
    for a in range(3):
        queries += [("k3", a, (a + 1) % 3), ("k3", a, (a + 2) % 3)]
    for d in (2, 3):
        name = f"k3pow{d}"
        graphs[name] = {"family": "k3pow", "d": d}
        u = rng.randrange(3**d)
        queries += [(name, u, k3_power_shift(u, 1, d)), (name, u, k3_power_shift(u, 2, d))]
        others = [v for v in range(3**d) if v not in (u, k3_power_shift(u, 1, d), k3_power_shift(u, 2, d))]
        queries += [(name, u, v) for v in rng.sample(others, 2)]
    queries += [("mst8", 0, b) for b in (1, 6, 7)]
    queries += [("mst8", 0, b) for b in rng.sample((2, 3, 4, 5), 3)]
    queries.append(("irrational5", 3, 4))
    graphs["cycle4"] = {"family": "cycle", "n": 4}
    queries.append(("cycle4", 0, 2))
    queries *= PST_FAST_REPEAT
    for n, count in PST_RANDOM.items():
        name = f"random{n}"
        graphs[name] = {"family": "random", "n": n, "seed": rng.randrange(2**32)}
        queries += [(name, a, b) for a, b in _pairs(rng, n, count)]
    ops = [{"argv": ["pst", g, str(a), str(b), "--scan"], "graph": g} for g, a, b in queries]
    # the scan that misses most of its events (counted as failed until fixed)
    ops.append({"argv": ["pst", "k3", "0", "1", "--scan", "--t-max", PST_TMAX_LONG], "graph": "k3"})
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


# mst-autos: graph -> (autos repeats, mst repeats) per round.  One round
# (26-29 s) fills a run, so the four heavy ops run once; the median falls
# among the light ops, 16 samples per class, and the 90th percentile among
# the 25 `mst mst8` ops (see README).
MST_PALEY = {7: (16, 16), 11: (12, 12), 19: (1, 1)}
MST_CYCLES = (4, 5, 6, 7, 8, 9, 10, 12)
MST_CYCLE_REPEAT = (16, 16)
MST_K3 = {1: (16, 16), 2: (16, 25), 3: (1, 1)}
MST_MST8 = (16, 25)


def _mst_autos(seed: int) -> dict:
    rng = _rng("mst-autos", seed)
    graphs: dict[str, dict] = {"mst8": {"family": "builtin"}}
    plan: list[tuple[str, tuple[int, int]]] = []
    for q, reps in MST_PALEY.items():
        graphs[f"paley{q}"] = {"family": "paley", "q": q}
        plan.append((f"paley{q}", reps))
    for n in MST_CYCLES:
        graphs[f"cycle{n}"] = {"family": "cycle", "n": n}
        plan.append((f"cycle{n}", MST_CYCLE_REPEAT))
    for d, reps in MST_K3.items():
        name = "k3" if d == 1 else f"k3pow{d}"
        graphs[name] = {"family": "builtin"} if d == 1 else {"family": "k3pow", "d": d}
        plan.append((name, reps))
    plan.append(("mst8", MST_MST8))
    ops = []
    for name, (r_autos, r_mst) in plan:
        ops += [{"argv": ["autos", name], "graph": name}] * r_autos
        ops += [{"argv": ["mst", name], "graph": name}] * r_mst
    rng.shuffle(ops)
    return {"graphs": graphs, "ops": ops}


def plan(workload: str, seed: int) -> dict:
    """Graphs and the op list of one round of ``workload`` under ``seed``."""
    builders = {"survey": _survey, "pst-scan": _pst_scan, "mst-autos": _mst_autos}
    return builders[workload](seed)


def op_class(op: dict) -> str:
    """Ops of one class cost the same up to noise: the same call on the same graph."""
    if "argv" in op:
        argv = op["argv"]
        return " ".join(argv[:2] + argv[4:] if argv[0] == "pst" else argv)
    return f"{op['kind']} {op['graph']}"
