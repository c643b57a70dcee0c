"""Checks of owalk's outputs against computations made apart from owalk.

Nothing here imports owalk.  Spectra come from scipy's complex Schur form
of the real matrix A (diagonal, since A is normal), propagators from
``scipy.linalg.expm(-t*A)`` or, for k3 and its Cartesian powers, from the
closed form of k3's U(t) and Kronecker products.  Characteristic
polynomials are checked by exact evaluation modulo enough primes to pass
the Hadamard bound, and against x(x^2+q)^((q-1)/2) on Paley tournaments.

Each ``check_*`` function returns the number of expected events the output
misses (0 when complete) and raises :class:`Wrong` on any claim that the
oracle refutes.  The benchmark counts an op with missing events as failed
and an op with a refuted claim as incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.linalg
import sympy

import workloads

SUPPORT_TOL = 1e-6      # ||E_r e_a|| above this is in the support
DECIDE_MARGIN = 1e-6    # a negative verdict needs a discrepancy at least this large
TIME_TOL = 1e-9         # reported transfer times against closed forms
RESIDUAL_TOL = 1e-7     # re-verification of a transfer with the oracle's U(t)
SQRT3 = math.sqrt(3.0)
SIGMA_K3 = 2 * math.pi / SQRT3


class Wrong(Exception):
    """owalk reported a claim that the oracle refutes."""


class Undecided(Exception):
    """The oracle itself cannot decide the case (inputs too close to call)."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def square_free_part(m: int) -> int:
    return math.prod(p for p, e in sympy.factorint(m).items() if e % 2)


def rational_tag(x: float) -> str:
    frac = Fraction(x).limit_denominator(1000)
    return f"{frac.numerator}/{frac.denominator}"


class Graph:
    """Adjacency matrix and spectral data of one benchmark graph."""

    def __init__(self, name: str, spec: dict):
        if spec["family"] == "builtin":
            spec = BUILTIN_SPECS[name]
        self.name, self.spec = name, spec
        self.n, edges = (spec["n"], spec["edges"]) if spec["family"] == "edges" else workloads.graph_edges(spec)
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in edges:
            a[u, v], a[v, u] = 1, -1
        self.a = a

    @cached_property
    def classes(self) -> list[tuple[float, np.ndarray]]:
        """(y_r, Z_r) with A Z_r = i y_r Z_r and orthonormal columns Z_r."""
        t, z = scipy.linalg.schur(self.a.astype(np.complex128), output="complex")
        y = np.diag(t).imag
        order = np.argsort(y)
        out: list[tuple[list[float], list[int]]] = []
        for i in order:
            if out and y[i] - out[-1][0][-1] < 1e-6 * (1 + abs(y[i])):
                out[-1][0].append(y[i])
                out[-1][1].append(i)
            else:
                out.append(([y[i]], [i]))
        result = []
        for ys, cols in out:
            mean = float(np.mean(ys))
            result.append((0.0 if abs(mean) < 1e-9 else mean, z[:, cols]))
        return result

    def row_norm(self, r: int, a: int) -> float:
        return float(np.linalg.norm(self.classes[r][1][a]))

    def entry(self, r: int, b: int, a: int) -> complex:
        """E_r[b, a] = e_b^T E_r e_a."""
        z = self.classes[r][1]
        return complex(z[b] @ z[a].conj())

    def support(self, a: int) -> list[int]:
        out = []
        for r in range(len(self.classes)):
            norm = self.row_norm(r, a)
            if 1e-10 < norm <= SUPPORT_TOL:
                raise Undecided(f"{self.name}: ||E_r e_{a}|| = {norm:.2e} is too close to 0")
            if norm > SUPPORT_TOL:
                out.append(r)
        return out

    def propagator(self, t: float) -> np.ndarray:
        """U(t) = exp(-tA): closed form on k3 powers, scipy expm otherwise."""
        if self.spec["family"] == "k3pow":
            out = np.ones((1, 1))
            for _ in range(self.spec["d"]):
                out = np.kron(k3_propagator(t), out)
            return out
        return scipy.linalg.expm(-t * self.a.astype(np.float64))

    def transfer_residual(self, a: int, b: int, t: float, phase: int) -> float:
        target = np.zeros(self.n)
        target[b] = phase
        return float(np.linalg.norm(self.propagator(t)[:, a] - target))


_K3 = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.float64)


def k3_propagator(t: float) -> np.ndarray:
    """exp(-tA) for k3, from A^3 = -3A."""
    return np.eye(3) - math.sin(SQRT3 * t) / SQRT3 * _K3 + (1 - math.cos(SQRT3 * t)) / 3 * (_K3 @ _K3)


def _mst8_edges():
    edges = [(x, y) for x in (0, 1, 6, 7) for y in (2, 3, 4, 5)]
    return edges + [(6, 0), (0, 7), (7, 1), (1, 6), (4, 2), (2, 5), (5, 3), (3, 4)]


BUILTIN_SPECS = {
    "k3": {"family": "k3pow", "d": 1},
    "irrational5": {
        "family": "edges",
        "n": 5,
        "edges": [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    },
    "mst8": {"family": "edges", "n": 8, "edges": _mst8_edges()},
}


# --- periodicity and cospectrality -------------------------------------------


def periodicity(g: Graph, a: int) -> dict:
    """Expected certificate (or the evidence against periodicity) of vertex a."""
    support = g.support(a)
    ys = [g.classes[r][0] for r in support]
    nonzero = [y for y in ys if y != 0.0]
    squares = [y * y for y in nonzero]
    for sq in squares:
        if abs(sq - round(sq)) >= 1e-3:
            return {"periodic": False, "support_y": ys, "evidence": f"y^2 = {sq!r} is not an integer"}
        if abs(sq - round(sq)) > 1e-8:
            raise Undecided(f"{g.name}: y^2 = {sq!r} is neither clearly integral nor not")
    ints = [round(sq) for sq in squares]
    parts = {square_free_part(c) for c in ints}
    if len(parts) > 1:
        return {"periodic": False, "support_y": ys, "evidence": f"square-free parts {sorted(parts)}"}
    delta = parts.pop()
    bs = [math.isqrt(c // delta) for c in ints]
    gcd = math.gcd(*bs)
    zero_in = len(nonzero) < len(ys)
    phase = -1 if not zero_in and all((b // gcd) % 2 for b in bs) else 1
    sigma = (math.pi if phase == -1 else 2 * math.pi) / (gcd * math.sqrt(delta))
    return {
        "periodic": True,
        "support_y": ys,
        "delta": delta,
        "b": list(zip(nonzero, bs)),
        "g": gcd,
        "phase": phase,
        "sigma": sigma,
        "zero_in_support": zero_in,
    }


def cospectrality(g: Graph, a: int, b: int) -> dict:
    """Strong cospectrality of a and b with quarrels, or the evidence against it."""
    sa, sb = g.support(a), g.support(b)
    if sa != sb:
        return {"strongly_cospectral": False, "evidence": "supports differ"}
    quarrels = []
    for r in sa:
        y = g.classes[r][0]
        na, nb = g.row_norm(r, a), g.row_norm(r, b)
        inner = g.entry(r, b, a)
        gap = max(abs(na - nb), na * nb - abs(inner))
        if gap >= DECIDE_MARGIN:
            return {
                "strongly_cospectral": False,
                "evidence": f"y = {y:.6g}: |E e_a| = {na:.6g}, |E e_b| = {nb:.6g}, |E[b,a]| = {abs(inner):.6g}",
            }
        if gap > 1e-9:
            raise Undecided(f"{g.name}: cospectrality of {a}, {b} is too close to call")
        q = math.atan2(inner.imag, inner.real) / math.pi
        quarrels.append((y, q + 2 if q <= -1 else q))
    return {"strongly_cospectral": True, "quarrels": quarrels}


def _same_y(ys1, ys2) -> bool:
    return len(ys1) == len(ys2) and all(abs(p - q) <= 1e-6 * (1 + abs(q)) for p, q in zip(ys1, ys2))


def check_verdict(g: Graph, vertex: int, out: dict) -> int:
    exp = periodicity(g, vertex)
    where = f"{g.name} vertex {vertex}"
    _expect(_same_y(out["support_y"], exp["support_y"]), f"{where}: support {out['support_y']} != {exp['support_y']}")
    _expect(out["periodic"] == exp["periodic"], f"{where}: periodic = {out['periodic']}, oracle: {exp}")
    family = g.spec["family"]
    if family == "cycle":
        _expect(out["periodic"] == (g.n in (3, 4, 6)), f"{where}: Niven's theorem contradicts the verdict")
    if not exp["periodic"]:
        return 0
    if family == "paley":
        q = g.n
        _expect(
            (out["delta"], out["g"], out["phase"], out["zero_in_support"]) == (q, 1, 1, True)
            and all(b == 1 for _, b in out["b"])
            and abs(out["sigma"] - 2 * math.pi / math.sqrt(q)) <= 1e-12 * q,
            f"{where}: certificate {out} is not the Paley one",
        )
    for key in ("delta", "g", "phase", "zero_in_support"):
        _expect(out[key] == exp[key], f"{where}: {key} = {out[key]}, expected {exp[key]}")
    _expect(_same_y([y for y, _ in out["b"]], [y for y, _ in exp["b"]]), f"{where}: b_r indices differ")
    _expect([b for _, b in out["b"]] == [b for _, b in exp["b"]], f"{where}: b_r = {out['b']}, expected {exp['b']}")
    _expect(abs(out["sigma"] - exp["sigma"]) <= 1e-9 * exp["sigma"], f"{where}: sigma = {out['sigma']}")
    _expect(out["verified"], f"{where}: verify_period rejected its own certificate")
    sigma, phase = exp["sigma"], exp["phase"]
    _expect(g.transfer_residual(vertex, vertex, sigma, phase) < RESIDUAL_TOL, f"{where}: U(sigma) e_a != phase e_a")
    for k in (2, 3):
        col = g.propagator(sigma / k)[:, vertex]
        _expect(1 - abs(col[vertex]) > 1e-3, f"{where}: returns already at sigma/{k}")
    return 0


def check_cospectral(g: Graph, a: int, b: int, out: dict) -> int:
    exp = cospectrality(g, a, b)
    where = f"{g.name} pair ({a}, {b})"
    _expect(out["strongly_cospectral"] == exp["strongly_cospectral"], f"{where}: verdict {out}, oracle {exp}")
    if g.spec["family"] == "paley":
        q = g.n
        for r, (y, _) in enumerate(g.classes):
            if y != 0.0:  # |E[a,b]| = sqrt(q+1)/(2q) < (q-1)/(2q) = E[a,a]
                _expect(abs(abs(g.entry(r, b, a)) - math.sqrt(q + 1) / (2 * q)) < 1e-9, f"{where}: Paley |E[a,b]|")
                _expect(abs(g.row_norm(r, a) ** 2 - (q - 1) / (2 * q)) < 1e-9, f"{where}: Paley E[a,a]")
        _expect(not out["strongly_cospectral"], f"{where}: Paley pairs are never strongly cospectral")
    if exp["strongly_cospectral"]:
        _expect(_same_y([y for y, _ in out["quarrels"]], [y for y, _ in exp["quarrels"]]), f"{where}: quarrel indices")
        for (_, q1), (_, q2) in zip(out["quarrels"], exp["quarrels"]):
            diff = (q1 - q2) % 2
            _expect(min(diff, 2 - diff) < 1e-6, f"{where}: quarrel {q1} != {q2} (mod 2)")
    return 0


def check_support(g: Graph, vertex: int, out: dict) -> int:
    ys = [g.classes[r][0] for r in g.support(vertex)]
    _expect(_same_y(out["support_y"], ys), f"{g.name} vertex {vertex}: support differs from the oracle's")
    return 0


# --- characteristic polynomial -----------------------------------------------


def _det_mod(m: np.ndarray, p: int) -> int:
    m = m % p
    n = m.shape[0]
    det = 1
    for k in range(n):
        rows = np.nonzero(m[k:, k])[0]
        if rows.size == 0:
            return 0
        piv = k + int(rows[0])
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
            det = -det
        det = det * int(m[k, k]) % p
        inv = pow(int(m[k, k]), -1, p)
        f = (m[k + 1 :, k] * inv) % p
        m[k + 1 :, k:] = (m[k + 1 :, k:] - np.outer(f, m[k, k:]) % p) % p
    return det % p


def coefficient_bound(n: int) -> int:
    """|coefficient of det(xI - A)| for entries in {-1, 0, 1}: C(n,k) * k^(k/2) (Hadamard)."""
    return max(math.comb(n, k) * (math.isqrt(k**k) + 1) for k in range(n + 1))


def check_char_poly(g: Graph, out: dict) -> int:
    coeffs = [int(c) for c in out["coeffs"]]
    n = g.n
    where = f"{g.name} char_poly"
    _expect(len(coeffs) == n + 1 and coeffs[-1] == 1, f"{where}: not monic of degree {n}")
    bound = coefficient_bound(n)
    _expect(all(abs(c) <= bound for c in coeffs), f"{where}: a coefficient exceeds the Hadamard bound")
    if g.spec["family"] == "paley":
        q, h = n, (n - 1) // 2  # x (x^2 + q)^h
        expected = [0] * (n + 1)
        for k in range(h + 1):
            expected[2 * k + 1] = math.comb(h, k) * q ** (h - k)
        _expect(coeffs == expected, f"{where}: differs from x(x^2+q)^((q-1)/2)")
    modulus, p = 1, 2**31
    while modulus <= 2 * bound:
        p = int(sympy.prevprime(p))
        modulus *= p
        for x in range(n + 1):
            det = _det_mod(x * np.eye(n, dtype=np.int64) - g.a, p)
            value = sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p
            _expect(value == det, f"{where}: det(xI - A) differs at x = {x} mod {p}")
    return 0


# --- automorphisms --------------------------------------------------------------


def monomial(perm, signs) -> np.ndarray:
    n = len(perm)
    m = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        m[perm[u], u] = signs[perm[u]]
    return m


def closed_order(perm, signs) -> int:
    """lcm over cycles of the cycle length, doubled where the signs multiply to -1."""
    seen, order = set(), 1
    for start in range(len(perm)):
        if start in seen:
            continue
        length, sign, u = 0, 1, start
        while u not in seen:
            seen.add(u)
            u = perm[u]
            sign *= signs[u]
            length += 1
        order = math.lcm(order, length if sign == 1 else 2 * length)
    return order


def brute_force_count(g: Graph) -> int:
    """Switching automorphisms other than +I, by trying every permutation (n <= 8)."""
    mag = np.abs(g.a)
    count = 0
    for perm in itertools.permutations(range(g.n)):
        p = list(perm)
        if not np.array_equal(mag[np.ix_(p, p)], mag):
            continue
        # sign of image vertex perm[u] is forced along edges from perm[0]'s sign
        signs = [0] * g.n
        signs[perm[0]] = 1
        stack, ok = [0], True
        while stack and ok:
            u = stack.pop()
            for v in np.nonzero(g.a[u])[0]:
                s = signs[perm[u]] * g.a[perm[u], perm[v]] * g.a[u, v]
                if signs[perm[v]] == 0:
                    signs[perm[v]] = int(s)
                    stack.append(int(v))
                elif signs[perm[v]] != s:
                    ok = False
                    break
        count += 2 if ok else 0
    return count - 1


def expected_auto_count(g: Graph) -> int:
    family, n = g.spec["family"], g.n
    if family == "paley":
        return n * (n - 1) - 1
    if family == "cycle":
        return 2 * n - 1 if n % 2 else 4 * n - 1
    if family == "k3pow":
        d = g.spec["d"]
        return 2 * 3**d * math.factorial(d) - 1
    return brute_force_count(g)


def _check_automorphism(g: Graph, auto: dict, where: str) -> None:
    perm, signs = auto["perm"], auto["signs"]
    _expect(sorted(perm) == list(range(g.n)) and all(s in (-1, 1) for s in signs), f"{where}: malformed {auto}")
    p = monomial(perm, signs)
    _expect(np.array_equal(p.T @ g.a @ p, g.a), f"{where}: P^T A P != A for {auto}")
    _expect(auto["order"] == closed_order(perm, signs), f"{where}: order {auto['order']} of {auto}")


def check_autos(g: Graph, report: dict) -> int:
    autos = report["automorphisms"]
    where = f"{g.name} autos"
    for auto in autos:
        _check_automorphism(g, auto, where)
    keys = {(tuple(a["perm"]), tuple(a["signs"])) for a in autos}
    _expect(len(keys) == len(autos), f"{where}: repeated automorphisms")
    _expect((tuple(range(g.n)), (1,) * g.n) not in keys, f"{where}: lists the identity")
    expected = expected_auto_count(g)
    _expect(len(autos) == expected, f"{where}: {len(autos)} automorphisms, expected {expected}")
    return 0


# --- transfers -------------------------------------------------------------------


def expected_transfers(g: Graph, a: int, b: int) -> tuple[float, float, float] | None:
    """(first PST time a -> b, its recurrence, period of a), or None when there is none."""
    family = g.spec["family"]
    if family == "k3pow":
        d = g.spec["d"]
        for c in (1, 2):
            if b == workloads.k3_power_shift(a, c, d):
                return c * SIGMA_K3 / 3, SIGMA_K3, SIGMA_K3
        return None
    if g.name == "mst8" and a == 0:
        first = {6: math.pi / 4, 1: math.pi / 2, 7: 3 * math.pi / 4}.get(b)
        return None if first is None else (first, math.pi, math.pi)
    if g.name == "irrational5" and (a, b) == (3, 4):
        root7 = math.sqrt(7.0)
        return (math.pi + math.acos(0.75)) / root7, 2 * math.pi / root7, 2 * math.pi / root7
    if family == "cycle" and g.n == 4 and (b - a) % 4 == 2:
        return math.pi / 2, math.pi, math.pi
    if family == "random":
        verdict = cospectrality(g, a, b)
        if verdict["strongly_cospectral"]:
            raise Undecided(f"{g.name}: random pair ({a}, {b}) is strongly cospectral")
        return None  # not strongly cospectral, so no PST
    raise Undecided(f"no closed form for transfers {a} -> {b} on {g.name}")


def check_pst(g: Graph, a: int, b: int, t_max: float, report: dict) -> int:
    """Every reported event must be a PST time; returns how many expected events are missing."""
    where = f"{g.name} pst {a} -> {b}"
    form = expected_transfers(g, a, b)
    expected = []
    if form is not None:
        first, step, sigma = form
        t = first
        while t <= t_max:
            expected.append(t)
            t = first + len(expected) * step
    transfers = report["transfers"]
    found = 0
    last = 0.0
    for event in transfers:
        t = event["time"]
        _expect((event["source"], event["target"]) == (a, b), f"{where}: event for another pair")
        _expect(t > last, f"{where}: events out of order or repeated at t = {t!r}")
        last = t
        _expect(form is not None, f"{where}: reports PST at t = {t!r} where there is none")
        k = round((t - first) / step)
        _expect(k >= 0 and abs(t - (first + k * step)) <= TIME_TOL + 1e-13 * t, f"{where}: t = {t!r} is not a PST time")
        _expect(
            g.transfer_residual(a, b, t, event["phase"]) < RESIDUAL_TOL,
            f"{where}: U(t) e_a != {event['phase']} e_b at t = {t!r}",
        )
        _expect(event["sigma"] is not None and abs(event["sigma"] - sigma) <= 1e-9 * sigma, f"{where}: sigma field")
        tag = None if g.name == "irrational5" else rational_tag(t / sigma)
        _expect(event["sigma_multiple"] == tag, f"{where}: sigma_multiple {event['sigma_multiple']!r} != {tag!r}")
        if t <= t_max:
            found += 1
    return len(expected) - found


def check_mst(g: Graph, report: dict) -> int:
    family, where = g.spec["family"], f"{g.name} mst"
    if family == "k3pow":
        d = g.spec["d"]
        orbits = {frozenset(workloads.k3_power_shift(v, c, d) for c in range(3)) for v in range(3**d)}
        base = SIGMA_K3 / 3
    elif g.name == "mst8":
        orbits, base = {frozenset((0, 1, 6, 7)), frozenset((2, 3, 4, 5))}, math.pi / 4
    elif family == "paley":
        # no pair is strongly cospectral (q > 3), so there is no PST at all
        check_cospectral(g, 0, 1, {"strongly_cospectral": False})
        orbits, base = set(), None
    elif family == "cycle":
        # PST from a needs a periodic and strongly cospectral with the target,
        # and an MST set of >= 3 vertices needs two such targets (cycles are
        # vertex-transitive, so vertex 0 speaks for all)
        if periodicity(g, 0)["periodic"]:
            partners = [v for v in range(1, g.n) if cospectrality(g, 0, v)["strongly_cospectral"]]
            if len(partners) >= 2:
                raise Undecided(f"{where}: vertex 0 has strongly cospectral partners {partners}")
        orbits, base = set(), None
    else:
        raise Undecided(f"no MST oracle for {g.name}")
    certs = report["mst"]
    _expect({frozenset(c["orbit"]) for c in certs} == orbits and len(certs) == len(orbits), f"{where}: orbits differ")
    for cert in certs:
        orbit, k = cert["orbit"], len(cert["orbit"])
        _expect(abs(cert["base_time"] - base) <= TIME_TOL, f"{where}: base time {cert['base_time']!r}")
        auto = cert["automorphism"]
        _check_automorphism(g, auto, where)
        _expect(all(auto["perm"][orbit[i]] == orbit[(i + 1) % k] for i in range(k)), f"{where}: orbit of {auto}")
        pairs = {(p["i"], p["j"]) for p in cert["pairs"]}
        _expect(pairs == {(i, j) for i in range(k) for j in range(k) if i != j}, f"{where}: pairs of {orbit}")
        for p in cert["pairs"]:
            _expect(abs(p["time"] - p["steps"] * base) <= TIME_TOL, f"{where}: pair time {p}")
            _expect(
                g.transfer_residual(p["source"], p["target"], p["time"], p["phase"]) < RESIDUAL_TOL,
                f"{where}: pair {p['source']} -> {p['target']} fails U(t)",
            )
    return 0


# --- dispatch ----------------------------------------------------------------------


def check_op(graph: Graph, op: dict, output: dict) -> int:
    """Missing events of one op's output; raises Wrong on a refuted claim."""
    if "argv" not in op:
        kind = op["kind"]
        if kind == "verdict":
            return check_verdict(graph, op["vertex"], output)
        if kind == "cospectral":
            return check_cospectral(graph, op["a"], op["b"], output)
        if kind == "char_poly":
            return check_char_poly(graph, output)
        return check_support(graph, op["vertex"], output)
    try:
        report = json.loads(output["stdout"])
    except json.JSONDecodeError as exc:
        raise Wrong(f"{' '.join(op['argv'])}: stdout is not JSON ({exc})") from None
    argv = op["argv"]
    if argv[0] == "pst":
        t_max = float(argv[argv.index("--t-max") + 1]) if "--t-max" in argv else 20.0
        return check_pst(graph, int(argv[2]), int(argv[3]), t_max, report)
    if argv[0] == "autos":
        return check_autos(graph, report)
    return check_mst(graph, report)


def expected_events(graph: Graph, op: dict) -> int:
    """PST events in (0, t_max] that a pst op should report."""
    argv = op.get("argv", ())
    if not argv or argv[0] != "pst":
        return 0
    form = expected_transfers(graph, int(argv[2]), int(argv[3]))
    if form is None:
        return 0
    t_max = float(argv[argv.index("--t-max") + 1]) if "--t-max" in argv else 20.0
    first, step, _ = form
    return math.floor((t_max - first) / step) + 1 if first <= t_max else 0
