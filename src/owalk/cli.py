"""Command line front end.

Subcommands: spectrum, support, cospectral, periodic, pst, mst, autos,
evolve, example.  Reports go to stdout as aligned text, or as JSON with
--json.  Exit codes: 0 success, 1 analysis-negative result under
--strict, 2 usage or input errors, 3 internal inconsistencies.

JSON is emitted by a deterministic serializer (fixed key order, floats
with 17 significant digits), so identical inputs produce byte-identical
output.  A handler checks everything it reports before main writes a
byte, and hands its long sections over as lazy rows: main writes each
row as it formats it, so a report costs one row beyond its certificates.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .arithmetic import IntPolynomial
from .autos import find_switching_automorphisms
from .cospectral import eigenvalue_support, strong_cospectrality
from .errors import (
    GraphParseError,
    InputError,
    OwalkError,
    UnknownExampleError,
    VerificationFailedError,
)
from .graph import BUILTIN_NAMES, OrientedGraph, builtin_example, parse_graph, serialize_graph
from .periodicity import is_periodic, verify_period
from .spectral import DEFAULT_GROUPING_TOL, decompose, propagator_column
from .transfer import DEFAULT_PST_TOL, DEFAULT_SCAN_TMAX, mst_search, scan_pst, verify_pst

__all__ = ["main"]

RATIONAL_DENOMINATOR_LIMIT = 10**6


# --- deterministic JSON ---------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise VerificationFailedError("report contains a non-finite number")
    return "%.17g" % x


_SCALAR_FORMAT = {
    float: _format_float,
    int: str,
    str: _json_str,  # what json.dumps returns for a str
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    fmt = _SCALAR_FORMAT.get(type(obj))
    if fmt:
        return fmt(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # a list of plain scalars in one pass
            return "[" + ", ".join([_SCALAR_FORMAT[type(v)](v) for v in obj]) + "]"
        except KeyError:
            pass
        body = ",\n".join(
            "  " * (indent + 1) + _emit_json(v, indent + 1) for v in obj
        )
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot serialize non-string key {key!r} into the report")
            items.append(
                "  " * (indent + 1) + _json_str(key) + ": " + _emit_json(value, indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into the report")


def _write_json(write, obj, indent: int = 0) -> None:
    """Write ``_emit_json(obj, indent)``: a dict one value at a time, an iterator (a list
    of lists or dicts) one ``_emit_json`` item at a time."""
    pad = "  " * (indent + 1)
    if isinstance(obj, dict) and obj:
        sep = "{\n"
        for key, value in obj.items():
            write(sep + pad + _json_str(key) + ": ")
            _write_json(write, value, indent + 1)
            sep = ",\n"
        write("\n" + "  " * indent + "}")
    elif isinstance(obj, Iterator):
        sep = "[\n"
        for item in obj:
            write(sep + pad + _emit_json(item, indent + 1))
            sep = ",\n"
        write("[]" if sep == "[\n" else "\n" + "  " * indent + "]")
    else:
        write(_emit_json(obj, indent))


# --- shared report helpers ------------------------------------------------


def _sigma_multiple(t: float, sigma: float) -> Fraction | None:
    """Rational p/q with t = (p/q)*sigma, or None.

    Accepts p/q when |t/sigma - p/q| <= 1e-8/q^2 with q at most
    RATIONAL_DENOMINATOR_LIMIT, which a continued-fraction coincidence for
    an irrational ratio cannot meet, and p = 0 only for t = 0, so a negative
    time gets its negative fraction.  By Legendre's theorem such a p/q is
    a convergent of t/sigma, and the closest fraction with q in range, so
    the walk over the convergents stops at the first that passes.  With
    x' the next complete quotient, t/sigma - p/q = +-1/(q*(q*x' + q_prev)),
    so the gate is an integer comparison.
    """
    (a, b), (c, d) = t.as_integer_ratio(), sigma.as_integer_ratio()
    num, den = a * d, b * c  # t/sigma = num/den, den > 0
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while True:
        quotient, rest = divmod(num, den)
        p_prev, q_prev, p, q = p, q, quotient * p + p_prev, quotient * q + q_prev
        if q > RATIONAL_DENOMINATOR_LIMIT:
            return None
        num, den = den, rest  # x' = num/den, infinite once den is 0
        if 10**8 * q * den <= q * num + q_prev * den:
            return Fraction(p, q) if p or not t else None


def _sigma_note(tag: str | None, sigma: float | None) -> str:
    """Human note relating a time, tag*sigma, to the period sigma of its source."""
    if sigma is None:
        return "(source vertex is not periodic)"
    if tag is None:
        return (
            f"not a rational multiple of sigma = {sigma!r} "
            f"(denominators up to 10^{round(math.log10(RATIONAL_DENOMINATOR_LIMIT))} fail)"
        )
    return f"= ({tag})*sigma, sigma = {sigma!r}"


def _poly_str(p: IntPolynomial) -> str:
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def _graph_section(name: str, g: OrientedGraph) -> dict:
    return {"name": name, "n": g.n, "edges": ([u, v] for u, v in g.edges)}


def _load_graph(arg: str) -> tuple[OrientedGraph, str]:
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"cannot read graph file {arg!r}: {exc}") from None
        return parse_graph(text), arg
    if arg in BUILTIN_NAMES:
        return builtin_example(arg), arg
    raise UnknownExampleError(
        f"{arg!r} is neither a graph file nor a builtin example "
        f"(builtins: {', '.join(BUILTIN_NAMES)})"
    )


# --- subcommand handlers --------------------------------------------------
#
# Each handler fills report[<section>], appends text lines, and returns
# whether the analysis came back positive (negative + --strict exits 1).
# A long section is an iterator of rows and its text an iterable of lines,
# formatted as main writes them, after every check has passed.


def _cmd_spectrum(args, g, report, lines) -> bool:
    sd = decompose(g)
    poly = sd.char_poly
    report["spectrum"] = {
        "char_poly_coeffs_low_to_high": list(poly.coeffs),
        "eigenvalues": [
            {"y": float(y), "multiplicity": m}
            for y, m in zip(sd.eigenvalues, sd.multiplicities)
        ],
    }
    lines.append(f"characteristic polynomial: {_poly_str(poly)}")
    lines.append("distinct eigenvalues theta_r = i*y_r:")
    for r, (y, m) in enumerate(zip(sd.eigenvalues, sd.multiplicities)):
        lines.append(f"  r={r}  y={float(y)!r}  multiplicity={m}")
    return True


def _cmd_support(args, g, report, lines) -> bool:
    sd = decompose(g)
    sup = eigenvalue_support(sd, args.vertex)
    report["supports"] = [
        {
            "vertex": args.vertex,
            "indices": list(sup.members),
            "eigenvalues": [float(sd.eigenvalues[r]) for r in sup.members],
            "threshold": float(sup.threshold),
        }
    ]
    lines.append(
        f"vertex {args.vertex} support: {len(sup.members)} of "
        f"{len(sd.eigenvalues)} eigenvalue classes"
    )
    for r in sup.members:
        lines.append(f"  r={r}  y={float(sd.eigenvalues[r])!r}")
    return True


def _cmd_cospectral(args, g, report, lines) -> bool:
    sd = decompose(g)
    cert = strong_cospectrality(sd, args.a, args.b, tol=args.eff_tol)
    section = {"a": args.a, "b": args.b, "strongly_cospectral": cert is not None}
    if cert is None:
        lines.append(f"vertices {args.a} and {args.b} are NOT strongly cospectral")
        report["cospectrality"] = section
        return False
    section["residual"] = float(cert.residual)
    section["quarrels"] = [
        {"index": r, "y": float(sd.eigenvalues[r]), "q": float(cert.quarrels[r])}
        for r in cert.support
    ]
    report["cospectrality"] = section
    lines.append(
        f"vertices {args.a} and {args.b} are strongly cospectral "
        f"(residual {cert.residual:.2e})"
    )
    lines.append("quarrels q_r with alpha_r = e^(i*pi*q_r):")
    for r in cert.support:
        lines.append(f"  r={r}  y={float(sd.eigenvalues[r])!r}  q={cert.quarrels[r]!r}")
    return True


def _cmd_periodic(args, g, report, lines) -> bool:
    sd = decompose(g)
    cert = is_periodic(sd, eigenvalue_support(sd, args.vertex))
    if cert is None:
        report["periodicity"] = [{"vertex": args.vertex, "periodic": False}]
        lines.append(f"vertex {args.vertex} is not periodic")
        return False
    if not verify_period(sd, cert):
        raise VerificationFailedError(
            f"periodicity certificate for vertex {args.vertex} failed the "
            f"numeric period check"
        )
    report["periodicity"] = [
        {
            "vertex": cert.vertex,
            "periodic": True,
            "delta": cert.delta,
            "b_coeffs": [
                {"index": r, "y": float(sd.eigenvalues[r]), "b": b}
                for r, b in sorted(cert.b_coeffs.items())
            ],
            "g": cert.g,
            "phase": cert.phase,
            "sigma": float(cert.sigma),
            "zero_in_support": cert.zero_in_support,
        }
    ]
    sigma_formula = "pi" if cert.phase == -1 else "2*pi"
    lines.append(f"vertex {cert.vertex} is periodic (verified numerically)")
    lines.append(f"  Delta = {cert.delta}")
    for r, b in sorted(cert.b_coeffs.items()):
        lines.append(f"  b[r={r}] = {b}  (y = {float(sd.eigenvalues[r])!r})")
    lines.append(f"  g = {cert.g}")
    lines.append(f"  phase = {cert.phase:+d}")
    lines.append(
        f"  sigma = {float(cert.sigma)!r}  "
        f"( = {sigma_formula}/({cert.g}*sqrt({cert.delta})) )"
    )
    lines.append(f"  zero in support: {'yes' if cert.zero_in_support else 'no'}")
    return True


def _cmd_pst(args, g, report, lines) -> bool:
    sd = decompose(g)
    if args.time is not None:
        cert = verify_pst(sd, args.a, args.b, args.time, tol=args.eff_tol)
        certs = [] if cert is None else [cert]
        period = is_periodic(sd, eigenvalue_support(sd, args.a)) if certs else None
    else:
        t_max = DEFAULT_SCAN_TMAX if args.t_max is None else args.t_max
        certs = scan_pst(sd, args.a, args.b, t_max=t_max, tol=args.eff_tol)
        period = certs.period
    sigma = None if period is None or not certs else period.sigma
    # the events are t_1 + m*sigma (transfer module), so for t_1 = (p/q)*sigma event m is
    # (p + m*q)/q, in lowest terms since gcd(p + m*q, q) = gcd(p, q) = 1
    first = None if sigma is None else _sigma_multiple(certs[0].time, sigma)
    p, q = (0, 1) if first is None else (first.numerator, first.denominator)
    # one lazy pass, walked by whichever of the report and the text is written
    tagged = ((c, None if first is None else f"{p + m * q}/{q}") for m, c in enumerate(certs))
    report["transfers"] = (
        {"source": c.source, "target": c.target, "time": float(c.time), "phase": c.phase,
         "residual": float(c.residual), "method": c.method, "sigma": sigma, "sigma_multiple": tag}
        for c, tag in tagged
    )
    lines.append(
        f"PST {c.source} -> {c.target} at t = {float(c.time)!r} (phase {c.phase:+d}, "
        f"residual {float(c.residual):.2e}, {c.method})\n  t {_sigma_note(tag, sigma)}"
        for c, tag in tagged
    )
    if not certs:
        if args.time is not None:
            lines.append(
                f"no perfect state transfer {args.a} -> {args.b} at t = {args.time!r}"
            )
        else:
            lines.append(
                f"no perfect state transfer {args.a} -> {args.b} "
                f"for t in (0, {float(t_max)!r}]"
            )
        return False
    return True


def _cmd_mst(args, g, report, lines) -> bool:
    sd = decompose(g)
    certs = mst_search(sd, vertex=args.vertex, tol=args.eff_tol)
    section = []
    for cert in certs:
        k = len(cert.orbit)
        sigma = cert.base_time * k
        pairs = [
            {
                "i": i,
                "j": j,
                "source": pair.source,
                "target": pair.target,
                "time": float(pair.time),
                "steps": round(pair.time / cert.base_time),
                "phase": pair.phase,
                "residual": float(pair.residual),
            }
            for (i, j), pair in sorted(cert.pairs.items())
        ]
        section.append(
            {
                "orbit": list(cert.orbit),
                "base_time": float(cert.base_time),
                "m": cert.m,
                "sigma": float(sigma),
                "automorphism": {
                    "perm": list(cert.automorphism.perm),
                    "signs": list(cert.automorphism.signs),
                    "order": cert.automorphism.order,
                },
                "pairs": pairs,
            }
        )
        lines.append(
            f"MST on orbit {cert.orbit}: {len(pairs)} verified ordered pairs"
        )
        lines.append(
            f"  base time {float(cert.base_time)!r} = (1/{k})*sigma, "
            f"sigma = {float(sigma)!r}, m = {cert.m}"
        )
        lines.append(
            f"  automorphism perm={list(cert.automorphism.perm)} "
            f"signs={list(cert.automorphism.signs)}"
        )
        if not args.json:
            for row in pairs:
                frac = Fraction(row["steps"], k)
                lines.append(
                    f"  {row['source']} -> {row['target']}  "
                    f"t = {row['time']!r} = ({frac})*sigma  "
                    f"phase {row['phase']:+d}  residual {row['residual']:.2e}"
                )
    report["mst"] = section
    if not certs:
        lines.append("no multiple state transfer orbit found")
        return False
    return True


def _cmd_autos(args, g, report, lines) -> bool:
    autos = find_switching_automorphisms(g)
    report["automorphisms"] = (
        {"perm": list(p.perm), "signs": list(p.signs), "order": p.order} for p in autos
    )
    lines.append(f"found {len(autos)} switching automorphisms")
    lines.append(f"  perm={list(p.perm)} signs={list(p.signs)} order={p.order}" for p in autos)
    return bool(autos)


def _cmd_evolve(args, g, report, lines) -> bool:
    sd = decompose(g)
    times = np.linspace(0.0, args.t_max, args.steps)
    cols = propagator_column(sd, args.source, times[:, None])
    table = np.column_stack([times, (cols.conjugate() * cols).real.T])
    for t, *probs in map(np.ndarray.tolist, table):
        if not abs((total := math.fsum(probs)) - 1.0) <= 1e-9:
            raise VerificationFailedError(f"probabilities at t = {t!r} sum to {total!r}, not 1")
    report["evolution"] = {
        "source": args.source,
        "t_max": float(args.t_max),
        "steps": args.steps,
        "columns": ["t"] + [f"p_{i}" for i in range(g.n)],
        "rows": map(np.ndarray.tolist, table),
    }
    lines.append(",".join(["t"] + [f"p_{i}" for i in range(g.n)]))
    lines.append(",".join(map(_format_float, row)) for row in map(np.ndarray.tolist, table))
    return True


def _cmd_example(args, report, lines) -> bool:
    g = builtin_example(args.name)
    text = serialize_graph(g)
    report["graph"] = _graph_section(args.name, g)
    report["graph_text"] = text
    lines.append(text.rstrip("\n"))
    return True


# --- argument parsing and dispatch ----------------------------------------


_GRAPH = ("graph", {"help": "graph file path or builtin example name"})
_VERTEX, _A, _B = ("vertex", {"type": int}), ("a", {"type": int}), ("b", {"type": int})
_COMMON = [
    ("--json", {"action": "store_true", "default": False, "help": "emit a JSON report"}),
    ("--strict", {"action": "store_true", "default": False,
                  "help": "exit 1 when the analysis comes back negative"}),
    ("--tol", {"type": float, "default": None, "metavar": "X",
               "help": f"verification tolerance (default {DEFAULT_PST_TOL})"}),
]

# Every subcommand once: its help, positionals, options (after the common
# ones) as add_argument keywords, at most one group of exclusive options,
# and the handler that runs it.
_COMMANDS = {
    "spectrum": {"help": "eigenvalues and idempotent ranks", "args": [_GRAPH],
                 "run": _cmd_spectrum},
    "support": {"help": "eigenvalue support of a vertex", "args": [_GRAPH, _VERTEX],
                "run": _cmd_support},
    "cospectral": {"help": "strong cospectrality certificate for a vertex pair",
                   "args": [_GRAPH, _A, _B], "run": _cmd_cospectral},
    "periodic": {"help": "periodicity certificate of a vertex", "args": [_GRAPH, _VERTEX],
                 "run": _cmd_periodic},
    "pst": {
        "help": "perfect state transfer between two vertices",
        "args": [_GRAPH, _A, _B],
        "options": [
            ("--time", {"type": float, "default": None, "help": "verify one time"}),
            ("--scan", {"action": "store_true", "default": False,
                        "help": "scan (0, t_max] for transfers (default)"}),
            ("--t-max", {"type": float, "default": None, "help": "scan horizon"}),
        ],
        "exclusive": ("--time", "--scan"),
        "run": _cmd_pst,
    },
    "mst": {
        "help": "multiple state transfer search over automorphism orbits",
        "args": [_GRAPH],
        "options": [("--vertex", {"type": int, "default": None,
                                  "help": "restrict start vertex"})],
        "run": _cmd_mst,
    },
    "autos": {"help": "enumerate switching automorphisms", "args": [_GRAPH],
              "run": _cmd_autos},
    "evolve": {
        "help": "emit vertex probabilities over time",
        "args": [_GRAPH],
        "options": [
            ("--source", {"type": int, "required": True}),
            ("--t-max", {"type": float, "required": True}),
            ("--steps", {"type": int, "required": True}),
        ],
        "run": _cmd_evolve,
    },
    "example": {
        "help": "print a builtin example graph file",
        "args": [("name", {"help": f"one of: {', '.join(BUILTIN_NAMES)}"})],
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="owalk",
        description="continuous quantum walks on oriented graphs: "
        "periodicity, strong cospectrality, perfect and multiple state transfer",
    )
    parser.add_argument("--version", action="version", version=f"owalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec["help"])
        for flag, kwargs in _COMMON:
            p.add_argument(flag, **kwargs)
        for name, kwargs in spec["args"]:
            p.add_argument(name, **kwargs)
        exclusive = spec.get("exclusive", ())
        group = p.add_mutually_exclusive_group() if exclusive else None
        for flag, kwargs in spec.get("options", []):
            (group if flag in exclusive else p).add_argument(flag, **kwargs)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives for argv, or None outside the plain grammar.

    Plain: the subcommand, then its positionals and full option names in any
    order, each option value the next token.  Help, --version, abbreviations,
    --flag=value, negative numbers, bad values and missing or extra arguments
    give None, and argparse answers them.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options = dict(_COMMON + spec.get("options", []))
    values = {"command": argv[0]}
    for flag, kwargs in options.items():
        values[flag[2:].replace("-", "_")] = kwargs.get("default")
    seen, filled = set(), 0
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if filled == len(spec["args"]):
                return None
            name, kwargs = spec["args"][filled]
            filled += 1
        elif token in options:
            kwargs = options[token]
            name = token[2:].replace("-", "_")
            seen.add(token)
            if "action" in kwargs:
                values[name] = True
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            return None
        try:
            values[name] = kwargs.get("type", str)(token)
        except ValueError:
            return None
    required = {flag for flag, kwargs in options.items() if kwargs.get("required")}
    exclusive = seen.intersection(spec.get("exclusive", ()))
    if filled < len(spec["args"]) or not required <= seen or len(exclusive) > 1:
        return None
    return argparse.Namespace(**values)


def _check_options(args) -> None:
    """Reject option values under which a verdict would mean nothing."""
    for flag in ("tol", "t_max", "time"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        name = "--" + flag.replace("_", "-")
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")
        if flag != "time" and value <= 0:
            raise InputError(f"{name} must be > 0, got {value!r}")
        if flag == "tol" and value >= 1:
            raise InputError(f"--tol must be < 1, got {value!r}")
    if getattr(args, "steps", 2) < 2:
        raise InputError(f"--steps must be >= 2, got {args.steps}")
    if getattr(args, "time", None) is not None and args.t_max is not None:
        raise InputError("--time verifies one time, so --t-max has nothing to bound")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or _build_parser().parse_args(argv)
    args.eff_tol = args.tol if args.tol is not None else DEFAULT_PST_TOL
    report: dict = {
        "version": __version__,
        "graph": None,
        "tolerances": {
            "analysis": float(args.eff_tol),
            "grouping": float(DEFAULT_GROUPING_TOL),
        },
    }
    lines: list = []  # each a line, or an iterable of lines
    try:
        _check_options(args)
        if args.command == "example":
            found = _cmd_example(args, report, lines)
        else:
            g, label = _load_graph(args.graph)
            report["graph"] = _graph_section(label, g)
            if not args.json:
                lines.append(f"graph {label}: n = {g.n}, edges = {len(g.edges)}")
            found = _COMMANDS[args.command]["run"](args, g, report, lines)
        write = sys.stdout.write
        if args.json:
            _write_json(write, report)
            write("\n")
        else:
            for block in lines:
                for line in (block,) if isinstance(block, str) else block:
                    write(line + "\n")
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OwalkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if found or not args.strict else 1


if __name__ == "__main__":
    sys.exit(main())
