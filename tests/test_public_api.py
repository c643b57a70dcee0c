"""Every exported function and class member is reached by the program or documented,
every exported entry point that takes a vertex refuses one out of range, and every one
that takes a tolerance refuses one that is not a finite number in (0, 1).

A function in ``owalk.__all__`` that no module of ``src/owalk`` calls
outside its own definition, and that the README does not name, is code
only its tests reach; it should leave the package instead.  The same
holds for the public methods and properties of exported classes, read
as ``x.name`` in ``src/owalk`` or named so in the README.
"""

import ast
import copy
import inspect
import pickle
import re
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import owalk
from owalk.errors import InputError, VertexOutOfRangeError

SRC = Path(owalk.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _calls_outside_own_definition(tree: ast.Module) -> set[str]:
    calls: set[str] = set()

    def visit(node: ast.AST, enclosing: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name if enclosing is None else enclosing
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != enclosing:
                calls.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, None)
    return calls


def test_exported_functions_are_called_or_documented():
    called: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        called |= _calls_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    readme = README.read_text(encoding="utf-8")
    functions = [name for name in owalk.__all__ if inspect.isfunction(getattr(owalk, name))]
    assert functions
    orphans = [
        name
        for name in functions
        if name not in called and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert orphans == [], f"exported, never called in src/owalk and not in the README: {orphans}"


def _attribute_reads(tree: ast.Module, classes: set[str]) -> set[tuple[str | None, str]]:
    """(class, name) for every ``x.name`` outside the definition of that member.

    The class of ``x`` is known when ``x`` is ``self``, a parameter annotated
    with one exported class, or a local only ever assigned from one class's
    constructor; otherwise it is None, and the read counts for every class.
    """
    reads: set[tuple[str | None, str]] = set()

    def local_types(fn: ast.AST, cls: str | None) -> dict[str, str | None]:
        sources: dict[str, set[str | None]] = {}
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, arg in enumerate(args):
            named = set(re.findall(r"\w+", ast.unparse(arg.annotation or ast.Constant(""))))
            sources[arg.arg] = {cls} if cls and i == 0 else (named & classes) or {None}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                call = node.value if isinstance(node.value, ast.Call) else None
                made = getattr(call and call.func, "id", None)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        sources.setdefault(target.id, set()).add(made if made in classes else None)
        return {name: kinds.pop() if len(kinds) == 1 else None for name, kinds in sources.items()}

    def visit(node: ast.AST, cls: str | None, types: dict, member: tuple | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls, types = node.name, {}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            types = {**types, **local_types(node, cls if member is None else None)}
            member = (cls, node.name) if member is None else member
            cls = None
        elif isinstance(node, ast.Attribute):
            recv = node.value
            owner = types.get(recv.id) if isinstance(recv, ast.Name) else None
            if member != (owner, node.attr):
                reads.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, types, member)

    visit(tree, None, {}, None)
    return reads


def test_exported_class_members_are_read_or_documented():
    classes = {
        name: obj
        for name in owalk.__all__
        if inspect.isclass(obj := getattr(owalk, name)) and not issubclass(obj, Exception)
    }
    reads: set[tuple[str | None, str]] = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= _attribute_reads(ast.parse(path.read_text(encoding="utf-8")), set(classes))
    readme = README.read_text(encoding="utf-8")
    members = [
        (name, attr)
        for name, cls in classes.items()
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
    ]
    assert members
    orphans = [
        f"{name}.{attr}"
        for name, attr in members
        if (name, attr) not in reads
        and (None, attr) not in reads
        and not re.search(rf"\.{re.escape(attr)}\b", readme)
    ]
    assert orphans == [], f"members never read in src/owalk and not in the README: {orphans}"


VERTEX_PARAMETERS = {"a": 0, "b": 1, "vertex": 0, "source": 0}  # in range on k3


@contextmanager
def _within(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_vertex_parameter_refuses_out_of_range_vertices():
    # numpy reads index -1 as the last vertex and index n as an IndexError, and a
    # cycle walk from a vertex no image equals never ends: the library refuses both
    # as VertexOutOfRangeError, within a second, at every entry point found here
    g = owalk.builtin_example("k3")
    sd = owalk.decompose(g)
    rotation = next(p for p in owalk.find_switching_automorphisms(g) if p.perm != (0, 1, 2))
    values = {"sd": sd, "p": rotation, "t": 1.0, "tau": 1.0, **VERTEX_PARAMETERS}
    functions = {name: getattr(owalk, name) for name in owalk.__all__}
    methods = [("SpectralDecomposition.pair_coeffs", sd.pair_coeffs)]
    methods += [("SwitchingAutomorphism.apply", rotation.apply)]
    entry_points = {
        name: fn
        for name, fn in [*functions.items(), *methods]
        if inspect.isroutine(fn) and VERTEX_PARAMETERS.keys() & inspect.signature(fn).parameters
    }
    assert {
        "eigenvalue_support", "strong_cospectrality", "propagator_column", "verify_pst",
        "scan_pst", "mst_search", "orbit", "SpectralDecomposition.pair_coeffs",
        "SwitchingAutomorphism.apply",
    } <= entry_points.keys()
    for name, fn in entry_points.items():
        params = inspect.signature(fn).parameters
        args = {p: values[p] for p in params if p in values}
        missing = [p for p in params.keys() - args.keys() if params[p].default is params[p].empty]
        assert not missing, f"{name}: give this test an argument for {missing}"
        for param in params.keys() & VERTEX_PARAMETERS.keys():
            for bad in (-1, g.n):
                with pytest.raises(VertexOutOfRangeError), _within(1.0):
                    fn(**{**args, param: bad})


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, 1.0, 1e300])
def test_every_tol_parameter_refuses_a_tol_outside_0_1(tol):
    # tol = nan would switch off every `residual > tol` refusal, and tol = 1e300 accepts
    # a time that is no transfer: each entry point refuses both, before any other work
    g = owalk.builtin_example("k3")
    sd = owalk.decompose(g)
    rotation = next(p for p in owalk.find_switching_automorphisms(g) if p.perm != (0, 1, 2))
    values = {"sd": sd, "p": rotation, "tau": 1.0, **VERTEX_PARAMETERS}
    values["cospec"] = owalk.strong_cospectrality(sd, 0, rotation.apply(0))
    values["period"] = owalk.is_periodic(sd, owalk.eigenvalue_support(sd, 0))
    # the analysis tolerance; quadratic_integer_profile's tol is the integer-recognition one
    names = ("verify_pst", "scan_pst", "strong_cospectrality", "complete_char", "mst_search")
    for name in names:
        fn = getattr(owalk, name)
        params = inspect.signature(fn).parameters
        args = {p: values[p] for p in params if p in values}
        missing = [p for p in params.keys() - args.keys() if params[p].default is params[p].empty]
        assert not missing, f"{name}: give this test an argument for {missing}"
        with pytest.raises(InputError, match="tol must be a finite number in"):
            fn(**args, tol=tol)


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", COPIES)
def test_every_exported_value_type_survives_copy_and_pickle(how):
    # graphs and decompositions are rebuilt through their constructors' checks, so a
    # copy keeps read-only arrays and gives the same answers; every exported value
    # type comes back equal, which a process pool needs
    sd = owalk.decompose(owalk.builtin_example("mst8"))
    mst = owalk.mst_search(sd)[0]
    a, b = mst.orbit[0], mst.orbit[1]
    support = owalk.eigenvalue_support(sd, a)
    values = {
        "OrientedGraph": sd.graph,
        "SpectralDecomposition": sd,
        "EigenvalueSupport": support,
        "CospectralityCertificate": owalk.strong_cospectrality(sd, a, b),
        "PeriodicityCertificate": owalk.is_periodic(sd, support),
        "TransferCertificate": owalk.scan_pst(sd, a, b)[0],
        "MSTCertificate": mst,
        "SwitchingAutomorphism": mst.automorphism,
        "IntPolynomial": sd.char_poly,
    }
    exported = {name: getattr(owalk, name) for name in owalk.__all__}
    classes = {n for n, c in exported.items() if inspect.isclass(c) and not issubclass(c, Exception)}
    assert values.keys() == classes, "give this test one value of every exported class"
    for name, value in values.items():
        assert type(value).__name__ == name
        copied = COPIES[how](value)
        assert type(copied) is type(value)
        if name == "SpectralDecomposition":
            assert copied.graph == value.graph
            for field in ("eigenvalues", "vectors", "starts"):
                assert np.array_equal(getattr(copied, field), getattr(value, field)), field
        else:
            assert copied == value, name
    g2 = COPIES[how](sd.graph)
    assert hash(g2) == hash(sd.graph) and type(g2.n) is int
    assert not g2.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g2.adjacency[0, 1] = 5
    sd2 = COPIES[how](sd)
    assert not sd2.vectors.flags.writeable and not sd2.graph.adjacency.flags.writeable
    with pytest.raises(ValueError):
        sd2.vectors[0, 0] = 0.0
    for a, b in [(0, 1), (0, 6), (2, 3)]:
        assert owalk.is_periodic(sd2, owalk.eigenvalue_support(sd2, a)) == owalk.is_periodic(
            sd, owalk.eigenvalue_support(sd, a)
        )
        assert owalk.scan_pst(sd2, a, b) == owalk.scan_pst(sd, a, b)

