"""Seeded generator of never-seen skeleton customizing functions.

Every generated case carries its own NumPy oracle, computed without the
simulator:

* OpenCL-C string cases use ``int``/``long`` arithmetic on small values
  (no overflow) or ``double`` arithmetic restricted to correctly rounded
  operations (``+ - * /``, ``sqrt``, ``fabs``, ``fmin``/``fmax``), so the
  vectorized NumPy evaluation of the same expression tree is bit-exact.
* ``@skelcl.jit`` cases are plain Python functions written to a real
  file (``inspect`` needs the source on disk).  Their oracle runs the
  *same* Python function on NumPy scalars element by element, so NEP 50
  decides the result type and every per-operation rounding.  The
  expression grammar stays inside the subset the jit lowers bit-exactly
  (no transcendental functions, divisors kept away from zero).

Cases cycle through all six skeletons: every block of thirteen ops
holds each skeleton once as an OpenCL-C string and once as a jit
function, plus one more jit Map, in a seeded order.  Reduce and Scan operators must be associative, so they
come from a fixed family (add/max/min/or) made unique by name.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

SKELETONS = ("map", "zip", "reduce", "scan", "mapoverlap", "allpairs")
FRONTENDS = ("c", "jit")
# Every skeleton once per frontend, plus one more jit Map: an odd block
# puts the median op inside one kind's cost band.  With an even block
# it would sit on the edge between the sixth- and seventh-cheapest kinds
# and jump between them from run to run.
KINDS = [(s, f) for s in SKELETONS for f in FRONTENDS] + [("map", "jit")]
BLOCK = len(KINDS)

_C_TYPES = {"int32": "int", "int64": "long", "float64": "double"}


@dataclass
class Case:
    """One cold-compile op: the source to build, its inputs, and the
    oracle's result (``params`` holds skeleton arguments)."""

    skeleton: str
    frontend: str
    dtype: str
    source: str                      # OpenCL-C text or Python text
    inputs: Tuple[np.ndarray, ...]
    expected: np.ndarray
    params: dict = field(default_factory=dict)
    path: Optional[str] = None       # jit source file


# -- expression trees ------------------------------------------------------
#
# A tree is a nested tuple; ``_render_c`` prints it as OpenCL C and
# ``_eval_np`` evaluates it on NumPy arrays with the same semantics.

def _c_tree(rng: random.Random, names, kind: str, depth: int):
    """An expression over ``names``; ``kind`` is "int" or "float"."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.75:
            return ("var", rng.choice(names))
        if kind == "int":
            return ("const", rng.choice([1, 2, 3, 5, -2, -4]))
        return ("const", rng.choice([0.5, 1.5, 2.0, -0.25, -3.5]))
    ops = ["add", "sub", "mul", "neg", "min", "max", "sel"]
    if kind == "float":
        ops += ["abs", "div", "sqrt"]
    op = rng.choice(ops)
    sub = lambda: _c_tree(rng, names, kind, depth - 1)
    if op in ("neg", "abs", "sqrt"):
        return (op, sub())
    if op == "sel":
        return (op, sub(), sub(), sub(), sub())
    return (op, sub(), sub())


def _render_c(tree, kind: str) -> str:
    op = tree[0]
    if op == "var":
        return tree[1]
    if op == "const":
        value = tree[1]
        return f"({value})" if kind == "int" else f"({value!r})"
    args = [_render_c(t, kind) for t in tree[1:]]
    if op in ("add", "sub", "mul"):
        sym = {"add": "+", "sub": "-", "mul": "*"}[op]
        return f"({args[0]} {sym} {args[1]})"
    if op == "neg":
        return f"(-{args[0]})"
    if op == "abs":
        return f"fabs({args[0]})"
    if op == "sqrt":
        return f"sqrt(fabs({args[0]}) + 1.0)"
    if op == "div":
        return f"({args[0]} / (fabs({args[1]}) + 1.0))"
    if op in ("min", "max"):
        name = op if kind == "int" else "f" + op
        return f"{name}({args[0]}, {args[1]})"
    if op == "sel":
        return f"({args[0]} > {args[1]} ? {args[2]} : {args[3]})"
    raise ValueError(op)


def _eval_np(tree, env, dtype):
    op = tree[0]
    if op == "var":
        return env[tree[1]]
    if op == "const":
        return dtype.type(tree[1])
    args = [_eval_np(t, env, dtype) for t in tree[1:]]
    if op == "add":
        return args[0] + args[1]
    if op == "sub":
        return args[0] - args[1]
    if op == "mul":
        return args[0] * args[1]
    if op == "neg":
        return -args[0]
    if op == "abs":
        return np.abs(args[0])
    if op == "sqrt":
        return np.sqrt(np.abs(args[0]) + 1.0)
    if op == "div":
        return args[0] / (np.abs(args[1]) + 1.0)
    if op == "min":
        return np.minimum(args[0], args[1])
    if op == "max":
        return np.maximum(args[0], args[1])
    if op == "sel":
        return np.where(args[0] > args[1], args[2], args[3])
    raise ValueError(op)


def _c_expr(rng, names, dtype, depth=3):
    """(C text, NumPy evaluator) for one generated expression."""
    kind = "float" if dtype.kind == "f" else "int"
    tree = _c_tree(rng, names, kind, depth)
    # Anchor on the first variable so the result always depends on it.
    tree = ("add", tree, ("var", names[0]))
    return _render_c(tree, kind), (
        lambda env: np.asarray(_eval_np(tree, env, dtype), dtype=dtype))


def _py_pure(rng: random.Random, var: str, depth: int) -> str:
    """A Python expression with the dtype of ``var`` (closed under
    negation, abs, +/-/* with small ints, min/max and ternaries)."""
    if depth <= 0 or rng.random() < 0.3:
        return var
    sub = lambda: _py_pure(rng, var, depth - 1)
    choice = rng.randrange(5)
    if choice == 0:
        rhs = sub() if rng.random() < 0.5 else rng.choice(["1", "2", "3", "-2"])
        return f"({sub()} {rng.choice(['+', '-', '*'])} {rhs})"
    if choice == 1:
        return f"(-{sub()})"
    if choice == 2:
        return f"abs({sub()})"
    if choice == 3:
        return f"{rng.choice(['min', 'max'])}({sub()}, {sub()})"
    return f"({sub()} if {var} > {rng.choice(['0', '1'])} else {sub()})"


def _py_mixed(rng: random.Random, names, pure_names, depth: int) -> str:
    """An expression over ``names`` with free promotion (weak float
    constants, true division by a nonzero denominator, float(), sqrt);
    dtype-preserving islands only over ``pure_names``."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return rng.choice(names)
        return _py_pure(rng, rng.choice(pure_names), 2)
    sub = lambda: _py_mixed(rng, names, pure_names, depth - 1)
    choice = rng.randrange(5)
    if choice == 0:
        rhs = sub() if rng.random() < 0.6 else rng.choice(
            ["1", "2", "-2", "0.5", "1.5", "-0.25"])
        return f"({sub()} {rng.choice(['+', '-', '*'])} {rhs})"
    if choice == 1:
        return f"({sub()} / (abs({sub()}) + 3))"
    if choice == 2:
        return f"float({sub()})"
    if choice == 3:
        return f"math.sqrt(abs({sub()}) + 1.5)"
    return f"(-{sub()})"


# -- data ----------------------------------------------------------------------

def _data(rng: np.random.RandomState, dtype: np.dtype, shape, low=-9, high=10):
    if dtype.kind == "f":
        return rng.uniform(-4.0, 4.0, shape).astype(dtype)
    return rng.randint(low, high, shape).astype(dtype)


# -- host oracles for jit functions -----------------------------------------------

def _oracle_array(values, shape, dtype=None):
    dtype = np.dtype(dtype) if dtype is not None else np.result_type(*values)
    out = np.empty(len(values), dtype=dtype)
    for i, value in enumerate(values):
        out[i] = value
    return out.reshape(shape)


class _Neighbourhood:
    """What ``get(v, d)`` reads when a jitted stencil runs on the host:
    a 1-D NEUTRAL-boundary view centred on element ``i``."""

    def __init__(self, data, i, neutral):
        self.data, self.i, self.neutral = data, i, neutral

    def get(self, offset):
        idx = self.i + offset
        if 0 <= idx < self.data.shape[0]:
            return self.data[idx]
        return self.data.dtype.type(self.neutral)


# -- the generator --------------------------------------------------------------------

class CaseGenerator:
    """Deterministic case stream: ``case(i)`` depends only on the seed,
    the stream name and ``i``, so reload ops (and a second run)
    regenerate exactly the same sources and inputs."""

    def __init__(self, seed: int, stream: str, workdir: str):
        self.seed = seed
        self.stream = stream
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def _rng(self, i: int):
        rng = random.Random(f"{self.seed}:{self.stream}:{i}")
        return rng, np.random.RandomState(rng.randrange(2 ** 31))

    def kind_of(self, i: int) -> Tuple[str, str]:
        block, slot = divmod(i, BLOCK)
        order = list(KINDS)
        random.Random(f"{self.seed}:{self.stream}:block{block}").shuffle(order)
        return order[slot]

    def case(self, i: int, kind: Optional[Tuple[str, str]] = None) -> Case:
        skeleton, frontend = kind or self.kind_of(i)
        rng, nrng = self._rng(i)
        name = f"{self.stream}_{self.seed}_{i}"
        build = getattr(self, f"_{skeleton}_{frontend}")
        return build(rng, nrng, name)

    # Each builder returns a Case whose ``params`` carry the skeleton's
    # other arguments (see ``workloads.build_and_run``).

    def _map_c(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(list(_C_TYPES)))
        ct = _C_TYPES[dtype.name]
        text, oracle = _c_expr(rng, ["x"], dtype)
        source = f"{ct} {name}({ct} x) {{ return {text}; }}"
        x = _data(nrng, dtype, 64)
        return Case("map", "c", dtype.name, source, (x,), oracle({"x": x}))

    def _zip_c(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(list(_C_TYPES)))
        ct = _C_TYPES[dtype.name]
        text, oracle = _c_expr(rng, ["x", "y"], dtype)
        source = f"{ct} {name}({ct} x, {ct} y) {{ return {text}; }}"
        x, y = _data(nrng, dtype, 64), _data(nrng, dtype, 64)
        return Case("zip", "c", dtype.name, source, (x, y),
                    oracle({"x": x, "y": y}))

    _FAMILIES = {
        # name: (C body, Python body, identity, NumPy ufunc)
        "add": ("x + y", "x + y", "0", np.add),
        "max": ("max(x, y)", "x if x > y else y", "-1000000", np.maximum),
        "min": ("min(x, y)", "min(x, y)", "1000000", np.minimum),
        "or": ("x | y", "x | y", "0", np.bitwise_or),
    }

    def _assoc(self, rng, nrng, name, skeleton, frontend):
        family = rng.choice(sorted(self._FAMILIES))
        c_body, py_body, identity, ufunc = self._FAMILIES[family]
        dtype = np.dtype(rng.choice(["int32", "int64"]))
        low = 0 if family == "or" else -50
        data = _data(nrng, dtype, 256 if skeleton == "reduce" else 128, low, 51)
        if skeleton == "reduce":
            expected = np.asarray(ufunc.reduce(data), dtype=dtype)
        else:
            expected = ufunc.accumulate(data).astype(dtype)
        params = {"identity": identity}
        if frontend == "c":
            ct = _C_TYPES[dtype.name]
            source = f"{ct} {name}({ct} x, {ct} y) {{ return {c_body}; }}"
        else:
            source = f"def {name}(x, y):\n    return {py_body}\n"
        return Case(skeleton, frontend, dtype.name, source, (data,),
                    expected, params)

    def _reduce_c(self, rng, nrng, name):
        return self._assoc(rng, nrng, name, "reduce", "c")

    def _scan_c(self, rng, nrng, name):
        return self._assoc(rng, nrng, name, "scan", "c")

    def _reduce_jit(self, rng, nrng, name):
        return self._jit_file(self._assoc(rng, nrng, name, "reduce", "jit"))

    def _scan_jit(self, rng, nrng, name):
        return self._jit_file(self._assoc(rng, nrng, name, "scan", "jit"))

    def _stencil_weights(self, rng):
        reach = rng.choice([1, 2])
        weights = {d: rng.choice([-2, -1, 1, 2, 3]) for d in range(-reach, reach + 1)}
        return reach, weights

    def _mapoverlap_c(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(list(_C_TYPES)))
        ct = _C_TYPES[dtype.name]
        reach, weights = self._stencil_weights(rng)
        neutral = rng.choice([0, 1, -3])
        # Depth 2 keeps int32 products of the weighted sum from overflowing.
        text, oracle = _c_expr(rng, ["s", "c"], dtype, depth=2)
        terms = " + ".join(f"({w}) * get(v, {d})" for d, w in weights.items())
        source = (f"{ct} {name}(const {ct}* v) {{\n"
                  f"    {ct} s = {terms};\n"
                  f"    {ct} c = get(v, 0);\n"
                  f"    return {text};\n}}")
        x = _data(nrng, dtype, 96)
        padded = np.pad(x, reach, constant_values=dtype.type(neutral))
        n = x.shape[0]
        s = np.zeros(n, dtype=dtype)
        for d, w in weights.items():
            s = s + dtype.type(w) * padded[reach + d: reach + d + n]
        expected = oracle({"s": s.astype(dtype), "c": x})
        return Case("mapoverlap", "c", dtype.name, source, (x,), expected,
                    {"reach": reach, "neutral": neutral})

    def _mapoverlap_jit(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(["int32", "int64", "float32", "float64"]))
        reach, weights = self._stencil_weights(rng)
        neutral = rng.choice([0, 1, -3])
        terms = " + ".join(f"{w} * get(v, {d})" for d, w in weights.items())
        body = _py_pure(rng, "s", 3)
        source = (f"def {name}(v: skelcl.READ[np.{dtype.name}]) -> np.{dtype.name}:\n"
                  f"    s = {terms}\n"
                  f"    return {body} + (get(v, 0) - get(v, 0))\n")
        x = _data(nrng, dtype, 96)
        case = Case("mapoverlap", "jit", dtype.name, source, (x,), None,
                    {"reach": reach, "neutral": neutral})
        return self._jit_file(case)

    def _allpairs_c(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(["int32", "int64"]))
        ct = _C_TYPES[dtype.name]
        text, oracle = _c_expr(rng, ["x", "y"], dtype)
        zip_source = f"{ct} {name}_z({ct} x, {ct} y) {{ return {text}; }}"
        red_source = f"{ct} {name}_r({ct} x, {ct} y) {{ return x + y; }}"
        a = _data(nrng, dtype, (8, 5), -5, 6)
        b = _data(nrng, dtype, (6, 5), -5, 6)
        zipped = oracle({"x": a[:, None, :], "y": b[None, :, :]})
        shape = (a.shape[0], b.shape[0], a.shape[1])
        expected = np.broadcast_to(zipped, shape).sum(axis=2, dtype=dtype)
        return Case("allpairs", "c", dtype.name, zip_source, (a, b), expected,
                    {"reduce_source": red_source})

    def _allpairs_jit(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(["int32", "int64"]))
        t = f"np.{dtype.name}"
        body = _py_pure(rng, "x", 2)
        mixed = f"({body}) * (y - 1) + y" if rng.random() < 0.5 else f"({body}) + y * 2"
        source = (f"def {name}_z(x: {t}, y: {t}) -> {t}:\n"
                  f"    return {mixed}\n\n\n"
                  f"def {name}_r(x: {t}, y: {t}) -> {t}:\n"
                  f"    return x + y\n")
        a = _data(nrng, dtype, (8, 5), -5, 6)
        b = _data(nrng, dtype, (6, 5), -5, 6)
        case = Case("allpairs", "jit", dtype.name, source, (a, b), None)
        return self._jit_file(case)

    def _map_jit(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(["int32", "int64", "float32", "float64"]))
        source = (f"def {name}(x):\n"
                  f"    t = {_py_mixed(rng, ['x'], ['x'], 3)}\n"
                  f"    return ({_py_mixed(rng, ['x', 't'], ['x'], 2)}) + (t - t)\n")
        x = _data(nrng, dtype, 64)
        return self._jit_file(Case("map", "jit", dtype.name, source, (x,), None))

    def _zip_jit(self, rng, nrng, name):
        dtype = np.dtype(rng.choice(["int32", "int64", "float32", "float64"]))
        source = (f"def {name}(x, y):\n"
                  f"    return ({_py_mixed(rng, ['x', 'y'], ['x', 'y'], 3)}) + (x - x) + (y - y)\n")
        x, y = _data(nrng, dtype, 64), _data(nrng, dtype, 64)
        return self._jit_file(Case("zip", "jit", dtype.name, source, (x, y), None))

    # -- jit plumbing ------------------------------------------------------------

    def _jit_file(self, case: Case) -> Case:
        """Write the Python source to disk and compute its host oracle."""
        name = case.source.split("(", 1)[0].split()[-1]
        case.path = os.path.join(self.workdir, f"{name}.py")
        with open(case.path, "w") as handle:
            handle.write(case.source)
        fns = load_jit_functions(case.path, jit=None)
        case.expected = _jit_oracle(case, fns)
        return case


def load_jit_functions(path: str, jit: Optional[Callable]) -> List[Callable]:
    """Execute a generated jit source file; returns its functions in
    definition order, wrapped with ``jit`` when given (each call makes
    fresh objects, so nothing lowered earlier is reused)."""
    with open(path) as handle:
        text = handle.read()
    import repro.skelcl as skelcl

    namespace = {"math": math, "np": np, "skelcl": skelcl, "get": skelcl.get}
    exec(compile(text, path, "exec"), namespace)
    names = [line.split("(", 1)[0][4:] for line in text.splitlines()
             if line.startswith("def ")]
    fns = [namespace[n] for n in names]
    return [jit(fn) for fn in fns] if jit is not None else fns


def _jit_oracle(case: Case, fns) -> np.ndarray:
    """Run the Python function itself on NumPy scalars (NEP 50)."""
    with np.errstate(over="ignore"):
        if case.skeleton == "map":
            (x,) = case.inputs
            return _oracle_array([fns[0](v) for v in x], x.shape)
        if case.skeleton == "zip":
            x, y = case.inputs
            return _oracle_array([fns[0](a, b) for a, b in zip(x, y)], x.shape)
        if case.skeleton in ("reduce", "scan"):
            (x,) = case.inputs
            acc, out = x[0], [x[0]]
            for v in x[1:]:
                acc = fns[0](acc, v)
                out.append(acc)
            if case.skeleton == "reduce":
                return np.asarray(acc, dtype=x.dtype)
            return np.array(out, dtype=x.dtype)
        if case.skeleton == "mapoverlap":
            (x,) = case.inputs
            neutral = case.params["neutral"]
            values = [fns[0](_Neighbourhood(x, i, neutral)) for i in range(x.shape[0])]
            return _oracle_array(values, x.shape, x.dtype)
        if case.skeleton == "allpairs":
            a, b = case.inputs
            zip_fn, red_fn = fns
            out = np.empty((a.shape[0], b.shape[0]), dtype=a.dtype)
            for i in range(a.shape[0]):
                for j in range(b.shape[0]):
                    acc = a.dtype.type(0)
                    for k in range(a.shape[1]):
                        acc = red_fn(acc, zip_fn(a[i, k], b[j, k]))
                    out[i, j] = acc
            return out
    raise ValueError(case.skeleton)

