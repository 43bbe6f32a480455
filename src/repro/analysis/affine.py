"""SkelAccess: the one kernel-facts pass over checked kernel ASTs.

Summarizes every access a kernel makes through a pointer parameter as a
set of *affine footprints*::

    index = base + stride_g * get_global_id(d) + stride_l * get_local_id(d)
                 + sum(c_i * uniform_i)       (elements, not bytes)

where the uniform symbols are integer scalar parameters, NDRange sizes
(``get_global_size`` etc.) and fresh loop-induction symbols.  Each
footprint carries the *guards* (affine inequalities ``f <= 0``) under
which the access executes — the ``if (SCL_ID < SCL_N)`` wrapper every
skeleton emits, loop conditions, clamp chains.

The analysis is a path-sensitive abstract interpretation:

* scalar integer variables are tracked as small sets of guarded
  alternatives ``(form, guards)`` (capped at :data:`MAX_ALTS`), so
  boundary-handling chains like NEAREST clamping stay affine;
* pointer values are tracked to their *root* — a pointer parameter or a
  fixed-size (``__local``/private) array — through pointer arithmetic,
  ``&a[i]`` and user-function calls; a pointer a loop or a branch join
  moves keeps its root with an unknown offset;
* ``for`` loops with an affine start and uniform step bind the
  induction variable to ``start + step * t`` for a fresh symbol ``t``
  and guard the body with the loop condition (covers the grid-stride
  reduce loop); other loops havoc what they assign;
* anything non-affine (division, unknown builtins, aliasing the
  analysis cannot root) demotes the affected parameter to the historic
  whole-chunk *fallback* mode, so consumers never under-approximate.

Besides the footprints, the same walk records every parameter's read and
write flags (on *every* access, affine or not; an alias, an integer
cast or a hand-off to an unknown callee sets both), the calls of
MapOverlap's ``get`` accessor, and the accesses into fixed-size arrays.

At enqueue time :func:`make_eval_env` / :func:`resolve_footprint`
substitute the concrete NDRange and scalar arguments, narrow the
work-item symbol ranges through the guards, and produce exact byte
ranges with a gcd-derived stride (``out[2*gid]`` and ``out[2*gid+1]``
resolve to interleaved, *disjoint* strided ranges).

Unsigned wrap-around is deliberately ignored: an index that wraps past
2^64 faults in the interpreter long before the footprint matters, and
modelling it would cost every summary its precision.

Every consumer reads the summary through :func:`kernel_facts`, which
computes it once per checked function:
:mod:`repro.analysis.access` (SkelSan r/w modes and byte-range races),
:mod:`repro.kernelc.lint` (``constant-index-oob``, ``symbolic-oob``,
``uncoalesced-access``, ``strided-global-read``),
:mod:`repro.plan.compose` (fusion legality) and
:mod:`repro.skelcl.mapoverlap` (the static ``get()`` bounds proof,
:func:`prove_get_bounds`, and footprint-shrunk halo transfers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..kernelc import ast
from ..kernelc.ctypes_ import ArrayType, CType, PointerType

# Symbols are tuples.  Uniform (same value for every work-item):
#   ("param", name) ("gsize", d) ("lsize", d) ("ngroups", d)
# Variant (distinguish work-items / loop iterations):
#   ("gid", d) ("lid", d) ("grp", d) ("iv", n)
Sym = Tuple

#: Alternatives tracked per scalar variable / expression before the
#: analysis gives up on path sensitivity.
MAX_ALTS = 8

#: Loop-induction symbols are unbounded above; evaluation clips them.
IV_LIMIT = 1 << 40


def is_variant(sym: Sym) -> bool:
    return sym[0] in ("gid", "lid", "grp", "iv")


def _format_sym(sym: Sym) -> str:
    kind = sym[0]
    if kind == "param":
        return str(sym[1])
    if kind == "iv":
        return f"t{sym[1]}"
    name = {"gid": "get_global_id", "lid": "get_local_id",
            "grp": "get_group_id", "gsize": "get_global_size",
            "lsize": "get_local_size", "ngroups": "get_num_groups"}[kind]
    return f"{name}({sym[1]})"


class UExpr:
    """An integer polynomial over *uniform* symbols.

    ``terms`` maps a sorted monomial (tuple of symbols) to its integer
    coefficient; the empty monomial is the constant term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[Sym, ...], int]] = None):
        self.terms: Dict[Tuple[Sym, ...], int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @staticmethod
    def const(value: int) -> "UExpr":
        return UExpr({(): int(value)})

    @staticmethod
    def sym(symbol: Sym) -> "UExpr":
        return UExpr({(symbol,): 1})

    @property
    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    @property
    def const_value(self) -> int:
        return self.terms.get((), 0)

    def __add__(self, other: "UExpr") -> "UExpr":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return UExpr(terms)

    def __sub__(self, other: "UExpr") -> "UExpr":
        return self + (-other)

    def __neg__(self) -> "UExpr":
        return UExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "UExpr") -> "UExpr":
        terms: Dict[Tuple[Sym, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return UExpr(terms)

    def evaluate(self, uniforms: Dict[Sym, int]) -> int:
        total = 0
        for m, c in self.terms.items():
            value = c
            for symbol in m:
                value *= uniforms[symbol]  # KeyError -> unresolvable
            total += value
        return total

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, UExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"UExpr({self.format()})"

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            names = "*".join(_format_sym(s) for s in m)
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


class AffineForm:
    """``base + sum(coeff[s] * s)`` over variant symbols ``s``, with
    :class:`UExpr` (uniform) coefficients."""

    __slots__ = ("base", "terms")

    def __init__(self, base: UExpr, terms: Optional[Dict[Sym, UExpr]] = None):
        self.base = base
        self.terms: Dict[Sym, UExpr] = {
            s: c for s, c in (terms or {}).items() if c.terms
        }

    @staticmethod
    def const(value: int) -> "AffineForm":
        return AffineForm(UExpr.const(value))

    @staticmethod
    def sym(symbol: Sym) -> "AffineForm":
        if is_variant(symbol):
            return AffineForm(UExpr.const(0), {symbol: UExpr.const(1)})
        return AffineForm(UExpr.sym(symbol))

    @property
    def is_uniform(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms and self.base.is_const

    @property
    def const_value(self) -> int:
        return self.base.const_value

    def __add__(self, other: "AffineForm") -> "AffineForm":
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, UExpr()) + c
        return AffineForm(self.base + other.base, terms)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.base, {s: -c for s, c in self.terms.items()})

    def scale(self, factor: UExpr) -> "AffineForm":
        return AffineForm(self.base * factor,
                          {s: c * factor for s, c in self.terms.items()})

    def mul(self, other: "AffineForm") -> Optional["AffineForm"]:
        """Product when at least one side is uniform; None otherwise."""
        if other.is_uniform:
            return self.scale(other.base)
        if self.is_uniform:
            return other.scale(self.base)
        return None

    def key(self):
        return (self.base.key(),
                tuple(sorted((s, c.key()) for s, c in self.terms.items())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm) and self.base == other.base
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"AffineForm({self.format()})"

    def format(self) -> str:
        parts = []
        for s, c in sorted(self.terms.items()):
            if c.is_const and c.const_value == 1:
                parts.append(_format_sym(s))
            elif c.is_const:
                parts.append(f"{c.const_value}*{_format_sym(s)}")
            else:
                parts.append(f"({c.format()})*{_format_sym(s)}")
        base = self.base.format()
        if base != "0" or not parts:
            parts.append(base)
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


# A guard is an AffineForm ``f`` asserting ``f <= 0``.
Guard = AffineForm
Guards = Tuple[Guard, ...]
# One guarded alternative value of a scalar expression; ``None`` form
# means "unknown" (non-affine).
Alt = Tuple[Optional[AffineForm], Guards]
Alts = Tuple[Alt, ...]

_UNKNOWN: Alts = ((None, ()),)


def _single_form(alts: Alts) -> Optional[AffineForm]:
    """The unique unguarded form of ``alts``, or None."""
    if len(alts) == 1 and alts[0][0] is not None and not alts[0][1]:
        return alts[0][0]
    return None


# -- summary data model ------------------------------------------------------


@dataclass(frozen=True)
class Footprint:
    """One static access site through a pointer parameter."""

    param: str
    mode: str  # 'r' or 'w'
    index: AffineForm  # element index
    guards: Guards
    expr: str  # source text of the access, for provenance
    span: object = None

    def warp_stride(self) -> Optional[int]:
        """Element stride between lane-adjacent work-items (dimension
        0), or None when it is symbolic (uniform but not constant)."""
        stride = UExpr()
        for sym in (("gid", 0), ("lid", 0)):
            stride = stride + self.index.terms.get(sym, UExpr())
        if stride.is_const:
            return stride.const_value
        return None


@dataclass(frozen=True)
class ArraySite:
    """An access into a fixed-size array (``__local`` tiles etc.)."""

    name: str
    length: int
    mode: str
    index: Optional[AffineForm]
    guards: Guards
    expr: str
    span: object = None


@dataclass(frozen=True)
class GetSite:
    """One call of MapOverlap's neighbourhood accessor ``get(m, dx[, dy])``:
    the guarded alternatives of each offset argument."""

    offsets: Tuple[Alts, ...]
    guards: Guards


@dataclass
class ParamSummary:
    name: str
    space: str  # address space of the pointee
    elem_size: int
    footprints: List[Footprint] = field(default_factory=list)
    fallback_reason: Optional[str] = None  # None = fully affine
    #: 'r', 'w' or 'rw': may the function read/write through the
    #: pointer at all (affine or not); const and declared intents applied.
    mode: str = "r"
    #: Why the pointer leaves the pass's view (aliased by a local
    #: pointer, cast to an integer, handed to an unknown callee), or None.
    escape: Optional[str] = None

    @property
    def affine(self) -> bool:
        return self.fallback_reason is None


@dataclass
class KernelSummary:
    kernel: str
    #: Every pointer parameter, whatever its address space.
    pointers: Dict[str, ParamSummary]
    array_sites: List[ArraySite]
    #: reqd_work_group_size attribute values, or None.
    reqd_wg: Optional[Tuple[int, int, int]] = None
    get_sites: List[GetSite] = field(default_factory=list)

    def __post_init__(self):
        #: The ``__global``/``__constant`` pointers: the buffers a launch binds.
        self.params: Dict[str, ParamSummary] = {
            name: p for name, p in self.pointers.items()
            if p.space in ("global", "constant")
        }


class _Ptr:
    """A pointer value rooted at a parameter or fixed array."""

    __slots__ = ("kind", "name", "length", "offset")

    def __init__(self, kind: str, name: str, offset: Optional[AffineForm],
                 length: int = 0):
        self.kind = kind  # "param" or "array"
        self.name = name
        self.offset = offset  # None: root known, offset unknown
        self.length = length  # elements ("array" roots only)

    def shifted(self, delta: Optional[AffineForm]) -> "_Ptr":
        offset = None
        if self.offset is not None and delta is not None:
            offset = self.offset + delta
        return _Ptr(self.kind, self.name, offset, self.length)


def _unknown_offset(ptr: Optional[_Ptr]) -> Optional[_Ptr]:
    """``ptr`` with its root kept and its offset forgotten."""
    return None if ptr is None else ptr.shifted(None)


def _source_text(program: ast.Program, span) -> str:
    source = getattr(program, "source", None)
    if source is None or span is None:
        return ""
    try:
        text = source.text[span.start.offset:span.end.offset]
    except Exception:
        return ""
    return " ".join(text.split())


def _parse_reqd_wg(fn: ast.FunctionDef) -> Optional[Tuple[int, int, int]]:
    import re

    for attr in getattr(fn, "attributes", ()):
        m = re.match(r"reqd_work_group_size\((\d+)(?:,(\d+))?(?:,(\d+))?\)",
                     attr.replace(" ", ""))
        if m:
            return (int(m.group(1)), int(m.group(2) or 1), int(m.group(3) or 1))
    return None


# -- the scanner -------------------------------------------------------------

_DIM_SYMS = {"get_global_id": "gid", "get_local_id": "lid",
             "get_group_id": "grp", "get_global_size": "gsize",
             "get_local_size": "lsize", "get_num_groups": "ngroups"}

_MAX_CALL_DEPTH = 8


class _Scanner:
    def __init__(self, program: ast.Program, fn: ast.FunctionDef):
        self.program = program
        self.fn = fn
        self.functions = {f.name: f for f in program.functions}
        source = getattr(program, "source", None)
        #: Declared access intents (jit ``/*@intent:func.param=rw*/``).
        self.declared: Dict[Tuple[str, str], str] = (
            getattr(source, "declared_intents", None) or {})
        self.footprints: List[Footprint] = []
        self.array_sites: List[ArraySite] = []
        self.get_sites: List[GetSite] = []
        self.fallbacks: Dict[str, str] = {}  # param -> reason
        self.escapes: Dict[str, str] = {}  # param -> reason
        self.guards: List[Guard] = []
        self._iv_counter = 0
        self._depth = 0
        self._returns_stack: List[Tuple[List[Alt], int]] = []
        self.pointer_params: Dict[str, PointerType] = {
            p.name: p.declared_type for p in fn.params
            if isinstance(p.declared_type, PointerType)
        }
        self.flags: Dict[str, Set[str]] = {
            name: set() for name in self.pointer_params}

    # -- entry ---------------------------------------------------------------

    def run(self) -> None:
        env: Dict[str, Alts] = {}
        ptrs: Dict[str, Optional[_Ptr]] = {}
        for param in self.fn.params:
            ctype = param.declared_type
            if isinstance(ctype, PointerType):
                ptrs[param.name] = _Ptr("param", param.name, AffineForm.const(0))
            elif isinstance(ctype, ArrayType):
                ptrs[param.name] = None
            elif ctype.is_integer():
                env[param.name] = ((AffineForm.sym(("param", param.name)), ()),)
            else:
                env[param.name] = _UNKNOWN
        for decl in getattr(self.program, "globals", []):
            inner = decl.decl
            if isinstance(inner.declared_type, ArrayType):
                ptrs[inner.name] = _Ptr("array", inner.name, AffineForm.const(0),
                                        inner.declared_type.flat_length())
        if self.fn.body is not None:
            self.exec_stmt(self.fn.body, env, ptrs)

    def _fallback(self, name: str, reason: str) -> None:
        if name in self.pointer_params and name not in self.fallbacks:
            self.fallbacks[name] = reason

    def _flag(self, root: Optional[str], flags) -> None:
        if root in self.flags:
            self.flags[root].update(flags)

    def _alias(self, ptr, reason: str) -> None:
        """A local pointer now holds ``ptr``: its accesses stay tracked,
        but the parameter counts as read and written (the historic
        alias rule) and no longer backs a ``get()`` proof."""
        root = _param_root(ptr)
        if root is not None:
            self._flag(root, "rw")
            self.escapes.setdefault(root, reason)

    def _escape(self, expr: ast.Expr, ptrs, reason: str) -> None:
        """Every parameter root ``expr`` mentions leaves the pass's view:
        whole-buffer fallback, read and write (read only through a
        const-qualified pointer)."""
        ctype = getattr(expr, "ctype", None)
        flags = "r" if isinstance(ctype, PointerType) and ctype.is_const else "rw"
        for node in ast.walk(expr):
            if isinstance(node, ast.Identifier):
                root = _param_root(ptrs.get(node.name))
                if root is not None:
                    self._flag(root, flags)
                    self._fallback(root, reason)
                    self.escapes.setdefault(root, reason)

    def _fresh_iv(self) -> Sym:
        self._iv_counter += 1
        return ("iv", self._iv_counter)

    # -- access recording ----------------------------------------------------

    def _record(self, ptr: Optional[_Ptr], index: Alts, mode: str,
                node: ast.Expr) -> None:
        if ptr is None:
            return
        text = _source_text(self.program, node.span)
        guards = tuple(self.guards)
        if ptr.kind == "param":
            self._flag(ptr.name, mode)
        for form, alt_guards in index:
            total = None
            if form is not None and ptr.offset is not None:
                total = ptr.offset + form
            if ptr.kind == "param":
                if total is None:
                    self._fallback(ptr.name, f"non-affine index in {text!r}")
                    continue
                self.footprints.append(Footprint(
                    ptr.name, mode, total, guards + alt_guards, text,
                    node.span))
            else:  # fixed-size array (symbolic-oob sites)
                self.array_sites.append(ArraySite(
                    ptr.name, ptr.length, mode, total, guards + alt_guards,
                    text, node.span))

    # -- expression evaluation ----------------------------------------------

    def eval_int(self, expr: ast.Expr, env, ptrs) -> Alts:
        """Evaluate an integer-valued expression to guarded alternatives,
        collecting any accesses it performs."""
        if isinstance(expr, ast.IntLiteral):
            return ((AffineForm.const(expr.value), ()),)
        if isinstance(expr, ast.CharLiteral):
            return ((AffineForm.const(expr.value), ()),)
        if isinstance(expr, ast.Identifier):
            if expr.name in ptrs:
                return _UNKNOWN  # pointer used as value: not an int
            return env.get(expr.name, _UNKNOWN)
        if isinstance(expr, ast.Cast):
            target = expr.target_type
            inner = self._eval_any(expr.operand, env, ptrs)
            if isinstance(getattr(expr.operand, "ctype", None),
                          (PointerType, ArrayType)):
                # The address as a number can come back as a pointer the
                # pass cannot root.
                self._escape(expr.operand, ptrs, "pointer cast to an integer")
                return _UNKNOWN
            if isinstance(target, CType) and target.is_integer():
                return inner
            return _UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env, ptrs)
        if isinstance(expr, ast.PostfixOp):
            self._apply_incdec(expr, env, ptrs)
            return _UNKNOWN
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env, ptrs)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, env, ptrs)
        if isinstance(expr, ast.Conditional):
            return self._eval_conditional(expr, env, ptrs)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, ptrs)
        if isinstance(expr, ast.Index):
            ptr, index = self._eval_access(expr, env, ptrs)
            self._record(ptr, index, "r", expr)
            return _UNKNOWN
        if isinstance(expr, ast.Member):
            self._eval_any(expr.base, env, ptrs)
            return _UNKNOWN
        if isinstance(expr, ast.CommaExpr):
            result: Alts = _UNKNOWN
            for part in expr.parts:
                result = self._eval_any(part, env, ptrs)
            return result
        if isinstance(expr, (ast.VectorLiteral,)):
            for element in expr.elements:
                self._eval_any(element, env, ptrs)
            return _UNKNOWN
        if isinstance(expr, ast.SizeofExpr):
            try:
                if expr.queried_type is not None:
                    return ((AffineForm.const(expr.queried_type.sizeof()), ()),)
                if expr.operand is not None and expr.operand.ctype is not None:
                    return ((AffineForm.const(expr.operand.ctype.sizeof()), ()),)
            except TypeError:
                pass
            return _UNKNOWN
        return _UNKNOWN

    def _eval_any(self, expr: ast.Expr, env, ptrs) -> Alts:
        """Evaluate for side effects/accesses; pointer-typed expressions
        return unknown-int but are still scanned."""
        ptr = self._eval_pointer(expr, env, ptrs)
        if ptr is not _NOT_POINTER:
            return _UNKNOWN
        return self.eval_int(expr, env, ptrs)

    def _eval_unary(self, expr: ast.UnaryOp, env, ptrs) -> Alts:
        op = expr.op
        if op in ("++", "--"):
            self._apply_incdec(expr, env, ptrs)
            return _UNKNOWN
        if op == "*":
            ptr, _ = self._deref_site(expr, env, ptrs)
            self._record(ptr, ((AffineForm.const(0), ()),), "r", expr)
            return _UNKNOWN
        if op == "&":
            return _UNKNOWN
        inner = self.eval_int(expr.operand, env, ptrs)
        if op == "+":
            return inner
        if op == "-":
            return tuple((None if f is None else -f, g) for f, g in inner)
        return _UNKNOWN  # ! ~ on values

    def _eval_binary(self, expr: ast.BinaryOp, env, ptrs) -> Alts:
        op = expr.op
        if op in ("&&", "||"):
            self._eval_any(expr.left, env, ptrs)
            self._eval_any(expr.right, env, ptrs)
            return _UNKNOWN
        left = self._eval_any(expr.left, env, ptrs)
        right = self._eval_any(expr.right, env, ptrs)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return _UNKNOWN
        combos: List[Alt] = []
        for lf, lg in left:
            for rf, rg in right:
                combos.append(self._combine(op, lf, rf, lg + rg))
                if len(combos) > MAX_ALTS:
                    return _UNKNOWN
        return tuple(combos)

    def _combine(self, op: str, lf: Optional[AffineForm],
                 rf: Optional[AffineForm], guards: Guards) -> Alt:
        if lf is None or rf is None:
            return (None, guards)
        if op == "+":
            return (lf + rf, guards)
        if op == "-":
            return (lf - rf, guards)
        if op == "*":
            return (lf.mul(rf), guards)
        if op == "<<" and rf.is_const and 0 <= rf.const_value < 31:
            return (lf.scale(UExpr.const(1 << rf.const_value)), guards)
        if op in ("/", "%") and lf.is_const and rf.is_const and rf.const_value:
            # C integer division truncates toward zero.
            lv, rv = lf.const_value, rf.const_value
            quot = abs(lv) // abs(rv)
            if (lv < 0) != (rv < 0):
                quot = -quot
            if op == "/":
                return (AffineForm.const(quot), guards)
            return (AffineForm.const(lv - quot * rv), guards)
        return (None, guards)

    def _eval_conditional(self, expr: ast.Conditional, env, ptrs) -> Alts:
        then_guards, else_guards = self.cond_guards(expr.condition, env, ptrs)
        then_alts = self._eval_any(expr.then_expr, env, ptrs)
        else_alts = self._eval_any(expr.else_expr, env, ptrs)
        if then_guards is None or else_guards is None:
            return _UNKNOWN
        merged = tuple((f, g + then_guards) for f, g in then_alts) + \
            tuple((f, g + else_guards) for f, g in else_alts)
        if len(merged) > MAX_ALTS:
            return _UNKNOWN
        return merged

    def _eval_assignment(self, expr: ast.Assignment, env, ptrs) -> Alts:
        value = self._eval_any(expr.value, env, ptrs)
        target = expr.target
        if isinstance(target, ast.Identifier):
            name = target.name
            if name in ptrs:
                if expr.op in ("+=", "-="):
                    delta = _single_form(value)
                    if delta is not None and expr.op == "-=":
                        delta = -delta
                    old = ptrs[name]
                    ptrs[name] = None if old is None else old.shifted(delta)
                    return _UNKNOWN
                new_ptr = self._eval_pointer(expr.value, env, ptrs)
                if new_ptr is _NOT_POINTER or new_ptr is None:
                    self._escape(expr.value, ptrs, _UNROOTED)
                    ptrs[name] = None
                else:
                    self._alias(new_ptr, f"re-seated pointer {name!r}")
                    ptrs[name] = new_ptr
                return _UNKNOWN
            if expr.op == "=":
                env[name] = value
            elif expr.op in ("+=", "-="):
                old = env.get(name, _UNKNOWN)
                combos: List[Alt] = []
                op = "+" if expr.op == "+=" else "-"
                for of, og in old:
                    for vf, vg in value:
                        combos.append(self._combine(op, of, vf, og + vg))
                env[name] = tuple(combos) if len(combos) <= MAX_ALTS else _UNKNOWN
            else:
                env[name] = _UNKNOWN
            return env[name] if name in env else _UNKNOWN
        # Store through an index / deref.
        mode_extra_read = expr.op != "="
        if isinstance(target, ast.Index):
            ptr, index = self._eval_access(target, env, ptrs)
            self._record(ptr, index, "w", target)
            if mode_extra_read:
                self._record(ptr, index, "r", target)
        elif isinstance(target, ast.UnaryOp) and target.op == "*":
            ptr, _ = self._deref_site(target, env, ptrs)
            zero = ((AffineForm.const(0), ()),)
            self._record(ptr, zero, "w", target)
            if mode_extra_read:
                self._record(ptr, zero, "r", target)
        elif isinstance(target, ast.Member):
            base = target.base
            if isinstance(base, ast.Index):
                ptr, index = self._eval_access(base, env, ptrs)
                self._record(ptr, index, "w", base)
        return value

    def _apply_incdec(self, expr, env, ptrs) -> None:
        operand = expr.operand
        delta = AffineForm.const(1 if expr.op == "++" else -1)
        if isinstance(operand, ast.Identifier) and operand.name not in ptrs:
            old = env.get(operand.name, _UNKNOWN)
            env[operand.name] = tuple(
                (None if f is None else f + delta, g) for f, g in old)
        elif isinstance(operand, ast.Identifier):
            old = ptrs[operand.name]
            ptrs[operand.name] = None if old is None else old.shifted(delta)
        else:
            self._eval_any(operand, env, ptrs)

    # -- pointers ------------------------------------------------------------

    def _eval_pointer(self, expr: ast.Expr, env, ptrs):
        """Pointer value of ``expr``: a _Ptr, None (unknown pointer) or
        _NOT_POINTER when the expression is not pointer-typed."""
        ctype = getattr(expr, "ctype", None)
        is_ptr = isinstance(ctype, PointerType) or isinstance(ctype, ArrayType)
        if isinstance(expr, ast.Identifier):
            if expr.name in ptrs:
                return ptrs[expr.name]
            return None if is_ptr else _NOT_POINTER
        if not is_ptr and not (isinstance(expr, ast.UnaryOp) and expr.op == "&"):
            return _NOT_POINTER
        if isinstance(expr, ast.Cast):
            return self._eval_pointer(expr.operand, env, ptrs)
        if isinstance(expr, ast.UnaryOp) and expr.op == "&":
            operand = expr.operand
            if isinstance(operand, ast.Index):
                base_ptr, index = self._eval_access(operand, env, ptrs)
                form = _single_form(index)
                if base_ptr is not None and form is not None:
                    return base_ptr.shifted(form)
                return None
            return None
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
            left_ptr = self._eval_pointer(expr.left, env, ptrs)
            right_ptr = self._eval_pointer(expr.right, env, ptrs)
            if left_ptr is not _NOT_POINTER and right_ptr is _NOT_POINTER:
                delta = _single_form(self.eval_int(expr.right, env, ptrs))
                if left_ptr is None or delta is None:
                    return None
                if expr.op == "-":
                    delta = -delta
                return left_ptr.shifted(delta)
            if right_ptr is not _NOT_POINTER and expr.op == "+":
                delta = _single_form(self.eval_int(expr.left, env, ptrs))
                if right_ptr is None or delta is None:
                    return None
                return right_ptr.shifted(delta)
            return None
        if isinstance(expr, ast.Index):
            # a[i] where a is an array of arrays: pointer to the row.
            base_ptr, index = self._eval_access(expr, env, ptrs)
            form = _single_form(index)
            if base_ptr is not None and form is not None:
                return base_ptr.shifted(form)
            return None
        if isinstance(expr, ast.Conditional):
            return None
        return None if is_ptr else _NOT_POINTER

    def _deref_site(self, expr: ast.UnaryOp, env, ptrs):
        ptr = self._eval_pointer(expr.operand, env, ptrs)
        if ptr is _NOT_POINTER or ptr is None:
            self._escape(expr.operand, ptrs, _UNROOTED)
            return None, None
        return ptr, None

    def _eval_access(self, expr: ast.Index, env, ptrs):
        """(_Ptr or None, index Alts) for ``base[index]``; scales the
        index by the row length for arrays of arrays."""
        base_ptr = self._eval_pointer(expr.base, env, ptrs)
        index = self.eval_int(expr.index, env, ptrs)
        if base_ptr is _NOT_POINTER or base_ptr is None:
            self._escape(expr.base, ptrs, _UNROOTED)
            return None, index
        base_type = getattr(expr.base, "ctype", None)
        element = None
        if isinstance(base_type, PointerType):
            element = base_type.pointee
        elif isinstance(base_type, ArrayType):
            element = base_type.element
            form = _single_form(index)
            if isinstance(expr.base, ast.Index) and form is not None and form.is_const:
                # A constant column of a multi-dimensional array is also
                # checked against its own row (``m[0][5]`` on ``m[2][3]``).
                self.array_sites.append(ArraySite(
                    base_ptr.name, base_type.length, "r", form, tuple(self.guards),
                    _source_text(self.program, expr.span), expr.span))
        if isinstance(element, ArrayType):
            factor = UExpr.const(element.flat_length())
            index = tuple(
                (None if f is None else f.scale(factor), g) for f, g in index)
        return base_ptr, index

    # -- conditions ----------------------------------------------------------

    def cond_guards(self, expr: ast.Expr, env, ptrs):
        """(then_guards, else_guards) implied by ``expr``; either side is
        None when nothing sound can be said for that branch."""
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            then_g, else_g = self.cond_guards(expr.operand, env, ptrs)
            return else_g, then_g
        if isinstance(expr, ast.BinaryOp) and expr.op == "&&":
            lt, lf = self.cond_guards(expr.left, env, ptrs)
            rt, rf = self.cond_guards(expr.right, env, ptrs)
            then_g = None if (lt is None or rt is None) else lt + rt
            return then_g, ()
        if isinstance(expr, ast.BinaryOp) and expr.op == "||":
            lt, lf = self.cond_guards(expr.left, env, ptrs)
            rt, rf = self.cond_guards(expr.right, env, ptrs)
            else_g = None if (lf is None or rf is None) else lf + rf
            return (), else_g
        if isinstance(expr, ast.BinaryOp) and expr.op in (
                "<", "<=", ">", ">=", "==", "!="):
            ltype = getattr(expr.left, "ctype", None)
            rtype = getattr(expr.right, "ctype", None)
            if (ltype is not None and ltype.is_float()) or (
                    rtype is not None and rtype.is_float()):
                return (), ()
            left = _single_form(self.eval_int(expr.left, env, ptrs))
            right = _single_form(self.eval_int(expr.right, env, ptrs))
            if left is None or right is None:
                return (), ()
            one = AffineForm.const(1)
            if expr.op == "<":   # a < b  |  not: b <= a
                return (left - right + one,), (right - left,)
            if expr.op == "<=":
                return (left - right,), (right - left + one,)
            if expr.op == ">":
                return (right - left + one,), (left - right,)
            if expr.op == ">=":
                return (right - left,), (left - right + one,)
            if expr.op == "==":
                return (left - right, right - left), ()
            return (), (left - right, right - left)  # !=
        # Bare integer condition `if (n)` etc: nothing useful.
        self._eval_any(expr, env, ptrs)
        return (), ()

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env, ptrs) -> Alts:
        name = expr.callee
        if name in _DIM_SYMS:
            dim = 0
            if expr.args:
                arg = _single_form(self.eval_int(expr.args[0], env, ptrs))
                if arg is None or not arg.is_const:
                    return _UNKNOWN
                dim = arg.const_value
            if not 0 <= dim <= 2:
                return _UNKNOWN
            return ((AffineForm.sym((_DIM_SYMS[name], dim)), ()),)
        if name == "get_global_offset":
            for arg in expr.args:
                self._eval_any(arg, env, ptrs)
            return ((AffineForm.const(0), ()),)
        callee = self.functions.get(name)
        if callee is not None and callee.body is not None:
            return self._eval_user_call(expr, callee, env, ptrs)
        if name == ACCESSOR and getattr(expr, "kind", None) == "user":
            return self._eval_get(expr, env, ptrs)
        return self._eval_builtin_call(expr, env, ptrs)

    def _eval_get(self, expr: ast.Call, env, ptrs) -> Alts:
        """A call of the MapOverlap accessor prototype: record the offsets.
        Its pointer argument must be the neighbourhood pointer itself."""
        target = expr.args[0]
        ptr = self._eval_pointer(target, env, ptrs)
        if isinstance(ptr, _Ptr) and ptr.offset is not None and \
                ptr.offset.is_const and ptr.offset.const_value == 0:
            self._flag(_param_root(ptr), "r")
        else:
            self._escape(target, ptrs, "get() of a shifted or unknown pointer")
        offsets = tuple(self._eval_any(arg, env, ptrs) for arg in expr.args[1:])
        self.get_sites.append(GetSite(offsets, tuple(self.guards)))
        return _UNKNOWN

    def _eval_builtin_call(self, expr: ast.Call, env, ptrs) -> Alts:
        name = expr.callee
        is_int = (getattr(expr, "ctype", None) is not None
                  and expr.ctype.is_integer())
        args = [self._eval_any(a, env, ptrs) for a in expr.args]
        # Any pointer reaching an unmodelled builtin (vload/vstore,
        # async copies, atomics) demotes its root to fallback mode.
        for arg in expr.args:
            actype = getattr(arg, "ctype", None)
            if isinstance(actype, (PointerType, ArrayType)):
                self._escape(arg, ptrs, f"pointer handed to {name}()")
        if not is_int:
            return _UNKNOWN
        if name in ("min", "max") and len(args) == 2:
            a = _single_form(args[0])
            b = _single_form(args[1])
            if a is not None and b is not None:
                one = AffineForm.const(1)
                if name == "min":  # a when a<=b, b when b<a
                    return ((a, (a - b,)), (b, (b - a + one,)))
                return ((a, (b - a,)), (b, (a - b + one,)))
        if name == "clamp" and len(args) == 3:
            x = _single_form(args[0])
            lo = _single_form(args[1])
            hi = _single_form(args[2])
            if x is not None and lo is not None and hi is not None:
                one = AffineForm.const(1)
                return ((x, (lo - x, x - hi)),
                        (lo, (x - lo + one,)),
                        (hi, (hi - x + one,)))
        return _UNKNOWN

    def _eval_user_call(self, expr: ast.Call, callee: ast.FunctionDef,
                        env, ptrs) -> Alts:
        if self._depth >= _MAX_CALL_DEPTH:
            for arg in expr.args:
                actype = getattr(arg, "ctype", None)
                if isinstance(actype, (PointerType, ArrayType)):
                    self._escape(arg, ptrs, "call nesting too deep")
                else:
                    self._eval_any(arg, env, ptrs)
            return _UNKNOWN
        callee_env: Dict[str, Alts] = {}
        callee_ptrs: Dict[str, Optional[_Ptr]] = {}
        for param, arg in zip(callee.params, expr.args):
            ctype = param.declared_type
            if isinstance(ctype, (PointerType, ArrayType)):
                ptr = self._eval_pointer(arg, env, ptrs)
                if ptr is _NOT_POINTER or ptr is None:
                    self._escape(arg, ptrs, _UNROOTED)
                    callee_ptrs[param.name] = None
                else:
                    callee_ptrs[param.name] = ptr
                    intent = self.declared.get((callee.name, param.name))
                    if intent is not None:
                        self._flag(_param_root(ptr), intent)
            elif ctype.is_integer():
                callee_env[param.name] = self._eval_any(arg, env, ptrs)
            else:
                self._eval_any(arg, env, ptrs)
                callee_env[param.name] = _UNKNOWN
        self._depth += 1
        self._returns_stack.append(([], len(self.guards)))
        try:
            self.exec_stmt(callee.body, callee_env, callee_ptrs)
        finally:
            collected, depth = self._returns_stack.pop()
            # Early returns in the callee (`if (c) return x;`) guard the
            # *callee's* remaining statements by extending self.guards;
            # those guards must not outlive the call, or the caller's
            # subsequent accesses would be narrowed by them.
            del self.guards[depth:]
            self._depth -= 1
        is_int = (getattr(expr, "ctype", None) is not None
                  and expr.ctype.is_integer())
        if is_int and 0 < len(collected) <= MAX_ALTS:
            return tuple(collected)
        return _UNKNOWN

    # -- statements ----------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, env, ptrs) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.statements:
                self.exec_stmt(child, env, ptrs)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._exec_decl(decl, env, ptrs)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._eval_any(stmt.expr, env, ptrs)
        elif isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt, env, ptrs)
        elif isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt, env, ptrs)
        elif isinstance(stmt, ast.WhileStmt):
            before = dict(ptrs)
            self._havoc(stmt.body, env, ptrs)
            then_g, _else_g = self.cond_guards(stmt.condition, env, ptrs)
            depth = len(self.guards)
            if then_g:
                self.guards.extend(then_g)
            self.exec_stmt(stmt.body, env, ptrs)
            del self.guards[depth:]
            self._havoc(stmt.body, env, ptrs, before)
        elif isinstance(stmt, ast.DoStmt):
            before = dict(ptrs)
            self._havoc(stmt.body, env, ptrs)
            depth = len(self.guards)
            self.exec_stmt(stmt.body, env, ptrs)
            del self.guards[depth:]
            self.cond_guards(stmt.condition, env, ptrs)
            self._havoc(stmt.body, env, ptrs, before)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                value = self._eval_any(stmt.value, env, ptrs)
                if self._returns_stack:
                    collected, depth = self._returns_stack[-1]
                    extra = tuple(self.guards[depth:])
                    for f, g in value:
                        collected.append((f, extra + g))
        elif isinstance(stmt, ast.SwitchStmt):
            self._eval_any(stmt.subject, env, ptrs)
            before = dict(ptrs)
            for case in stmt.cases:
                depth = len(self.guards)
                for child in case.body:
                    self.exec_stmt(child, env, ptrs)
                # A later case can be entered directly, and the code after
                # the switch reached by a break: the guards an early return
                # in this case added do not hold there.
                del self.guards[depth:]
                # Fallthrough, early breaks and unmatched subjects: a later
                # case, and the code after the switch, may see any state
                # of this one — forget what it assigns.
                self._havoc(ast.CompoundStmt(case.body, stmt.span), env, ptrs,
                            before)
        # Break/Continue: no effect on the abstract state.

    def _exec_decl(self, decl: ast.VarDecl, env, ptrs) -> None:
        ctype = decl.declared_type
        if isinstance(ctype, ArrayType):
            ptrs[decl.name] = _Ptr("array", decl.name, AffineForm.const(0),
                                   ctype.flat_length())
            if decl.init is not None:
                self._eval_any(decl.init, env, ptrs)
            return
        if isinstance(ctype, PointerType):
            if decl.init is not None:
                ptr = self._eval_pointer(decl.init, env, ptrs)
                if ptr is _NOT_POINTER or ptr is None:
                    self._escape(decl.init, ptrs, _UNROOTED)
                    ptrs[decl.name] = None
                else:
                    self._alias(ptr, f"aliased by local pointer {decl.name!r}")
                    ptrs[decl.name] = ptr
            else:
                ptrs[decl.name] = None
            return
        if decl.init is not None:
            value = self._eval_any(decl.init, env, ptrs)
            env[decl.name] = value if ctype.is_integer() else _UNKNOWN
        else:
            env[decl.name] = _UNKNOWN

    def _exec_if(self, stmt: ast.IfStmt, env, ptrs) -> None:
        then_g, else_g = self.cond_guards(stmt.condition, env, ptrs)
        depth = len(self.guards)

        then_env, then_ptrs = dict(env), dict(ptrs)
        if then_g:
            self.guards.extend(then_g)
        self.exec_stmt(stmt.then_branch, then_env, then_ptrs)
        del self.guards[depth:]

        else_env, else_ptrs = dict(env), dict(ptrs)
        if stmt.else_branch is not None:
            if else_g:
                self.guards.extend(else_g)
            self.exec_stmt(stmt.else_branch, else_env, else_ptrs)
            del self.guards[depth:]

        # `if (cond) return;` guards the rest of the function.
        if ast.always_returns(stmt.then_branch) and stmt.else_branch is None:
            env.clear()
            env.update(else_env)
            ptrs.clear()
            ptrs.update(else_ptrs)
            if else_g:
                self.guards.extend(else_g)
            return
        if stmt.else_branch is not None and ast.always_returns(stmt.else_branch):
            env.clear()
            env.update(then_env)
            ptrs.clear()
            ptrs.update(then_ptrs)
            if then_g:
                self.guards.extend(then_g)
            return
        self._join_branches(env, ptrs, [(then_env, then_ptrs, then_g),
                                        (else_env, else_ptrs, else_g)])

    def _join_branches(self, env, ptrs, branches) -> None:
        names = set(env)
        for branch_env, _bp, _g in branches:
            names |= set(branch_env)
        joined: Dict[str, Alts] = {}
        for name in names:
            # A variable no branch reassigned keeps its value verbatim —
            # tagging it with branch guards would only multiply
            # alternatives and defeat _single_form downstream.
            if name in env and all(
                    branch_env.get(name) is env[name]
                    for branch_env, _bp, _g in branches):
                joined[name] = env[name]
                continue
            alts: List[Alt] = []
            for branch_env, _bp, branch_guards in branches:
                value = branch_env.get(name, _UNKNOWN)
                extra: Guards = branch_guards or ()
                for f, g in value:
                    alts.append((f, extra + g))
            # Collapse identical alternatives, then cap.
            seen = {}
            for f, g in alts:
                key = (None if f is None else f.key(), g)
                if key not in seen:
                    seen[key] = (f, g)
            merged = tuple(seen.values())
            if len(merged) > MAX_ALTS or any(f is None for f, _ in merged):
                joined[name] = _UNKNOWN
            else:
                joined[name] = merged
        env.clear()
        env.update(joined)
        # Pointers declared inside a branch die with it; the others may
        # hold whatever any branch left in them.
        for name in list(ptrs):
            ptrs[name] = self._join_ptr([bp.get(name) for _be, bp, _g in branches])

    def _join_ptr(self, values: List[Optional[_Ptr]]) -> Optional[_Ptr]:
        """One pointer value for several paths: the shared root (with an
        unknown offset where the offsets differ), or None — and every
        parameter root involved escapes — when the roots differ."""
        first = values[0]
        if all(v is first for v in values):
            return first
        if first is not None and all(
                v is not None and (v.kind, v.name) == (first.kind, first.name)
                for v in values):
            if first.offset is not None and all(
                    v.offset is not None and v.offset == first.offset
                    for v in values):
                return first
            return _unknown_offset(first)
        for value in values:
            root = _param_root(value)
            if root is not None:
                self._flag(root, "rw")
                self._fallback(root, "pointer joins several roots")
                self.escapes.setdefault(root, "pointer joins several roots")
        return None

    def _havoc(self, stmt: ast.Node, env, ptrs, before=None) -> None:
        """Forget what a loop assigns: integers become unknown; a pointer
        keeps its root with an unknown offset.  ``before`` (the pointers
        at loop entry) is given at loop exit, where a pointer may hold
        its entry value or whatever the body left in it."""
        for name in _assigned_names(stmt):
            if name in ptrs:
                value = ptrs[name]
                if before is not None and name in before:
                    value = self._join_ptr([before[name], value])
                ptrs[name] = _unknown_offset(value)
            else:
                env[name] = _UNKNOWN

    def _exec_for(self, stmt: ast.ForStmt, env, ptrs) -> None:
        induction = self._match_affine_loop(stmt, env, ptrs)
        if induction is None and stmt.init is not None:
            self.exec_stmt(stmt.init, env, ptrs)
        body_env, body_ptrs = dict(env), dict(ptrs)
        # Widen everything the loop assigns; a matched induction
        # variable is init + t * step instead.
        self._havoc(stmt, body_env, body_ptrs)
        if induction is not None:
            name, init, step = induction
            symbolic = init + AffineForm.sym(self._fresh_iv()).scale(step)
            body_env[name] = ((symbolic, ()),)
        depth = len(self.guards)
        if stmt.condition is not None:
            then_g, _ = self.cond_guards(stmt.condition, body_env, body_ptrs)
            self.guards.extend(then_g or ())
        self.exec_stmt(stmt.body, body_env, body_ptrs)
        if stmt.increment is not None:
            self._eval_any(stmt.increment, body_env, body_ptrs)
        del self.guards[depth:]
        # After the loop everything it may assign is unknown.
        self._havoc(stmt, env, ptrs, body_ptrs)
        if isinstance(stmt.init, ast.DeclStmt):
            for decl in stmt.init.decls:
                env.pop(decl.name, None)

    def _match_affine_loop(self, stmt: ast.ForStmt, env, ptrs):
        """Match ``for (i = init; cond; i += step)`` with an affine init
        and a *uniform* step; returns (name, init_form, step_uexpr)."""
        name = None
        init_form = None
        if isinstance(stmt.init, ast.DeclStmt) and len(stmt.init.decls) == 1:
            decl = stmt.init.decls[0]
            if decl.init is not None and not isinstance(
                    decl.declared_type, (PointerType, ArrayType)):
                name = decl.name
                init_form = _single_form(self.eval_int(decl.init, env, ptrs))
        elif isinstance(stmt.init, ast.ExprStmt) and isinstance(
                stmt.init.expr, ast.Assignment) and stmt.init.expr.op == "=":
            target = stmt.init.expr.target
            if isinstance(target, ast.Identifier) and target.name not in ptrs:
                name = target.name
                init_form = _single_form(
                    self.eval_int(stmt.init.expr.value, env, ptrs))
        if name is None or init_form is None:
            return None

        step: Optional[UExpr] = None
        inc = stmt.increment
        if isinstance(inc, (ast.UnaryOp, ast.PostfixOp)) and inc.op in ("++", "--"):
            if isinstance(inc.operand, ast.Identifier) and inc.operand.name == name:
                step = UExpr.const(1 if inc.op == "++" else -1)
        elif isinstance(inc, ast.Assignment) and inc.op in ("+=", "-="):
            if isinstance(inc.target, ast.Identifier) and inc.target.name == name:
                form = _single_form(self.eval_int(inc.value, env, ptrs))
                if form is not None and form.is_uniform:
                    step = form.base if inc.op == "+=" else -form.base
        if step is None:
            return None
        # The induction variable must not be re-assigned inside the body.
        if name in _assigned_names(stmt.body):
            return None
        return name, init_form, step


_NOT_POINTER = object()

_UNROOTED = "pointer aliasing the analysis cannot root"

#: MapOverlap's neighbourhood accessor, declared as a prototype when the
#: customizing function is checked (see :func:`prove_get_bounds`).
ACCESSOR = "get"


def _param_root(ptr) -> Optional[str]:
    """The parameter a pointer value is rooted at, if any."""
    if isinstance(ptr, _Ptr) and ptr.kind == "param":
        return ptr.name
    return None


def _elem_size(ctype: CType) -> int:
    try:
        return ctype.sizeof()
    except TypeError:
        return 1


def _assigned_names(stmt: ast.Stmt) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Assignment) and isinstance(
                node.target, ast.Identifier):
            names.add(node.target.name)
        elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and \
                getattr(node, "op", "") in ("++", "--"):
            if isinstance(node.operand, ast.Identifier):
                names.add(node.operand.name)
        elif isinstance(node, ast.VarDecl):
            names.add(node.name)
    return names


# -- public entry ------------------------------------------------------------


def _mode(flags) -> str:
    if "r" in flags and "w" in flags:
        return "rw"
    return "w" if "w" in flags else "r"


def summarize_kernel(program: ast.Program,
                     fn: ast.FunctionDef) -> KernelSummary:
    """Access summary of one function (kernel or helper) of a *checked*
    program; uncached — consumers call :func:`kernel_facts`.

    Anything the scanner cannot model becomes a per-parameter fallback
    with a reason.  A parameter's mode is read only through a
    ``const``-qualified pointer; a declared intent replaces it verbatim.
    """
    scanner = _Scanner(program, fn)
    scanner.run()
    pointers: Dict[str, ParamSummary] = {}
    for name, ctype in scanner.pointer_params.items():
        mode = "r" if ctype.is_const else _mode(scanner.flags[name])
        pointers[name] = ParamSummary(
            name, ctype.address_space, _elem_size(ctype.pointee),
            [f for f in scanner.footprints if f.param == name],
            scanner.fallbacks.get(name),
            scanner.declared.get((fn.name, name), mode),
            scanner.escapes.get(name))
    return KernelSummary(fn.name, pointers, scanner.array_sites,
                         _parse_reqd_wg(fn), scanner.get_sites)


_SUMMARY_ATTR = "_skelaccess_summary"


def kernel_facts(program: ast.Program, fn: ast.FunctionDef) -> KernelSummary:
    """The kernel facts of ``fn``, computed once and kept on the checked
    ``FunctionDef`` (so the persistent program cache carries them too).

    An analyzer crash never passes silently as "not affine": it becomes
    a fallback on every pointer parameter, mode ``rw``, with the reason
    ``analyzer error: <ExceptionType>`` — and under
    ``SKELCL_SANITIZE=strict`` it is re-raised.
    """
    cached = getattr(fn, _SUMMARY_ATTR, None)
    if cached is not None:
        return cached
    try:
        cached = summarize_kernel(program, fn)
    except Exception as exc:
        from .races import SanitizeMode, resolve_sanitize_mode

        if resolve_sanitize_mode(None) is SanitizeMode.STRICT:
            raise
        reason = f"analyzer error: {type(exc).__name__}"
        pointers = {
            p.name: ParamSummary(p.name, p.declared_type.address_space,
                                 _elem_size(p.declared_type.pointee),
                                 fallback_reason=reason, mode="rw")
            for p in fn.params if isinstance(p.declared_type, PointerType)
        }
        cached = KernelSummary(fn.name, pointers, [], _parse_reqd_wg(fn))
    setattr(fn, _SUMMARY_ATTR, cached)
    return cached


# -- the MapOverlap get() proof ---------------------------------------------


@dataclass
class BoundsProof:
    """Whether every neighbourhood offset of a MapOverlap customizing
    function provably lies in ``[-d, d]``."""

    proven: bool
    #: Inclusive range of every offset the proof bounded.
    accesses: List[Tuple[int, int]]
    reason: str = ""

    @property
    def reach(self) -> int:
        """The largest ``|offset|`` (0 without accesses)."""
        return max((max(-lo, hi) for lo, hi in self.accesses), default=0)


_NEVER = object()


def _iv_concrete(form: Optional[AffineForm]):
    """``(base, {iv: coeff})`` of a form over constants and loop-induction
    symbols only; None for anything else."""
    if form is None or not form.base.is_const or not all(
            c.is_const and s[0] == "iv" for s, c in form.terms.items()):
        return None
    return form.base.const_value, {s: c.const_value for s, c in form.terms.items()}


def _offset_range(form: Optional[AffineForm], guards: Guards):
    """Inclusive range of an offset with no uniform symbol, over its
    loop-induction symbols narrowed through ``guards``: None when it
    cannot be bounded, :data:`_NEVER` when the guards are infeasible."""
    offset = _iv_concrete(form)
    if offset is None:
        return None
    base, coeffs = offset
    # A guard over anything else is dropped: that only widens the range.
    concrete = [g for g in map(_iv_concrete, guards) if g is not None]
    syms = set(coeffs) | {s for _b, gc in concrete for s in gc}
    ranges = narrow_ranges(concrete, {s: (0, IV_LIMIT) for s in syms})
    if ranges is None:
        return _NEVER
    return (base + sum(min(c * ranges[s][0], c * ranges[s][1]) for s, c in coeffs.items()),
            base + sum(max(c * ranges[s][0], c * ranges[s][1]) for s, c in coeffs.items()))


def prove_get_bounds(summary: KernelSummary, overlap: int) -> BoundsProof:
    """Prove every neighbourhood access of a MapOverlap customizing
    function — each ``get`` offset, and each direct access through its
    pointer parameter — lies in ``[-overlap, overlap]``.

    ``summary`` is the facts of the customizing function checked against
    an ``ACCESSOR`` prototype.  A pointer that escapes the pass (an
    alias, a cast, a hand-off to an unknown callee) fails the proof:
    accesses through it are invisible.
    """
    offsets = [(alts, site.guards)
               for site in summary.get_sites for alts in site.offsets]
    pointer = next(iter(summary.pointers.values()), None)
    if pointer is not None:
        if pointer.escape is not None:
            return BoundsProof(
                False, [], f"pointer parameter {pointer.name!r} escapes the "
                f"tracked access patterns ({pointer.escape})")
        if pointer.fallback_reason is not None:
            return BoundsProof(False, [], pointer.fallback_reason)
        offsets += [(((fp.index, ()),), fp.guards) for fp in pointer.footprints]
    if not offsets:
        return BoundsProof(True, [], "no get() accesses")
    ranges: List[Tuple[int, int]] = []
    for alts, guards in offsets:
        for form, alt_guards in alts:
            span = _offset_range(form, guards + alt_guards)
            if span is _NEVER:
                continue  # never executes
            if span is None:
                shown = "a non-affine offset" if form is None else \
                    f"offset {form.format()}"
                return BoundsProof(False, ranges,
                                   f"{shown} has no constant bounds")
            ranges.append(span)
            lo, hi = span
            if lo < -overlap or hi > overlap:
                return BoundsProof(
                    False, ranges,
                    f"offset interval [{lo}, {hi}] may exceed ±{overlap}")
    return BoundsProof(True, ranges, "all offsets within range")


# -- enqueue-time evaluation -------------------------------------------------


@dataclass
class EvalEnv:
    uniforms: Dict[Sym, int]
    ranges: Dict[Sym, Tuple[int, int]]  # variant sym -> inclusive range


def make_eval_env(global_size: Sequence[int], local_size: Sequence[int],
                  scalars: Dict[str, int]) -> EvalEnv:
    """Concrete evaluation environment for one NDRange launch."""
    uniforms: Dict[Sym, int] = {}
    ranges: Dict[Sym, Tuple[int, int]] = {}
    for d in range(3):
        gsize = int(global_size[d]) if d < len(global_size) else 1
        lsize = int(local_size[d]) if d < len(local_size) else 1
        lsize = max(1, lsize)
        ngroups = max(1, gsize // lsize if lsize else 1)
        uniforms[("gsize", d)] = gsize
        uniforms[("lsize", d)] = lsize
        uniforms[("ngroups", d)] = ngroups
        ranges[("gid", d)] = (0, max(0, gsize - 1))
        ranges[("lid", d)] = (0, max(0, lsize - 1))
        ranges[("grp", d)] = (0, max(0, ngroups - 1))
    for name, value in scalars.items():
        uniforms[("param", name)] = int(value)
    return EvalEnv(uniforms, ranges)


class Unresolvable(Exception):
    """A footprint references a symbol the launch does not bind."""


@dataclass(frozen=True)
class ResolvedAccess:
    """A concrete byte range: ``start + k*stride .. +width`` per step.

    ``stride == 0`` means the range is dense (every byte in
    ``[start, stop)`` may be touched)."""

    start: int
    stop: int
    stride: int
    width: int
    mode: str


def _concrete(form: AffineForm, env: EvalEnv):
    """(const base, {variant sym: int coeff}) with uniforms folded."""
    base = form.base.evaluate(env.uniforms)
    coeffs: Dict[Sym, int] = {}
    for sym, coeff in form.terms.items():
        value = coeff.evaluate(env.uniforms)
        if value:
            coeffs[sym] = value
    return base, coeffs


def _sym_range(sym: Sym, ranges: Dict[Sym, Tuple[int, int]]) -> Tuple[int, int]:
    if sym in ranges:
        return ranges[sym]
    if sym[0] == "iv":
        return (0, IV_LIMIT)
    raise Unresolvable(f"no range for {sym}")


def narrow_ranges(guards: Sequence[Tuple[int, Dict[Sym, int]]],
                  ranges: Dict[Sym, Tuple[int, int]],
                  passes: int = 4) -> Optional[Dict[Sym, Tuple[int, int]]]:
    """Narrow variant-symbol ranges through affine guards ``base +
    sum(c*s) <= 0``; returns None when some guard is infeasible."""
    ranges = dict(ranges)
    for _ in range(passes):
        changed = False
        for base, coeffs in guards:
            if not coeffs:
                if base > 0:
                    return None
                continue
            for sym, c in coeffs.items():
                rest_lo = base
                for other, oc in coeffs.items():
                    if other is sym:
                        continue
                    lo, hi = _sym_range(other, ranges)
                    rest_lo += min(oc * lo, oc * hi)
                lo, hi = _sym_range(sym, ranges)
                if c > 0:
                    bound = (-rest_lo) // c  # floor(-rest_lo / c)
                    if bound < hi:
                        hi = bound
                        changed = True
                else:
                    bound = -(rest_lo // c)  # ceil(-rest_lo / c)
                    if bound > lo:
                        lo = bound
                        changed = True
                if lo > hi:
                    return None
                ranges[sym] = (lo, hi)
        if not changed:
            break
    return ranges


def resolve_footprint(fp: Footprint, env: EvalEnv, elem_size: int,
                      buffer_nbytes: int) -> Optional[ResolvedAccess]:
    """Concrete byte range of one footprint under one launch.

    Returns None when the guards are infeasible (the access never
    executes); raises :class:`Unresolvable` when a scalar the footprint
    needs is not in the environment (callers fall back to whole-chunk).
    """
    try:
        base, coeffs = _concrete(fp.index, env)
        guard_list = [_concrete(g, env) for g in fp.guards]
    except KeyError as exc:
        raise Unresolvable(f"unbound symbol {exc.args[0]!r}") from None
    ranges = {s: _sym_range(s, env.ranges) for s in coeffs}
    for _gb, gc in guard_list:
        for s in gc:
            ranges.setdefault(s, _sym_range(s, env.ranges))
    narrowed = narrow_ranges(guard_list, ranges)
    if narrowed is None:
        return None
    lo = hi = base
    for sym, c in coeffs.items():
        rlo, rhi = narrowed[sym]
        lo += min(c * rlo, c * rhi)
        hi += max(c * rlo, c * rhi)
    # A guard of the shape `index + u <= 0` bounds the index exactly
    # even when the box over-approximates (grid-stride loops).
    for gbase, gcoeffs in guard_list:
        if gcoeffs == coeffs:
            hi = min(hi, base - gbase)  # index <= -(gbase - base)
        if all(gcoeffs.get(s) == -c for s, c in coeffs.items()) and \
                len(gcoeffs) == len(coeffs):
            lo = max(lo, gbase + base)
    buffer_elems = buffer_nbytes // elem_size if elem_size else 0
    lo = max(lo, 0)
    hi = min(hi, max(0, buffer_elems - 1))
    if lo > hi:
        return None
    stride = 0
    active = [abs(c) for sym, c in coeffs.items()
              if narrowed[sym][0] != narrowed[sym][1]]
    if active:
        g = 0
        for c in active:
            g = math.gcd(g, c)
        if g >= 2:
            stride = g * elem_size
    start = lo * elem_size
    stop = (hi + 1) * elem_size
    width = elem_size if stride else 0
    return ResolvedAccess(start, stop, stride, width, fp.mode)
