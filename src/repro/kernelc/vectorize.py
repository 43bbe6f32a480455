"""Vectorized (lockstep) NDRange engine.

Evaluates a type-checked kernel AST over every selected work-item of an
NDRange at once, using numpy array operations: one statement is executed
for all active lanes simultaneously under a boolean mask.  ``if``/``?:``
become masked selects, loops become fixed-point iteration over a
shrinking live-lane mask, buffer accesses become gathers/scatters, and
``barrier()`` becomes a per-group all-or-none mask check.

It is the production engine and is held to a *bit-exactness contract*
with the per-item reference interpreter (:mod:`.interp`): for any
conforming kernel, output buffers and every ``ExecutionCounters`` field
(ops, warp_ops, barriers, memory traffic) must be equal.
``tests/kernelc/test_vectorize_differential.py`` enforces the contract
with generated kernels.  Both engines share:

* **the charge schedule** of the static cost pass (:mod:`.cost`):
  ``{expression-id: ops}`` charged to every active lane when a
  statement runs, and ``{elided-load-id: source-load-id}``, whose
  elided loads reuse their source's lane values;
* **the value contract**: floats computed in double and rounded at
  stores and casts, signed ints exact and wrapped at stores and casts,
  unsigned ints masked at every op.  Here per-lane values live in
  ``float64``/``int64`` arrays (unsigned 8-byte values as 64-bit
  patterns) and *uniform* values stay exact Python scalars, so any
  value a conforming kernel can produce is represented exactly.
  Divergence is only possible under C undefined behaviour (signed
  overflow past 64 bits, out-of-range float→int casts);
* **constant folding**: the evaluator calls the same ``fold_constants``
  with a scope-mirrored const lookup before dispatching.

Intentional differences (documented, all under undefined behaviour):

* Barrier divergence is checked per barrier *statement* (each work-group
  must have all or none of its items at that statement), which is
  stricter than the per-item round-robin check for non-conforming
  kernels that reach *different* barrier statements in divergent
  branches.
* Assigning pointer values that diverge per-lane to different objects
  raises :class:`VectorizeError` (there is no numpy representation for
  a lane-varying object reference); conforming kernels in the corpus do
  not do this.
* With intra-group data races, lockstep statement order differs from
  the sequential per-item order, so racy kernels may produce different
  (still unspecified) results.

Kernels using constructs with no lockstep lowering (vector types,
pointer casts, barriers inside helper functions, …) are
rejected statically by :func:`plan_for` and fall back transparently to
the per-item interpreter.  ``switch`` statements run as masked case
dispatch: every lane computes its entry case, then the cases execute in
order with the union of lanes that have reached them (C fallthrough),
``break`` peeling lanes off into the switch's break mask.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import ast
from .builtins import ResolvedBuiltin, _strip_prefix
from .compiler import CompiledKernel
from .cost import _CMP_OPS, _is_literal, fold_constants
from .ctypes_ import (
    ArrayType,
    CType,
    PointerType,
    ScalarType,
    VectorType,
    convert_scalar,
    numpy_dtype,
)
from .execmodel import OPERATORS, c_fdiv, c_idiv, c_imod
from .interp import Machine, apply_builtin
from .memory import KernelFault

_I64 = np.int64
_U64 = np.uint64
_TWO63 = 1 << 63
_TWO64 = 1 << 64


class VectorizeError(RuntimeError):
    """A kernel hit a runtime situation the lockstep backend cannot
    represent (currently: merging divergent pointer values)."""


def _program_globals(kernel: CompiledKernel) -> Dict[str, object]:
    """``__constant`` data of the kernel's program as vector-engine
    values, cached on the program (its kernels' plans share it)."""
    program = kernel.program
    cached = getattr(program, "_vector_globals", None)
    if cached is not None:
        return cached
    values: Dict[str, object] = {}
    if program.globals:
        machine = Machine(program, schedule=kernel.schedule)
        for global_decl in program.globals:
            name = global_decl.decl.name
            value = machine.globals[name]
            if hasattr(value, "pointer"):  # ArrayRef
                ptr = value.pointer
                vptr = VPtr(ptr.array, ptr.element_type, ptr.address_space,
                            None, ptr.length, ptr.offset, None)
                value = VArray(vptr, value.element)
            values[name] = value
    program._vector_globals = values
    return values


class _KernelPlan:
    __slots__ = ("kernel", "charges", "cse", "globals")

    def __init__(self, kernel: CompiledKernel):
        self.kernel = kernel
        self.charges = kernel.schedule.charges
        self.cse = kernel.schedule.cse
        self.globals = _program_globals(kernel)


# ---------------------------------------------------------------------------
# Static support classifier.
# ---------------------------------------------------------------------------


def _contains_vector(ctype) -> bool:
    if isinstance(ctype, VectorType):
        return True
    if isinstance(ctype, PointerType):
        return _contains_vector(ctype.pointee)
    if isinstance(ctype, ArrayType):
        return _contains_vector(ctype.element)
    return False


def _function_reject_reason(fn: ast.FunctionDef) -> Optional[str]:
    if _contains_vector(fn.return_type):
        return "vector return type"
    for param in fn.params:
        if _contains_vector(param.declared_type):
            return "vector parameter type"
    if not fn.is_kernel and getattr(fn, "uses_barrier", False):
        return "barrier inside a helper function"
    for node in ast.walk(fn.body):
        if isinstance(node, ast.StringLiteral):
            return "string literal"
        if isinstance(node, ast.Member):
            return "vector component access"
        if isinstance(node, ast.VectorLiteral) and not getattr(node, "is_array_initializer", False):
            return "vector literal"
        if isinstance(node, ast.Cast) and isinstance(node.target_type, PointerType):
            return "pointer cast"
        if isinstance(node, ast.VarDecl):
            if _contains_vector(node.declared_type):
                return "vector variable"
            if node.address_space == "local" and not isinstance(node.declared_type, ArrayType):
                return "__local scalar variable"
            if node.address_space == "local" and not fn.is_kernel:
                return "__local declaration in a helper function"
        ctype = getattr(node, "ctype", None)
        if ctype is not None and _contains_vector(ctype):
            return "vector-typed expression"
        op_type = getattr(node, "op_type", None)
        if op_type is not None and _contains_vector(op_type):
            return "vector arithmetic"
    return None


def reject_reason(kernel: CompiledKernel) -> Optional[str]:
    """Why ``kernel`` cannot run on the vector backend (None = it can)."""
    # Reachable user functions (the type checker rejects recursion).
    order: List[ast.FunctionDef] = []
    seen: Set[int] = set()

    def visit(fn: ast.FunctionDef) -> Optional[str]:
        if id(fn) in seen:
            return None
        seen.add(id(fn))
        order.append(fn)
        for node in ast.walk(fn.body):
            if isinstance(node, ast.Call) and getattr(node, "kind", "") == "user":
                target = getattr(node, "callee_def", None)
                if target is None or target.body is None:
                    return "call to an undefined function"
                reason = visit(target)
                if reason is not None:
                    return reason
        return None

    reason = visit(kernel.definition)
    if reason is not None:
        return reason
    for fn in order:
        reason = _function_reject_reason(fn)
        if reason is not None:
            return reason
    for global_decl in kernel.program.globals:
        if _contains_vector(global_decl.decl.declared_type):
            return "vector-typed __constant global"
    return None


_MISSING = object()


def plan_for(kernel: CompiledKernel) -> Optional[_KernelPlan]:
    """An execution plan for ``kernel``, or None when the kernel must
    fall back to the per-item interpreter.  Cached on the kernel."""
    cached = kernel.__dict__.get("_vector_plan", _MISSING)
    if cached is not _MISSING:
        return cached
    plan: Optional[_KernelPlan] = None
    if reject_reason(kernel) is None:
        plan = _KernelPlan(kernel)
    kernel._vector_plan = plan
    return plan


# ---------------------------------------------------------------------------
# Runtime values: lane-wise pointers and arrays.
# ---------------------------------------------------------------------------


class VNull:
    """The null-pointer sentinel (default value of pointer variables).

    Mirrors the interpreter's ``NULL_POINTER``: truthy, compares
    unequal to real pointers without faulting, faults on any use."""

    _instance: Optional["VNull"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @staticmethod
    def _fault():
        raise KernelFault("use of an uninitialized (null) pointer")


_VNULL = VNull()


class VPtr:
    """A (possibly lane-varying) pointer into one flat numpy storage.

    ``offset`` is the logical element offset (Python int when uniform,
    int64 lanes array otherwise); ``base`` adds a per-lane storage-row
    origin for group-local and private allocations (None for storage
    shared by all lanes, e.g. global buffers)."""

    __slots__ = ("array", "element_type", "space", "tally", "length", "offset", "base")

    def __init__(self, array, element_type: ScalarType, space: str, tally,
                 length: int, offset, base):
        self.array = array
        self.element_type = element_type
        self.space = space
        self.tally = tally
        self.length = length
        self.offset = offset
        self.base = base

    def add(self, delta) -> "VPtr":
        if isinstance(delta, np.ndarray) or isinstance(self.offset, np.ndarray):
            offset = _int_lanes_pair(self.offset, delta)
        else:
            offset = self.offset + int(delta)
        return VPtr(self.array, self.element_type, self.space, self.tally,
                    self.length, offset, self.base)

    def diff(self, other):
        if isinstance(other, VNull):
            VNull._fault()
        if not isinstance(other, VPtr) or self.array is not other.array:
            raise KernelFault("subtracting pointers into different objects")
        if isinstance(self.offset, np.ndarray) or isinstance(other.offset, np.ndarray):
            return _int_lanes_pair(self.offset, -_as_int_operand(other.offset))
        return self.offset - other.offset

    # -- lane-wise memory access ------------------------------------------

    def _positions(self, index, mask):
        """Logical element positions, bounds-checked for active lanes."""
        if isinstance(index, np.ndarray) or isinstance(self.offset, np.ndarray):
            where = _int_lanes_pair(self.offset, index)
        else:
            where = self.offset + int(index)
        if isinstance(where, np.ndarray):
            active = where[mask]
            bad = (active < 0) | (active >= self.length)
            if bad.any():
                first = int(active[np.argmax(bad)])
                raise KernelFault(
                    f"out-of-bounds {self.space} access: element {first} of {self.length}"
                )
        elif not 0 <= where < self.length:
            raise KernelFault(
                f"out-of-bounds {self.space} access: element {where} of {self.length}"
            )
        return where

    def _charge(self, count: int, store: bool) -> None:
        tally = self.tally
        if tally is None:
            return
        size = self.element_type.sizeof()
        if self.space in ("global", "constant"):
            if store:
                tally.global_stores += count
            else:
                tally.global_loads += count
            tally.global_bytes += count * size
        elif self.space == "local":
            if store:
                tally.local_stores += count
            else:
                tally.local_loads += count
            tally.local_bytes += count * size

    def gather(self, index, mask):
        where = self._positions(index, mask)
        count = int(np.count_nonzero(mask))
        if not isinstance(where, np.ndarray) and self.base is None:
            self._charge(count, store=False)
            value = self.array[where].item()
            if self.element_type.is_float():
                return float(value)
            return int(value)
        rows = np.where(mask, where, 0) if isinstance(where, np.ndarray) \
            else np.full(mask.shape, where, dtype=_I64)
        if self.base is not None:
            rows = rows + np.where(mask, self.base, 0)
        self._charge(count, store=False)
        values = self.array[rows]
        if self.element_type.is_float():
            out = values.astype(np.float64)
        else:
            out = values.astype(_I64)
        return np.where(mask, out, 0)

    def scatter(self, index, value, mask) -> None:
        where = self._positions(index, mask)
        count = int(np.count_nonzero(mask))
        self._charge(count, store=True)
        if not isinstance(where, np.ndarray):
            rows = np.full(mask.shape, where, dtype=_I64)
        else:
            rows = where
        if self.base is not None:
            rows = rows + np.where(mask, self.base, 0)
        active_rows = rows[mask]
        if isinstance(value, np.ndarray):
            active_values = value[mask]
            etype = self.element_type
            if etype.is_bool():
                converted = (active_values != 0).astype(self.array.dtype)
            elif etype.is_integer() and active_values.dtype.kind == "f":
                converted = _float_lanes_to_int(active_values, None).astype(self.array.dtype)
            else:
                converted = active_values.astype(self.array.dtype)
            self.array[active_rows] = converted
        else:
            self.array[active_rows] = convert_scalar(value, self.element_type)


class VArray:
    """Mirror of :class:`memory.ArrayRef` over a :class:`VPtr`."""

    __slots__ = ("pointer", "element")

    def __init__(self, pointer: VPtr, element: CType):
        self.pointer = pointer
        self.element = element

    def index(self, i) -> "VArray":
        assert isinstance(self.element, ArrayType), "scalar rows are accessed via the flat pointer"
        stride = self.element.flat_length()
        return VArray(self.pointer.add(_mul_index(i, stride)), self.element.element)

    def decayed(self) -> VPtr:
        if isinstance(self.element, ArrayType):
            raise KernelFault("cannot decay a multi-dimensional array to a flat pointer")
        return self.pointer


def _mul_index(i, stride: int):
    if stride == 1:
        return i
    if isinstance(i, np.ndarray):
        return i * stride
    return int(i) * stride


# ---------------------------------------------------------------------------
# Scalar-domain helpers (uniform Python values <-> int64/float64 lanes).
# ---------------------------------------------------------------------------


def _wrap_to_i64(value: int) -> int:
    """Two's-complement 64-bit pattern of an arbitrary Python int."""
    return ((int(value) + _TWO63) % _TWO64) - _TWO63


def _as_int_operand(v):
    """Numpy-safe form of an integer operand (arrays pass through)."""
    if isinstance(v, np.ndarray):
        return v
    return _I64(_wrap_to_i64(v))


def _int_lanes_pair(a, b):
    return _as_int_operand(a) + _as_int_operand(b)


def _int_lanes(v, n: int) -> np.ndarray:
    if isinstance(v, np.ndarray):
        return v
    return np.full(n, _wrap_to_i64(v), dtype=_I64)


def _float_lanes(v, n: int) -> np.ndarray:
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f":
            return v
        return v.astype(np.float64)
    return np.full(n, float(v), dtype=np.float64)


def _is_float_value(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, float)


def _float_lanes_to_int(values: np.ndarray, mask) -> np.ndarray:
    """Per-lane ``int(v)`` (truncation) with CPython's error behaviour."""
    if mask is not None:
        active = values[mask]
    else:
        active = values
    if np.isnan(active).any():
        raise ValueError("cannot convert float NaN to integer")
    if np.isinf(active).any():
        raise OverflowError("cannot convert float infinity to integer")
    safe = values
    if mask is not None:
        safe = np.where(mask, values, 0.0)
    truncated = np.trunc(safe)
    huge = np.abs(truncated) >= float(_TWO63)
    out = np.empty(values.shape, dtype=_I64)
    np.copyto(out, truncated.astype(_I64, casting="unsafe"), where=~huge)
    if huge.any():
        for lane in np.nonzero(huge)[0]:
            out[lane] = _wrap_to_i64(int(truncated[lane]))
    return out


def _wrap_signed_lanes(v, bits: int):
    """Two's-complement wrap to ``bits``, valid on both domains."""
    if not isinstance(v, np.ndarray):
        half = 1 << (bits - 1)
        return ((int(v) + half) & ((1 << bits) - 1)) - half
    if bits >= 64:
        return v  # int64 lanes already are the 64-bit pattern
    half = _I64(1 << (bits - 1))
    full = _I64((1 << bits) - 1)
    return ((v + half) & full) - half


def _popcount(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# Control-flow bookkeeping.
# ---------------------------------------------------------------------------


class _Slot:
    __slots__ = ("value", "const")

    def __init__(self, value, const=None):
        self.value = value
        self.const = const


class _LoopCtx:
    __slots__ = ("break_mask", "continue_mask")

    def __init__(self, n: int):
        self.break_mask = np.zeros(n, dtype=bool)
        self.continue_mask = np.zeros(n, dtype=bool)


class _SwitchCtx:
    """Break target of a ``switch``: shares ``break_mask`` duck-typing
    with :class:`_LoopCtx` (a ``break`` binds to the innermost entry of
    ``frame.loops``), but ``continue`` skips over it to the loop."""

    __slots__ = ("break_mask",)

    def __init__(self, n: int):
        self.break_mask = np.zeros(n, dtype=bool)


class _Frame:
    __slots__ = ("function", "scopes", "ret_value", "ret_mask", "loops")

    def __init__(self, function: ast.FunctionDef, n: int):
        self.function = function
        self.scopes: List[Dict[str, _Slot]] = [{}]
        self.ret_value = None
        self.ret_mask = np.zeros(n, dtype=bool)
        self.loops: List[_LoopCtx] = []


# ---------------------------------------------------------------------------
# The evaluator.
# ---------------------------------------------------------------------------


class _Evaluator:
    def __init__(self, plan: _KernelPlan, counters, lanes):
        self.plan = plan
        self.counters = counters
        self.lanes = lanes  # _LaneLayout
        self.n = lanes.n
        self.ops_lanes = np.zeros(self.n, dtype=_I64)
        self.frames: List[_Frame] = []
        self._load_values: Dict[int, object] = {}
        self._local_storage: Dict[int, VArray] = {}

    # -- environment -------------------------------------------------------

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]

    def _lookup(self, name: str) -> Optional[_Slot]:
        for scope in reversed(self.frame.scopes):
            slot = scope.get(name)
            if slot is not None:
                return slot
        return None

    def _const_lookup(self, name: str):
        slot = self._lookup(name)
        if slot is None:
            return None
        return slot.const

    def _bind(self, name: str, value, const=None) -> _Slot:
        slot = _Slot(value, const)
        self.frame.scopes[-1][name] = slot
        return slot

    # -- charging ----------------------------------------------------------

    def _charge(self, node: ast.Node, mask: np.ndarray) -> None:
        cost = self.plan.charges.get(id(node))
        if cost:
            self.ops_lanes[mask] += cost

    # -- value plumbing ----------------------------------------------------

    def _decay(self, value, ctype):
        if isinstance(ctype, ArrayType):
            if isinstance(value, VNull):
                VNull._fault()
            return value.decayed()
        return value

    def _truthy_mask(self, value, mask: np.ndarray) -> np.ndarray:
        if isinstance(value, np.ndarray):
            return mask & (value != 0)
        if isinstance(value, (VPtr, VArray, VNull)):
            return mask.copy()
        return mask.copy() if value else np.zeros_like(mask)

    def _merge(self, old, new, mask: np.ndarray):
        """Masked phi: ``new`` on active lanes, ``old`` elsewhere."""
        if bool(mask.all()):
            return new
        if old is new:
            return new
        old_ptr = isinstance(old, (VPtr, VArray, VNull))
        new_ptr = isinstance(new, (VPtr, VArray, VNull))
        if old_ptr or new_ptr:
            if isinstance(old, VPtr) and isinstance(new, VPtr) \
                    and old.array is new.array and old.base is new.base:
                offset = np.where(mask, _int_lanes(new.offset, self.n),
                                  _int_lanes(old.offset, self.n))
                return VPtr(new.array, new.element_type, new.space, new.tally,
                            new.length, offset, new.base)
            if isinstance(old, VNull) and isinstance(new, VNull):
                return new
            if old is _VNULL and isinstance(new, VArray):
                # decl-default replaced by an array binding: lanes outside
                # the mask could only observe this through UB.
                return new
            raise VectorizeError(
                "divergent pointer values cannot be merged on the vector "
                "backend (lanes would point into different objects)"
            )
        if not isinstance(old, np.ndarray) and not isinstance(new, np.ndarray):
            if isinstance(old, float) or isinstance(new, float):
                if isinstance(old, float) and isinstance(new, float):
                    if (old == new and math.copysign(1.0, old) == math.copysign(1.0, new)) \
                            or (math.isnan(old) and math.isnan(new)):
                        return new
            elif old == new:
                return new
        if _is_float_value(old) or _is_float_value(new):
            return np.where(mask, _float_lanes(new, self.n), _float_lanes(old, self.n))
        return np.where(mask, _int_lanes(new, self.n), _int_lanes(old, self.n))

    def _mask_unsigned(self, value, ctype) -> object:
        if not (isinstance(ctype, ScalarType) and ctype.is_integer()
                and not ctype.signed and not ctype.is_bool()):
            return value
        if isinstance(value, np.ndarray):
            if ctype.size == 8:
                return value  # 64-bit patterns are already "masked"
            return value & _I64((1 << ctype.bits) - 1)
        return value & ((1 << ctype.bits) - 1)

    # -- statements --------------------------------------------------------

    def exec_stmt_list(self, statements, mask: np.ndarray) -> np.ndarray:
        for stmt in statements:
            if not mask.any():
                return mask
            mask = self.exec_stmt(stmt, mask)
        return mask

    def exec_stmt(self, stmt: ast.Stmt, mask: np.ndarray) -> np.ndarray:
        kind = type(stmt).__name__
        handler = getattr(self, f"_stmt_{kind}")
        return handler(stmt, mask)

    def _stmt_CompoundStmt(self, stmt, mask):
        self.frame.scopes.append({})
        out = self.exec_stmt_list(stmt.statements, mask)
        self.frame.scopes.pop()
        return out

    def _stmt_DeclStmt(self, stmt, mask):
        for decl in stmt.decls:
            self._exec_decl(decl, mask)
        return mask

    def _exec_decl(self, decl: ast.VarDecl, mask: np.ndarray) -> None:
        ctype = decl.declared_type
        if decl.address_space == "local":
            self._bind(decl.name, self._local_storage[id(decl)])
            return
        if isinstance(ctype, ArrayType):
            self._bind(decl.name, self._make_private_array(decl, ctype))
            return
        if decl.init is not None:
            self._charge(decl.init, mask)
            value = self.eval(decl.init, mask)
            value = self._convert_relaxed(value, decl.init.ctype, ctype, mask)
        elif isinstance(ctype, PointerType):
            value = _VNULL
        elif ctype.is_float():
            value = 0.0
        else:
            value = 0
        slot = self._bind(decl.name, value)
        if decl.is_const and decl.init is not None and isinstance(ctype, ScalarType):
            folded = fold_constants(decl.init, self._const_lookup)
            if folded is not None:
                slot.const = convert_scalar(folded, ctype)

    def _make_private_array(self, decl: ast.VarDecl, ctype: ArrayType) -> VArray:
        from .interp import _flatten_initializer

        flat = ctype.flat_length()
        element = ctype.base_element()
        storage = np.zeros(self.n * flat, dtype=numpy_dtype(element))
        if decl.init is not None:
            values = [convert_scalar(v, element) for v in _flatten_initializer(decl.init)]
            init_row = np.zeros(flat, dtype=numpy_dtype(element))
            init_row[: len(values)] = values
            storage.reshape(self.n, flat)[:, :] = init_row
        base = np.arange(self.n, dtype=_I64) * flat
        vptr = VPtr(storage, element, "private", None, flat, 0, base)
        return VArray(vptr, ctype.element)

    def _stmt_ExprStmt(self, stmt, mask):
        expr = stmt.expr
        if expr is None:
            return mask
        if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin" \
                and expr.resolved.kind == "barrier":
            self.eval(expr.args[0], mask)
            self.counters.barriers += _popcount(mask)
            self._check_barrier_mask(mask)
            return mask
        self._charge(expr, mask)
        self.eval(expr, mask)
        return mask

    def _check_barrier_mask(self, mask: np.ndarray) -> None:
        lanes = self.lanes
        counts = mask.reshape(lanes.num_groups, lanes.group_size).sum(axis=1)
        bad = (counts != 0) & (counts != lanes.group_size)
        if bad.any():
            raise KernelFault(
                "barrier divergence: some work-items of a group reached a "
                "barrier other items skipped"
            )

    def _stmt_IfStmt(self, stmt, mask):
        self._charge(stmt.condition, mask)
        condition = self.eval(stmt.condition, mask)
        then_mask = self._truthy_mask(condition, mask)
        else_mask = mask & ~then_mask
        then_out = then_mask
        if then_mask.any():
            self.frame.scopes.append({})
            then_out = self.exec_stmt(stmt.then_branch, then_mask)
            self.frame.scopes.pop()
        else_out = else_mask
        if stmt.else_branch is not None and else_mask.any():
            self.frame.scopes.append({})
            else_out = self.exec_stmt(stmt.else_branch, else_mask)
            self.frame.scopes.pop()
        return then_out | else_out

    def _loop_condition(self, condition, live):
        """Charge + evaluate a loop condition; live lanes that fail it
        exit the loop (they still pay for the failing check)."""
        if condition is None:
            return live
        self._charge(condition, live)
        value = self.eval(condition, live)
        return self._truthy_mask(value, live)

    def _stmt_WhileStmt(self, stmt, mask):
        done = np.zeros_like(mask)
        live = mask
        while live.any():
            passed = self._loop_condition(stmt.condition, live)
            done |= live & ~passed
            live = passed
            if not live.any():
                break
            ctx = _LoopCtx(self.n)
            self.frame.loops.append(ctx)
            self.frame.scopes.append({})
            out = self.exec_stmt(stmt.body, live)
            self.frame.scopes.pop()
            self.frame.loops.pop()
            done |= ctx.break_mask
            live = out | ctx.continue_mask
        return done

    def _stmt_ForStmt(self, stmt, mask):
        self.frame.scopes.append({})
        if stmt.init is not None:
            self.exec_stmt(stmt.init, mask)
        done = np.zeros_like(mask)
        live = mask
        while live.any():
            passed = self._loop_condition(stmt.condition, live)
            done |= live & ~passed
            live = passed
            if not live.any():
                break
            ctx = _LoopCtx(self.n)
            self.frame.loops.append(ctx)
            self.frame.scopes.append({})
            out = self.exec_stmt(stmt.body, live)
            self.frame.scopes.pop()
            self.frame.loops.pop()
            done |= ctx.break_mask
            live = out | ctx.continue_mask
            if stmt.increment is not None and live.any():
                self._charge(stmt.increment, live)
                self.eval(stmt.increment, live)
        self.frame.scopes.pop()
        return done

    def _stmt_DoStmt(self, stmt, mask):
        done = np.zeros_like(mask)
        live = mask
        while live.any():
            ctx = _LoopCtx(self.n)
            self.frame.loops.append(ctx)
            self.frame.scopes.append({})
            out = self.exec_stmt(stmt.body, live)
            self.frame.scopes.pop()
            self.frame.loops.pop()
            done |= ctx.break_mask
            check = out | ctx.continue_mask
            if not check.any():
                break
            self._charge(stmt.condition, check)
            value = self.eval(stmt.condition, check)
            passed = self._truthy_mask(value, check)
            done |= check & ~passed
            live = passed
        return done

    def _stmt_ReturnStmt(self, stmt, mask):
        frame = self.frame
        if frame.function.is_kernel or stmt.value is None:
            frame.ret_mask |= mask
            return np.zeros_like(mask)
        self._charge(stmt.value, mask)
        value = self.eval(stmt.value, mask)
        value = self._convert_relaxed(value, stmt.value.ctype,
                                      frame.function.return_type, mask)
        if frame.ret_value is None and not frame.ret_mask.any():
            frame.ret_value = value if bool(mask.all()) else self._merge(
                0.0 if _is_float_value(value) else 0, value, mask)
        else:
            frame.ret_value = self._merge(frame.ret_value, value, mask)
        frame.ret_mask |= mask
        return np.zeros_like(mask)

    def _stmt_BreakStmt(self, stmt, mask):
        self.frame.loops[-1].break_mask |= mask
        return np.zeros_like(mask)

    def _stmt_ContinueStmt(self, stmt, mask):
        # continue binds to the innermost *loop*, skipping switch contexts.
        for ctx in reversed(self.frame.loops):
            if isinstance(ctx, _LoopCtx):
                ctx.continue_mask |= mask
                break
        return np.zeros_like(mask)

    @staticmethod
    def _switch_pattern(value):
        """A case/subject value as an int64 bit pattern (matching the
        lane representation of 64-bit integers)."""
        if isinstance(value, (int, np.integer)) and not isinstance(value, np.ndarray):
            value = int(value)
            if value >= _TWO63:
                value -= _TWO64
            return _I64(value)
        return value

    def _stmt_SwitchStmt(self, stmt, mask):
        # Subject cost + one comparison per case, charged upfront.
        self._charge(stmt, mask)
        subject = self._switch_pattern(self.eval(stmt.subject, mask))
        num_cases = len(stmt.cases)
        # Entry point per lane: the first matching case in case order,
        # else the default, else past the end (no case runs).
        start = np.full(self.n, num_cases, dtype=_I64)
        unmatched = mask.copy()
        default_index = num_cases
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                default_index = index
                continue
            value = self._switch_pattern(self.eval(case.value, mask))
            eq = unmatched & np.equal(subject, value)
            start[eq] = index
            unmatched &= ~eq
        if default_index < num_cases:
            start[unmatched] = default_index
        # Masked fallthrough: each case body runs with the union of
        # lanes that entered at or before it and haven't broken out.
        ctx = _SwitchCtx(self.n)
        self.frame.loops.append(ctx)
        current = np.zeros_like(mask)
        for index, case in enumerate(stmt.cases):
            current = current | (mask & (start == index))
            if not current.any():
                continue
            self.frame.scopes.append({})
            current = self.exec_stmt_list(case.body, current)
            self.frame.scopes.pop()
        self.frame.loops.pop()
        # Lanes that matched nothing (no default) pass straight through.
        return current | ctx.break_mask | (mask & (start == num_cases))

    # -- expressions -------------------------------------------------------

    def eval(self, expr: ast.Expr, mask: np.ndarray):
        if not isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
            folded = fold_constants(expr, self._const_lookup)
            if folded is not None:
                return folded
        handler = getattr(self, f"_eval_{type(expr).__name__}")
        return handler(expr, mask)

    def _eval_IntLiteral(self, expr, mask):
        return convert_scalar(expr.value, expr.ctype)

    def _eval_FloatLiteral(self, expr, mask):
        return float(expr.value)

    def _eval_CharLiteral(self, expr, mask):
        return convert_scalar(expr.value, expr.ctype)

    def _eval_Identifier(self, expr, mask):
        constant = getattr(expr, "constant_value", None)
        if constant is not None:
            return constant
        slot = self._lookup(expr.name)
        if slot is not None:
            return slot.value
        return self.plan.globals[expr.name]

    def _eval_SizeofExpr(self, expr, mask):
        queried = expr.queried_type if expr.queried_type is not None else expr.operand.ctype
        return queried.sizeof()

    def _eval_CommaExpr(self, expr, mask):
        for part in expr.parts[:-1]:
            self.eval(part, mask)
        return self.eval(expr.parts[-1], mask)

    def _eval_UnaryOp(self, expr, mask):
        op = expr.op
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, mask, prefix=True)
        if op == "*":
            pointer = self.eval(expr.operand, mask)
            if isinstance(pointer, VNull):
                VNull._fault()
            return pointer.gather(0, mask)
        if op == "&":
            return self._address_of(expr, mask)
        value = self.eval(expr.operand, mask)
        if op == "!":
            if isinstance(value, np.ndarray):
                return (value == 0).astype(_I64)
            if isinstance(value, (VPtr, VArray, VNull)):
                return 0
            return 0 if value else 1
        if op == "~":
            result = ~value if not isinstance(value, np.ndarray) else ~value
        elif op == "-":
            result = -value
        else:  # unary +
            result = +value
        return self._mask_unsigned(result, expr.ctype)

    def _eval_PostfixOp(self, expr, mask):
        return self._incdec(expr.operand, expr.op, mask, prefix=False)

    def _address_of(self, expr, mask):
        inner = expr.operand
        if isinstance(inner, ast.Index):
            if isinstance(inner.base.ctype, ArrayType):
                flattened = self._flatten_access(inner, mask)
                if flattened is not None:
                    root, flat = flattened
                    return root.pointer.add(flat)
                base = self.eval(inner.base, mask)
                index = self.eval(inner.index, mask)
                return base.index(index).decayed()
            base = self.eval(inner.base, mask)
            index = self.eval(inner.index, mask)
            if isinstance(base, VNull):
                VNull._fault()
            return base.add(index)
        if isinstance(inner, ast.UnaryOp) and inner.op == "*":
            return self.eval(inner.operand, mask)
        if isinstance(inner, ast.Identifier) and isinstance(inner.ctype, ArrayType):
            return self.eval(inner, mask).decayed()
        raise KernelFault("taking the address of a plain variable is not supported")

    def _incdec(self, target, op, mask, prefix: bool):
        delta = 1 if op == "++" else -1
        ctype = target.ctype
        if isinstance(target, ast.Identifier):
            slot = self._lookup(target.name)
            old = slot.value
            if isinstance(ctype, PointerType):
                if isinstance(old, VNull):
                    VNull._fault()
                new = old.add(delta)
            else:
                new = self._mask_unsigned(_add_scalar(old, delta), ctype)
            slot.value = self._merge(old, new, mask)
            return new if prefix else old
        pointer, index = self._lvalue(target, mask)
        current = pointer.gather(index, mask)
        if isinstance(ctype, PointerType):
            new = current.add(delta)
        else:
            new = self._mask_unsigned(_add_scalar(current, delta), ctype)
        pointer.scatter(index, new, mask)
        return new if prefix else current

    def _lvalue(self, expr, mask) -> Tuple[VPtr, object]:
        """Pointer + element index for a memory lvalue (mirrors
        ``Interpreter._place``; variable targets are handled by callers)."""
        if isinstance(expr, ast.Index):
            if isinstance(expr.base.ctype, ArrayType):
                flattened = self._flatten_access(expr, mask)
                assert flattened is not None, "array rows are not assignable"
                root, flat = flattened
                return root.pointer, flat
            base = self.eval(expr.base, mask)
            index = self.eval(expr.index, mask)
            if isinstance(base, VNull):
                VNull._fault()
            return base, index
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            pointer = self.eval(expr.operand, mask)
            if isinstance(pointer, VNull):
                VNull._fault()
            return pointer, 0
        raise KernelFault(f"expression is not assignable: {type(expr).__name__}")

    def _flatten_access(self, expr: ast.Index, mask):
        """Mirror of ``Interpreter._flatten``: full multi-dim accesses
        collapse to (root VArray, flat index value)."""
        if isinstance(expr.ctype, ArrayType):
            return None
        indices: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index) and isinstance(node.base.ctype, ArrayType):
            indices.append(node.index)
            node = node.base
        if not isinstance(node.ctype, ArrayType) or not indices:
            return None
        indices.reverse()
        strides: List[int] = []
        ctype: CType = node.ctype
        for _ in indices:
            element = ctype.element
            strides.append(element.flat_length() if isinstance(element, ArrayType) else 1)
            ctype = element
        root = self.eval(node, mask)
        flat = None
        for index_expr, stride in zip(indices, strides):
            term = _mul_index(self.eval(index_expr, mask), stride)
            flat = term if flat is None else _add_scalar(flat, term)
        return root, flat

    def _eval_Index(self, expr, mask):
        source = self.plan.cse.get(id(expr))
        if source is not None:
            value = self._load_values.get(source, _MISSING)
            if value is not _MISSING:
                return value
            # Unreachable once lvalues compile before values; kept as a
            # hard error rather than silently double-loading.
            raise KernelFault("internal error: CSE source was not materialized")
        base_type = expr.base.ctype
        if isinstance(base_type, ArrayType):
            flattened = self._flatten_access(expr, mask)
            if flattened is None:
                base = self.eval(expr.base, mask)
                index = self.eval(expr.index, mask)
                return base.index(index)
            root, flat = flattened
            value = root.pointer.gather(flat, mask)
        else:
            base = self.eval(expr.base, mask)
            index = self.eval(expr.index, mask)
            if isinstance(base, VNull):
                VNull._fault()
            value = base.gather(index, mask)
        self._load_values[id(expr)] = value
        return value

    def _eval_Cast(self, expr, mask):
        target = expr.target_type
        if target.is_void():
            self.eval(expr.operand, mask)
            return 0
        value = self.eval(expr.operand, mask)
        if isinstance(value, (VPtr, VArray, VNull)):
            raise KernelFault("cannot convert a pointer value to a scalar")
        return self._convert_exact(value, expr.operand.ctype, target, mask)

    def _eval_Conditional(self, expr, mask):
        condition = self.eval(expr.condition, mask)
        then_mask = self._truthy_mask(condition, mask)
        else_mask = mask & ~then_mask

        def arm(branch, sub):
            value = self._decay(self.eval(branch, sub), branch.ctype)
            return self._convert_relaxed(value, branch.ctype, expr.ctype, sub)

        if not else_mask.any():
            return arm(expr.then_expr, mask)
        if not then_mask.any():
            return arm(expr.else_expr, mask)
        then_value = arm(expr.then_expr, then_mask)
        else_value = arm(expr.else_expr, else_mask)
        return self._merge(else_value, then_value, then_mask)

    def _eval_Assignment(self, expr, mask):
        target_type = expr.target.ctype
        if isinstance(expr.target, ast.Identifier):
            value = self._decay(self.eval(expr.value, mask), expr.value.ctype)
            slot = self._lookup(expr.target.name)
            if expr.op == "=":
                new = self._convert_relaxed(value, expr.value.ctype, target_type, mask)
            else:
                new = self._compound(slot.value, value, expr, mask)
            slot.value = self._merge(slot.value, new, mask)
            return new
        pointer, index = self._lvalue(expr.target, mask)
        value = self._decay(self.eval(expr.value, mask), expr.value.ctype)
        if expr.op == "=":
            stored = self._convert_relaxed(value, expr.value.ctype, target_type, mask)
        else:
            current = pointer.gather(index, mask)
            stored = self._compound(current, value, expr, mask)
        pointer.scatter(index, stored, mask)
        return stored

    def _compound(self, current, value, expr: ast.Assignment, mask):
        op = expr.op[:-1]
        target_type = expr.target.ctype
        if isinstance(target_type, PointerType):
            if isinstance(current, VNull):
                VNull._fault()
            delta = value if op == "+" else _neg_scalar(value)
            return current.add(delta)
        value_type = expr.value.ctype
        if isinstance(value_type, ScalarType) and value_type.is_float() and target_type.is_integer():
            if op == "/":
                combined = self._fdiv(current, value, mask)
            else:
                combined = self._arith(op, current, value, float_domain=True)
            return self._convert_relaxed(combined, value_type, target_type, mask)
        if op == "/":
            if target_type.is_float():
                combined = self._fdiv(current, value, mask)
            else:
                combined = self._idiv(current, value, target_type, mask)
        elif op == "%":
            combined = self._imod(current, value, target_type, mask)
        elif op in ("<<", ">>"):
            combined = self._shift(op, current, value, target_type)
        else:
            combined = self._arith(op, current, value,
                                   float_domain=target_type.is_float())
        return self._mask_unsigned(combined, target_type)

    def _eval_BinaryOp(self, expr, mask):
        op = expr.op
        if op in ("&&", "||"):
            return self._logical(expr, mask)
        left_ctype = expr.left.ctype
        right_ctype = expr.right.ctype
        left = self.eval(expr.left, mask)
        right = self.eval(expr.right, mask)
        if isinstance(left_ctype, (PointerType, ArrayType)) \
                or isinstance(right_ctype, (PointerType, ArrayType)):
            return self._pointer_binop(expr, left, right, mask)
        op_type: ScalarType = expr.op_type
        is_unsigned = op_type.is_integer() and not op_type.signed and not op_type.is_bool()
        if op in _CMP_OPS:
            if is_unsigned:
                left = self._mask_unsigned(left, op_type)
                right = self._mask_unsigned(right, op_type)
            return self._compare(op, left, right, op_type)
        if op == "/":
            if op_type.is_float():
                return self._fdiv(left, right, mask)
            if is_unsigned:
                left = self._mask_unsigned(left, op_type)
                right = self._mask_unsigned(right, op_type)
            return self._idiv(left, right, op_type, mask)
        if op == "%":
            if is_unsigned:
                left = self._mask_unsigned(left, op_type)
                right = self._mask_unsigned(right, op_type)
            return self._imod(left, right, op_type, mask)
        if op in ("<<", ">>"):
            if op == ">>" and is_unsigned:
                left = self._mask_unsigned(left, op_type)
            return self._mask_unsigned(self._shift(op, left, right, op_type), op_type)
        # Strength reduction, as the cost pass assumes (it
        # changes float signed-zero results: -0.0 + 0 stays -0.0).
        if op == "*":
            if _is_literal(expr.right, 1, 1.0):
                return left
            if _is_literal(expr.left, 1, 1.0):
                return right
            if _is_literal(expr.right, -1, -1.0):
                return self._mask_unsigned(_neg_scalar(left), op_type)
            if _is_literal(expr.left, -1, -1.0):
                return self._mask_unsigned(_neg_scalar(right), op_type)
        elif op in ("+", "-") and _is_literal(expr.right, 0, 0.0):
            return left
        elif op == "+" and _is_literal(expr.left, 0, 0.0):
            return right
        combined = self._arith(op, left, right, float_domain=op_type.is_float())
        return self._mask_unsigned(combined, op_type)

    # -- arithmetic kernels ------------------------------------------------

    def _arith(self, op: str, left, right, float_domain: bool):
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return OPERATORS[op](left, right)
        if float_domain:
            left = _float_lanes(left, self.n)
            right = _float_lanes(right, self.n)
        else:
            left = _int_lanes(left, self.n)
            right = _int_lanes(right, self.n)
        return OPERATORS[op](left, right)

    def _compare(self, op: str, left, right, op_type: ScalarType):
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return OPERATORS[op](left, right)
        if op_type.is_float():
            left = _float_lanes(left, self.n)
            right = _float_lanes(right, self.n)
        elif op_type.is_integer() and not op_type.signed and op_type.size == 8 \
                and not op_type.is_bool():
            left = _int_lanes(left, self.n).astype(_U64)
            right = _int_lanes(right, self.n).astype(_U64)
        else:
            left = _int_lanes(left, self.n)
            right = _int_lanes(right, self.n)
        return OPERATORS[op](left, right).astype(_I64)

    def _fdiv(self, left, right, mask):
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return c_fdiv(left, right)
        la = _float_lanes(left, self.n)
        ra = _float_lanes(right, self.n)
        result = np.divide(la, ra)
        # c_fdiv returns the canonical positive quiet NaN for 0/0 and
        # nan/0, where numpy emits the hardware default (sign bit set on
        # x86) — canonicalize those lanes so buffers stay bit-exact.
        fresh_nan = (ra == 0.0) & ((la == 0.0) | np.isnan(la))
        if fresh_nan.any():
            result = np.where(fresh_nan, math.nan, result)
        return result

    def _idiv(self, left, right, op_type: ScalarType, mask):
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return c_idiv(left, right)
        la = _int_lanes(left, self.n)
        ra = _int_lanes(right, self.n)
        if (mask & (ra == 0)).any():
            raise KernelFault("integer division by zero")
        safe = np.where(ra == 0, _I64(1), ra)
        if not op_type.signed and op_type.size == 8 and not op_type.is_bool():
            return (la.astype(_U64) // safe.astype(_U64)).astype(_I64)
        quotient = np.abs(la) // np.abs(safe)
        return np.where((la < 0) ^ (safe < 0), -quotient, quotient)

    def _imod(self, left, right, op_type: ScalarType, mask):
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return c_imod(left, right)
        la = _int_lanes(left, self.n)
        ra = _int_lanes(right, self.n)
        if (mask & (ra == 0)).any():
            raise KernelFault("integer remainder by zero")
        safe = np.where(ra == 0, _I64(1), ra)
        if not op_type.signed and op_type.size == 8 and not op_type.is_bool():
            lu = la.astype(_U64)
            su = safe.astype(_U64)
            return (lu - (lu // su) * su).astype(_I64)
        quotient = np.abs(la) // np.abs(safe)
        quotient = np.where((la < 0) ^ (safe < 0), -quotient, quotient)
        return la - quotient * safe

    def _shift(self, op: str, left, right, op_type: ScalarType):
        bits = op_type.bits
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return OPERATORS[op](left, right % bits)
        la = _int_lanes(left, self.n)
        amount = _int_lanes(right, self.n) % _I64(bits)
        if op == "<<":
            return la << amount
        if not op_type.signed and op_type.size == 8 and not op_type.is_bool():
            return (la.astype(_U64) >> amount.astype(_U64)).astype(_I64)
        return la >> amount

    def _logical(self, expr, mask):
        left = self.eval(expr.left, mask)
        if not isinstance(left, np.ndarray):
            left_true = bool(left) if not isinstance(left, (VPtr, VArray, VNull)) else True
            if expr.op == "&&" and not left_true:
                return 0
            if expr.op == "||" and left_true:
                return 1
            right = self.eval(expr.right, mask)
            if isinstance(right, np.ndarray):
                return (right != 0).astype(_I64)
            if isinstance(right, (VPtr, VArray, VNull)):
                return 1
            return 1 if right else 0
        left_true = mask & (left != 0)
        sub = left_true if expr.op == "&&" else mask & ~left_true
        if sub.any():
            right = self.eval(expr.right, sub)
            right01 = self._truthy_mask(right, sub).astype(_I64)
        else:
            right01 = np.zeros(self.n, dtype=_I64)
        if expr.op == "&&":
            return np.where(left_true, right01, _I64(0))
        return np.where(left_true, _I64(1), right01)

    def _pointer_binop(self, expr, left, right, mask):
        op = expr.op
        left = self._decay(left, expr.left.ctype)
        right = self._decay(right, expr.right.ctype)
        left_ptr = isinstance(left, (VPtr, VNull))
        right_ptr = isinstance(right, (VPtr, VNull))
        if op == "+":
            pointer, delta = (left, right) if left_ptr else (right, left)
            if isinstance(pointer, VNull):
                VNull._fault()
            return pointer.add(delta)
        if op == "-":
            if isinstance(left, VNull):
                VNull._fault()
            if left_ptr and right_ptr:
                return left.diff(right)
            return left.add(_neg_scalar(right))
        if op in ("==", "!="):
            equal = self._ptr_eq(left, right)
            if op == "!=":
                if isinstance(equal, np.ndarray):
                    return (equal == 0).astype(_I64)
                return 0 if equal else 1
            if isinstance(equal, np.ndarray):
                return equal
            return 1 if equal else 0
        for value in (left, right):
            if isinstance(value, VNull):
                VNull._fault()
        return self._compare(op, left.offset, right.offset,
                             ScalarType("long", 8, signed=True))

    def _ptr_eq(self, left, right):
        if not isinstance(left, VPtr) or not isinstance(right, VPtr):
            return 0
        if left.array is not right.array:
            return 0
        lo, ro = left.offset, right.offset
        if isinstance(lo, np.ndarray) or isinstance(ro, np.ndarray):
            return (_int_lanes(lo, self.n) == _int_lanes(ro, self.n)).astype(_I64)
        return lo == ro

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, expr, mask):
        if getattr(expr, "kind", "") == "user":
            return self._call_user(expr, mask)
        resolved: ResolvedBuiltin = expr.resolved
        if resolved.kind == "workitem":
            return self._call_workitem(expr, resolved, mask)
        if resolved.kind == "barrier":
            raise KernelFault("barrier() must be a standalone statement")
        if resolved.name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            self.eval(expr.args[0], mask)
            return 0
        args = []
        for arg, param_type in zip(expr.args, resolved.param_types):
            value = self.eval(arg, mask)
            args.append(self._convert_relaxed(value, arg.ctype, param_type, mask))
        if resolved.kind == "plain":
            fast = self._builtin_fast_path(resolved, args, mask)
            if fast is not _MISSING:
                return fast
        return self._builtin_per_lane(resolved, args, mask)

    def _call_user(self, expr, mask):
        target: ast.FunctionDef = expr.callee_def
        args = []
        for arg, param in zip(expr.args, target.params):
            value = self._decay(self.eval(arg, mask), arg.ctype)
            args.append(self._convert_relaxed(value, arg.ctype, param.declared_type, mask))
        frame = _Frame(target, self.n)
        for param, value in zip(target.params, args):
            frame.scopes[0][param.name] = _Slot(value)
        self.frames.append(frame)
        out = self.exec_stmt_list(target.body.statements, mask)
        self.frames.pop()
        if target.return_type.is_void():
            return 0
        if out.any():
            raise KernelFault(
                f"function {target.name} finished without returning a value")
        return frame.ret_value

    def _call_workitem(self, expr, resolved: ResolvedBuiltin, mask):
        lanes = self.lanes
        if resolved.name == "get_work_dim":
            return lanes.work_dim
        if expr.args and isinstance(expr.args[0], ast.IntLiteral) \
                and 0 <= expr.args[0].value <= 2:
            return lanes.query(resolved.name, expr.args[0].value)
        dim = self.eval(expr.args[0], mask)
        if not isinstance(dim, np.ndarray):
            return lanes.query(resolved.name, int(dim))
        result = np.full(self.n, lanes.query_default(resolved.name), dtype=_I64)
        for d in (0, 1, 2):
            value = lanes.query(resolved.name, d)
            result = np.where(dim == d, _int_lanes(value, self.n), result)
        return result

    # -- builtins ----------------------------------------------------------

    def _builtin_fast_path(self, resolved: ResolvedBuiltin, args, mask):
        name = _strip_prefix(resolved.name)
        handler = _FAST_BUILTINS.get(name)
        if handler is None:
            return _MISSING
        if name in ("min", "max", "clamp", "abs"):
            # Safe in the int64 domain except for 64-bit unsigned values
            # (stored as bit patterns): those take the per-lane path.
            param = resolved.param_types[0]
            if isinstance(param, ScalarType) and param.is_integer() \
                    and not param.signed and param.size == 8:
                return _MISSING
        if not any(isinstance(a, np.ndarray) for a in args):
            return _MISSING  # uniform: per-lane path computes once
        domain = _float_lanes if resolved.param_types and \
            isinstance(resolved.param_types[0], ScalarType) and \
            resolved.param_types[0].is_float() else _int_lanes
        lanes = [domain(a, self.n) if isinstance(resolved.param_types[i], ScalarType)
                 and resolved.param_types[i].is_float()
                 else (_float_lanes(a, self.n) if _is_float_value(a) else _int_lanes(a, self.n))
                 for i, a in enumerate(args)]
        result = handler(*lanes)
        if isinstance(resolved.result_type, ScalarType) and resolved.result_type.is_integer() \
                and not resolved.result_type.signed and resolved.name not in ("abs",):
            result = self._mask_unsigned(result, resolved.result_type)
        return result

    def _builtin_per_lane(self, resolved: ResolvedBuiltin, args, mask):
        result_type = resolved.result_type
        result_float = isinstance(result_type, ScalarType) and result_type.is_float()
        mask_result = isinstance(result_type, ScalarType) and result_type.is_integer() \
            and not result_type.signed and resolved.name not in ("abs",)
        if not any(isinstance(a, np.ndarray) for a in args):
            value = self._apply_one(resolved, args)
            if mask_result:
                value = value & ((1 << result_type.bits) - 1)
            return value
        out = np.zeros(self.n, dtype=np.float64 if result_float else _I64)
        for lane in np.nonzero(mask)[0]:
            lane_args = []
            for a, param_type in zip(args, resolved.param_types):
                if isinstance(a, np.ndarray):
                    v = a[int(lane)].item()
                    if isinstance(param_type, ScalarType) and param_type.is_integer() \
                            and not param_type.signed and v < 0:
                        v += _TWO64  # 64-bit pattern -> exact unsigned value
                else:
                    v = a
                lane_args.append(v)
            value = self._apply_one(resolved, lane_args)
            if mask_result:
                value = value & ((1 << result_type.bits) - 1)
            if result_float:
                out[lane] = float(value)
            else:
                out[lane] = _wrap_to_i64(value)
        return out

    def _apply_one(self, resolved: ResolvedBuiltin, lane_args):
        if resolved.kind == "plain":
            return resolved.impl(*lane_args)
        return apply_builtin(resolved, tuple(lane_args))

    # -- conversions -------------------------------------------------------

    def _convert_relaxed(self, value, source, target, mask):
        """Mirror of ``Interpreter._convert`` (relaxed implicit conversions)."""
        if source is None or source == target:
            return value
        if isinstance(source, ArrayType):
            return value
        if isinstance(target, PointerType) or isinstance(source, PointerType):
            return value
        if target.is_bool():
            if isinstance(value, np.ndarray):
                return (value != 0).astype(_I64)
            if isinstance(value, (VPtr, VArray, VNull)):
                return 1
            return 1 if value else 0
        if target.is_float():
            if source.is_integer():
                return self._int_value_to_float(value, source)
            return value
        if source.is_float():
            if isinstance(value, np.ndarray):
                value = _float_lanes_to_int(value, mask)
            else:
                value = int(value)
            if not target.signed:
                return self._mask_unsigned(value, target)
            return value
        if not target.signed:
            return self._mask_unsigned(value, target)
        if source.signed and source.size <= target.size:
            return value
        return _wrap_signed_lanes(value, target.bits)

    def _int_value_to_float(self, value, source):
        if not isinstance(value, np.ndarray):
            return float(value)
        if isinstance(source, ScalarType) and source.is_integer() \
                and not source.signed and source.size == 8:
            return value.astype(_U64).astype(np.float64)
        return value.astype(np.float64)

    def _convert_exact(self, value, source, target: ScalarType, mask):
        """Mirror of ``convert_scalar`` (explicit casts, exact)."""
        if not isinstance(value, np.ndarray):
            return convert_scalar(value, target)
        if target.is_bool():
            return (value != 0).astype(_I64)
        if target.is_integer():
            if value.dtype.kind == "f":
                value = _float_lanes_to_int(value, mask)
            if target.signed:
                return _wrap_signed_lanes(value, target.bits)
            return self._mask_unsigned(value, target)
        # Float target: round through the declared width.
        if value.dtype.kind != "f":
            value = self._int_value_to_float(value, source)
        if target.size == 8:
            return value
        if target.size == 4:
            return value.astype(np.float32).astype(np.float64)
        return value.astype(np.float16).astype(np.float64)


def _add_scalar(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if _is_float_value(a) or _is_float_value(b):
            return a + b
        return _int_lanes_pair(a, b)
    return a + b


def _neg_scalar(v):
    return -v




def _np_fmin(x, y):
    return np.where(((x != x) | (y < x)) & (y == y), y, np.where(x == x, x, y))


def _np_fmax(x, y):
    return np.where(((x != x) | (y > x)) & (y == y), y, np.where(x == x, x, y))


def _np_clamp(x, lo, hi):
    t = np.where(lo > x, lo, x)
    return np.where(hi < t, hi, t)


def _np_rsqrt(x):
    positive = x > 0
    return np.where(positive, 1.0 / np.sqrt(np.where(positive, x, 1.0)), np.inf)


_FAST_BUILTINS = {
    "sqrt": np.sqrt,
    "fabs": np.abs,
    "fmin": _np_fmin,
    "fmax": _np_fmax,
    "min": lambda x, y: np.where(y < x, y, x),
    "max": lambda x, y: np.where(y > x, y, x),
    "clamp": _np_clamp,
    "fma": lambda a, b, c: a * b + c,
    "mad": lambda a, b, c: a * b + c,
    "step": lambda edge, x: np.where(x < edge, 0.0, 1.0),
    "copysign": np.copysign,
    "isnan": lambda x: np.isnan(x).astype(_I64),
    "isinf": lambda x: np.isinf(x).astype(_I64),
    "isfinite": lambda x: np.isfinite(x).astype(_I64),
    "sign": lambda x: np.where((x != x) | (x == 0.0), 0.0 * x, np.copysign(1.0, x)),
    "abs": np.abs,
    "rsqrt": _np_rsqrt,
    "mix": lambda x, y, a: x + (y - x) * a,
    "fdim": lambda x, y: np.where(0.0 > x - y, 0.0, x - y),
}


# ---------------------------------------------------------------------------
# Lane layout: the work-item context of every lane, vectorized.
# ---------------------------------------------------------------------------


class _LaneLayout:
    """Per-lane work-item identities for ``selected_groups x local_ids``,
    lanes ordered group-major (matching the per-item executor's loops)."""

    def __init__(self, ndrange, selected_groups, local_ids):
        dims = len(ndrange.global_size)
        self.work_dim = dims
        self.group_size = len(local_ids)
        self.num_groups = len(selected_groups)
        self.n = self.group_size * self.num_groups
        self.global_size = tuple(ndrange.global_size) + (1,) * (3 - dims)
        self.local_size = tuple(ndrange.local_size) + (1,) * (3 - dims)
        self.global_offset = (0, 0, 0)
        lid = np.asarray(local_ids, dtype=_I64)  # (L, dims)
        grp = np.asarray(selected_groups, dtype=_I64)  # (G, dims)
        self.local_id: List[object] = []
        self.group_id: List[object] = []
        self.global_id: List[object] = []
        for d in range(3):
            if d < dims:
                local_d = np.tile(lid[:, d], self.num_groups)
                group_d = np.repeat(grp[:, d], self.group_size)
                self.local_id.append(local_d)
                self.group_id.append(group_d)
                self.global_id.append(group_d * self.local_size[d] + local_d)
            else:
                self.local_id.append(0)
                self.group_id.append(0)
                self.global_id.append(0)

    def query(self, name: str, dim: int):
        """Mirror of the ``WorkItemContext`` accessors (ids default to 0
        outside 0..2, sizes to 1)."""
        in_range = 0 <= dim < 3
        if name == "get_global_id":
            return self.global_id[dim] if in_range else 0
        if name == "get_local_id":
            return self.local_id[dim] if in_range else 0
        if name == "get_group_id":
            return self.group_id[dim] if in_range else 0
        if name == "get_global_size":
            return self.global_size[dim] if in_range else 1
        if name == "get_local_size":
            return self.local_size[dim] if in_range else 1
        if name == "get_global_offset":
            return self.global_offset[dim] if in_range else 0
        if name == "get_num_groups":
            if not in_range:
                return 1
            return self.global_size[dim] // self.local_size[dim]
        raise AssertionError(f"unhandled work-item query {name}")  # pragma: no cover

    def query_default(self, name: str) -> int:
        return 1 if name in ("get_global_size", "get_local_size", "get_num_groups") else 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

WARP_SIZE = 32


def execute(kernel: CompiledKernel, plan: _KernelPlan, ndrange, selected_groups,
            local_ids, args, counters) -> None:
    """Run ``kernel`` over ``selected_groups`` of ``ndrange`` in lockstep,
    mutating argument buffers and ``counters`` exactly as the per-item
    executor would."""
    from .memory import Pointer

    lanes = _LaneLayout(ndrange, selected_groups, local_ids)
    evaluator = _Evaluator(plan, counters, lanes)

    # Group-local allocations: one row of storage per selected group.
    for decl in kernel.local_decls:
        ctype = decl.declared_type
        flat = ctype.flat_length()
        element = ctype.base_element()
        storage = np.zeros(lanes.num_groups * flat, dtype=numpy_dtype(element))
        base = np.repeat(np.arange(lanes.num_groups, dtype=_I64) * flat, lanes.group_size)
        vptr = VPtr(storage, element, "local", counters.memory, flat, 0, base)
        evaluator._local_storage[id(decl)] = VArray(vptr, ctype.element)

    frame = _Frame(kernel.definition, lanes.n)
    for param, arg in zip(kernel.definition.params, args):
        if isinstance(arg, Pointer):
            value = VPtr(arg.array, arg.element_type, arg.address_space,
                         arg.counters, arg.length, arg.offset, None)
        else:
            value = arg
        frame.scopes[0][param.name] = _Slot(value)
    evaluator.frames.append(frame)

    mask = np.ones(lanes.n, dtype=bool)
    with np.errstate(all="ignore"):
        evaluator.exec_stmt_list(kernel.definition.body.statements, mask)

    counters.ops += int(evaluator.ops_lanes.sum())
    if not kernel.uses_barrier:
        # Warp-divergence accounting, mirroring the per-item executor: a
        # 32-lane warp runs as long as its slowest lane; partial trailing
        # chunks still pay for a full warp.
        per_group = evaluator.ops_lanes.reshape(lanes.num_groups, lanes.group_size)
        chunks = -(-lanes.group_size // WARP_SIZE)
        padded = np.zeros((lanes.num_groups, chunks * WARP_SIZE), dtype=_I64)
        padded[:, : lanes.group_size] = per_group
        warp_max = padded.reshape(lanes.num_groups, chunks, WARP_SIZE).max(axis=2)
        counters.warp_ops += int(warp_max.sum()) * WARP_SIZE
