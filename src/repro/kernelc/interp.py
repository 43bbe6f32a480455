"""Per-item reference interpreter for checked kernelc programs.

The interpreter walks the checked AST of one work-item at a time.  It is
the per-item engine of the executor (``backend="interp"``, and every
kernel the vectorizer cannot lower) and the independent oracle the
lockstep vectorizer (:mod:`.vectorize`) is differentially tested
against: both engines implement one value contract and read one static
charge schedule, so they must agree bit for bit on buffers and on every
``ExecutionCounters`` field.

The value contract (what a real driver's relaxed fast math would do):

* float arithmetic is evaluated in double precision and rounded to the
  storage type only at memory stores, explicit casts and vector
  conversions;
* signed integer arithmetic is exact and wrapped at stores, explicit
  casts and narrowing conversions (signed overflow is undefined in C,
  so no conforming kernel can observe the difference);
* unsigned arithmetic is masked at every operation, because kernels
  rely on unsigned wrap-around (``0u - 1``);
* constant subtrees evaluate through :func:`.cost.fold_constants`.

Ops are charged per statement from the cost pass
(:func:`.cost.charge_schedule`), and loads the pass elided reuse the
value of their source load.  Memory traffic is counted by the
:class:`~.memory.Pointer` accesses themselves.

Kernels that call ``barrier()`` run as generators yielding
``('barrier', flags)`` so the executor can phase-synchronize a
work-group; statements that contain no barrier run as plain calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from . import ast
from .builtins import ResolvedBuiltin
from .cost import _CMP_OPS, _WORKITEM_FIELDS, _is_literal, charge_schedule, fold_constants
from .ctypes_ import (
    ArrayType,
    CType,
    PointerType,
    ScalarType,
    VectorType,
    convert_scalar,
    wrap_int,
)
from .execmodel import (
    OPERATORS,
    ExecutionCounters,
    WorkItemContext,
    binary_value,
    c_fdiv,
    c_idiv,
    c_imod,
    compare_value,
    convert_value,
    copy_value,
)
from .memory import ArrayRef, KernelFault, Pointer, allocate
from .values import VecValue

# Statement outcomes (None: fall through to the next statement).
_BREAK, _CONTINUE, _RETURN, _BARRIER = 1, 2, 3, 4
_FENCES = ("mem_fence", "read_mem_fence", "write_mem_fence")


class Machine:
    """State shared by every work-item of one kernel launch: the
    program, counters, materialized ``__constant`` globals and the
    static charge schedule."""

    def __init__(self, program: ast.Program, counters: Optional[ExecutionCounters] = None,
                 schedule=None):
        self.program = program
        self.counters = counters if counters is not None else ExecutionCounters()
        self.schedule = schedule if schedule is not None else charge_schedule(program)
        # Decided once per node and launch: how to evaluate each
        # expression, and the folded value of each const declaration.
        self.evaluators: Dict[int, object] = {}
        self.decl_consts: Dict[int, object] = {}
        # __constant data lives outside the launch: its reads are not
        # device traffic of the kernel.
        self.globals: Dict[str, object] = {}
        for global_decl in program.globals:
            self.globals[global_decl.decl.name] = self._materialize_global(global_decl.decl)

    def _materialize_global(self, decl: ast.VarDecl):
        ctype = decl.declared_type
        if isinstance(ctype, ArrayType):
            pointer = allocate(ctype.base_element(), ctype.flat_length(), "constant")
            if decl.init is not None:
                for i, value in enumerate(_flatten_initializer(decl.init)):
                    pointer.array[i] = convert_scalar(value, ctype.base_element())
            return ArrayRef(pointer, ctype.element)
        if decl.init is None:
            raise KernelFault(f"__constant variable {decl.name!r} has no initializer")
        interp = Interpreter(self, WorkItemContext((0,), (0,), (0,), (1,), (1,)), {})
        return convert_value(interp.eval(decl.init), ctype)


def _is_barrier_stmt(node: ast.Node) -> bool:
    return isinstance(node, ast.ExprStmt) and isinstance(node.expr, ast.Call) \
        and getattr(node.expr, "kind", "") == "builtin" and node.expr.resolved.kind == "barrier"


def _flatten_initializer(init: ast.Expr) -> List:
    if isinstance(init, ast.VectorLiteral) and init.is_array_initializer:
        out: List = []
        for element in init.elements:
            out.extend(_flatten_initializer(element))
        return out
    if isinstance(init, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
        return [init.value]
    if isinstance(init, ast.UnaryOp) and init.op == "-":
        return [-_flatten_initializer(init.operand)[0]]
    raise KernelFault("unsupported constant initializer element")


class _Slot:
    """A variable: its current value and, for ``const`` scalars with a
    constant initializer, the folded constant."""

    __slots__ = ("value", "const")

    def __init__(self, value, const=None):
        self.value = value
        self.const = const


class _Place:
    """An assignable location: a variable, a memory element, or some
    components of a vector held in one of those."""

    __slots__ = ("slot", "pointer", "index", "vec", "indices", "element", "writeback")

    def __init__(self, slot=None, pointer=None, index=None, vec=None, indices=None,
                 element=None, writeback=None):
        self.slot = slot
        self.pointer = pointer
        self.index = index
        self.vec = vec
        self.indices = indices
        self.element = element
        self.writeback = writeback

    def load(self):
        if self.slot is not None:
            return self.slot.value
        if self.vec is not None:
            if len(self.indices) == 1:
                return self.vec.components[self.indices[0]]
            return VecValue(self.vec.element_type, [self.vec.components[i] for i in self.indices])
        return self.pointer.load(self.index)

    def store(self, value) -> None:
        if self.slot is not None:
            self.slot.value = value
        elif self.vec is not None:
            if len(self.indices) == 1:
                self.vec.components[self.indices[0]] = convert_scalar(value, self.element)
            else:
                if not isinstance(value, VecValue):
                    raise KernelFault("assigning a scalar to a multi-component swizzle")
                for target_index, component in zip(self.indices, value.components):
                    self.vec.components[target_index] = convert_scalar(component, self.element)
            if self.writeback is not None:
                self.writeback.store(self.vec)
        else:
            self.pointer.store(self.index, value)


class Interpreter:
    """Executes statements and evaluates expressions for one work-item."""

    def __init__(self, machine: Machine, ctx: WorkItemContext, local_memory: Dict[int, ArrayRef]):
        self.machine = machine
        self.counters = machine.counters
        self.charges = machine.schedule.charges
        self.cse = machine.schedule.cse
        self.evaluators = machine.evaluators
        self.ctx = ctx
        # Maps id(VarDecl) of __local declarations to group-shared storage.
        self.local_memory = local_memory
        self.scopes: List[Dict[str, _Slot]] = [{}]
        self.loads: Dict[int, object] = {}  # id(source Index) -> loaded value
        self.ret = None  # a helper's return value
        self.flags = None  # the flags of the barrier being reached
        self.function: Optional[ast.FunctionDef] = None

    # -- driving -----------------------------------------------------------

    def run_kernel(self, kernel: ast.FunctionDef, args: Sequence):
        """A generator executing ``kernel``; yields at barriers."""
        self._enter(kernel, args)
        yield from self._run_list(kernel.body.statements)

    def run(self, kernel: ast.FunctionDef, args: Sequence) -> None:
        """Execute a kernel that contains no barrier to completion."""
        self._enter(kernel, args)
        self._complete(self._run_list(kernel.body.statements))

    def _enter(self, function: ast.FunctionDef, args: Sequence) -> None:
        if len(args) != len(function.params):
            raise KernelFault(
                f"{function.name}() called with {len(args)} argument(s), expected {len(function.params)}"
            )
        self.function = function
        self.scopes = [{param.name: _Slot(copy_value(arg))
                        for param, arg in zip(function.params, args)}]

    def call_function(self, function: ast.FunctionDef, args: Sequence):
        saved = self.function, self.scopes
        self._enter(function, args)
        try:
            status = self._complete(self._run_list(function.body.statements))
        finally:
            self.function, self.scopes = saved
        if function.return_type.is_void():
            return None
        if status != _RETURN:
            raise KernelFault(f"function {function.name} finished without returning a value")
        return self.ret

    @staticmethod
    def _complete(run):
        """Drive a statement generator that must not reach a barrier."""
        try:
            next(run)
        except StopIteration as done:
            return done.value
        raise KernelFault("barrier() inside a helper function")

    # -- environment -------------------------------------------------------

    def _lookup(self, name: str) -> Optional[_Slot]:
        for scope in reversed(self.scopes):
            slot = scope.get(name)
            if slot is not None:
                return slot
        return None

    def _const_lookup(self, name: str):
        slot = self._lookup(name)
        return None if slot is None else slot.const

    def _charge(self, node) -> None:
        cost = self.charges.get(id(node))
        if cost:
            self.counters.ops += cost

    # -- statements ------------------------------------------------------------
    #
    # Statement lists run as generators so that a barrier anywhere in a
    # kernel body can suspend the work-item.  Simple statements return
    # their outcome directly; control-flow statements are generators.

    def _run_list(self, statements):
        for stmt in statements:
            simple = self._SIMPLE.get(type(stmt))
            if simple is None:
                status = yield from self._BLOCKS[type(stmt)](self, stmt)
            else:
                status = simple(self, stmt)
                if status == _BARRIER:
                    yield ("barrier", self.flags)
                    status = None
            if status:
                return status
        return None

    def _block(self, stmt):
        """Run a compound statement, branch or loop body in a new scope."""
        self.scopes.append({})
        try:
            body = stmt.statements if isinstance(stmt, ast.CompoundStmt) else (stmt,)
            return (yield from self._run_list(body))
        finally:
            self.scopes.pop()

    def _test(self, condition) -> bool:
        self._charge(condition)
        return bool(self.eval(condition))

    def _stmt_IfStmt(self, stmt):
        if self._test(stmt.condition):
            return (yield from self._block(stmt.then_branch))
        if stmt.else_branch is not None:
            return (yield from self._block(stmt.else_branch))
        return None

    def _stmt_WhileStmt(self, stmt):
        return (yield from self._loop(stmt.condition, stmt.body, None))

    def _stmt_ForStmt(self, stmt):
        self.scopes.append({})
        try:
            if stmt.init is not None:
                self._SIMPLE[type(stmt.init)](self, stmt.init)
            return (yield from self._loop(stmt.condition, stmt.body, stmt.increment))
        finally:
            self.scopes.pop()

    def _loop(self, condition, body, increment):
        while condition is None or self._test(condition):
            status = yield from self._block(body)
            if status == _BREAK:
                break
            if status == _RETURN:
                return status
            if increment is not None:
                self._charge(increment)
                self.eval(increment)
        return None

    def _stmt_DoStmt(self, stmt):
        while True:
            status = yield from self._block(stmt.body)
            if status == _BREAK:
                break
            if status == _RETURN:
                return status
            if not self._test(stmt.condition):
                break
        return None

    def _stmt_SwitchStmt(self, stmt):
        # Subject cost plus one comparison per case, charged upfront.
        self._charge(stmt)
        subject = self.eval(stmt.subject)
        entry = len(stmt.cases)  # no match and no default: skip the body
        for index, case in enumerate(stmt.cases):
            if case.value is None:
                entry = index
            elif subject == self.eval(case.value):
                entry = index
                break
        for case in stmt.cases[entry:]:
            self.scopes.append({})
            try:
                status = yield from self._run_list(case.body)
            finally:
                self.scopes.pop()
            if status == _BREAK:
                break
            if status:
                return status
        return None

    def _simple_ExprStmt(self, stmt):
        expr = stmt.expr
        if expr is None:
            return None
        if _is_barrier_stmt(stmt):
            self.flags = self.eval(expr.args[0])
            self.counters.barriers += 1
            return _BARRIER
        self._charge(expr)
        self.eval(expr)
        return None

    def _simple_ReturnStmt(self, stmt):
        if stmt.value is not None and not self.function.is_kernel:
            self._charge(stmt.value)
            value = self.eval(stmt.value)
            self.ret = self._convert(value, stmt.value.ctype, self.function.return_type)
        return _RETURN

    def _simple_BreakStmt(self, stmt):
        return _BREAK

    def _simple_ContinueStmt(self, stmt):
        return _CONTINUE

    def _simple_DeclStmt(self, stmt):
        for decl in stmt.decls:
            self._declare(decl)
        return None

    def _declare(self, decl: ast.VarDecl) -> None:
        ctype = decl.declared_type
        if decl.address_space == "local":
            storage = self.local_memory.get(id(decl))
            if storage is None:
                raise KernelFault(f"__local variable {decl.name!r} was not pre-allocated")
            self.scopes[-1][decl.name] = _Slot(storage)
            return
        if isinstance(ctype, ArrayType):
            pointer = allocate(ctype.base_element(), ctype.flat_length(), "private")
            if decl.init is not None:
                for i, value in enumerate(_flatten_initializer(decl.init)):
                    pointer.array[i] = convert_scalar(value, ctype.base_element())
            self.scopes[-1][decl.name] = _Slot(ArrayRef(pointer, ctype.element))
            return
        if decl.init is not None:
            self._charge(decl.init)
            value = copy_value(self._convert(self.eval(decl.init), decl.init.ctype, ctype))
        elif isinstance(ctype, VectorType):
            value = VecValue(ctype.element, [0] * ctype.width)
        elif isinstance(ctype, PointerType):
            value = NULL_POINTER
        else:
            value = 0.0 if ctype.is_float() else 0
        slot = self.scopes[-1][decl.name] = _Slot(value)
        if decl.is_const and decl.init is not None and isinstance(ctype, ScalarType):
            consts = self.machine.decl_consts
            if id(decl) not in consts:
                folded = fold_constants(decl.init, self._const_lookup)
                consts[id(decl)] = None if folded is None else convert_scalar(folded, ctype)
            slot.const = consts[id(decl)]

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: ast.Expr):
        evaluate = self.evaluators.get(id(expr))
        if evaluate is None:
            evaluate = self.evaluators[id(expr)] = self._evaluator(expr)
        return evaluate(self, expr)

    def _evaluator(self, expr: ast.Expr):
        """How to evaluate ``expr``: decided once per node and launch.
        Constant folding is lexical (const locals resolve statically),
        so one work-item's answer holds for every work-item."""
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return _constant(convert_scalar(expr.value, expr.ctype))
        if isinstance(expr, ast.FloatLiteral):
            return _constant(float(expr.value))
        value = fold_constants(expr, self._const_lookup)
        if value is None and isinstance(expr, ast.Identifier):
            value = getattr(expr, "constant_value", None)
        if value is not None:
            return _constant(value)
        if isinstance(expr, ast.BinaryOp) and expr.op not in ("&&", "||"):
            apply, left, right = _binary_op(expr), expr.left, expr.right
            return lambda interp, node: apply(interp.eval(left), interp.eval(right))
        return self._EXPRS[type(expr)]

    def _eval_StringLiteral(self, expr):
        raise KernelFault("string literals have no run-time value")

    def _eval_Identifier(self, expr):
        slot = self._lookup(expr.name)
        if slot is not None:
            return slot.value
        return self.machine.globals[expr.name]

    def _eval_SizeofExpr(self, expr):
        queried = expr.queried_type if expr.queried_type is not None else expr.operand.ctype
        return queried.sizeof()

    def _eval_CommaExpr(self, expr):
        for part in expr.parts[:-1]:
            self.eval(part)
        return self.eval(expr.parts[-1])

    def _eval_UnaryOp(self, expr):
        op = expr.op
        if op in ("++", "--"):
            return self._incdec(expr.operand, op, prefix=True)
        if op == "*":
            return self.eval(expr.operand).load(0)
        if op == "&":
            return self._address_of(expr.operand)
        operand = self.eval(expr.operand)
        ctype = expr.ctype
        if isinstance(ctype, VectorType):
            return _unary_vector(ctype, op, operand)
        if op == "!":
            return 0 if operand else 1
        if op == "~":
            return _mask_unsigned(~operand, ctype)
        return _mask_unsigned(-operand if op == "-" else +operand, ctype)

    def _eval_PostfixOp(self, expr):
        return self._incdec(expr.operand, expr.op, prefix=False)

    def _incdec(self, target, op, prefix: bool):
        delta = 1 if op == "++" else -1
        ctype = target.ctype
        place = self._place(target)
        old = place.load()
        new = old.add(delta) if isinstance(ctype, PointerType) else _mask_unsigned(old + delta, ctype)
        place.store(new)
        return new if prefix else old

    def _address_of(self, inner):
        if isinstance(inner, ast.Index):
            if isinstance(inner.base.ctype, ArrayType):
                flat = self._flatten(inner)
                if flat is not None:
                    root, index = flat
                    return root.pointer.add(index)
                return self.eval(inner.base).index(self.eval(inner.index)).decayed()
            base = self.eval(inner.base)
            return base.add(self.eval(inner.index))
        if isinstance(inner, ast.UnaryOp) and inner.op == "*":
            return self.eval(inner.operand)
        if isinstance(inner, ast.Identifier) and isinstance(inner.ctype, ArrayType):
            return self.eval(inner).decayed()
        raise KernelFault("taking the address of a plain variable is not supported")

    def _eval_BinaryOp(self, expr):
        if expr.op == "&&":
            return 1 if self.eval(expr.left) and self.eval(expr.right) else 0
        return 1 if self.eval(expr.left) or self.eval(expr.right) else 0

    def _eval_Assignment(self, expr):
        target = expr.target
        target_type = target.ctype
        if isinstance(target, ast.Identifier):
            slot = self._lookup(target.name)
            value = _decay(self.eval(expr.value), expr.value.ctype)
            if expr.op == "=":
                new = copy_value(self._convert(value, expr.value.ctype, target_type))
            else:
                new = self._compound(slot.value, value, expr)
            slot.value = new
            return new
        place = self._place(target)
        value = _decay(self.eval(expr.value), expr.value.ctype)
        if expr.op == "=":
            stored = self._convert(value, expr.value.ctype, target_type)
        else:
            stored = self._compound(place.load(), value, expr)
        place.store(stored)
        return stored

    def _compound(self, current, value, expr: ast.Assignment):
        op = expr.op[:-1]
        target_type = expr.target.ctype
        value_type = expr.value.ctype
        if isinstance(target_type, PointerType):
            return current.add(value if op == "+" else -value)
        if isinstance(target_type, VectorType) or isinstance(value_type, VectorType):
            return binary_value(op, current, value, target_type)
        if isinstance(value_type, ScalarType) and value_type.is_float() and target_type.is_integer():
            combined = c_fdiv(current, value) if op == "/" else OPERATORS[op](current, value)
            return self._convert(combined, value_type, target_type)
        if op == "/":
            combined = c_fdiv(current, value) if target_type.is_float() else c_idiv(current, value)
        elif op == "%":
            combined = c_imod(current, value)
        elif op in ("<<", ">>"):
            combined = OPERATORS[op](current, value % target_type.bits)
        else:
            combined = OPERATORS[op](current, value)
        return _mask_unsigned(combined, target_type)

    def _eval_Conditional(self, expr):
        branch = expr.then_expr if self.eval(expr.condition) else expr.else_expr
        value = _decay(self.eval(branch), branch.ctype)
        return self._convert(value, branch.ctype, expr.ctype)

    def _eval_Call(self, expr):
        if expr.kind == "user":
            target: ast.FunctionDef = expr.callee_def
            args = [self._convert(_decay(self.eval(arg), arg.ctype), arg.ctype, param.declared_type)
                    for arg, param in zip(expr.args, target.params)]
            return self.call_function(target, args)
        resolved: ResolvedBuiltin = expr.resolved
        if resolved.kind == "workitem":
            if resolved.name == "get_work_dim":
                return self.ctx.work_dim
            field_name = _WORKITEM_FIELDS.get(resolved.name)
            if expr.args and isinstance(expr.args[0], ast.IntLiteral) and field_name is not None \
                    and 0 <= expr.args[0].value <= 2:
                return getattr(self.ctx, field_name)[expr.args[0].value]
            return self.ctx.query(resolved.name, *[self.eval(arg) for arg in expr.args])
        if resolved.kind == "barrier":
            raise KernelFault("barrier() must be a standalone statement")
        if resolved.name in _FENCES:
            self.eval(expr.args[0])
            return None
        args = [self._convert(self.eval(arg), arg.ctype, param_type)
                for arg, param_type in zip(expr.args, resolved.param_types)]
        if resolved.kind == "whole" or isinstance(resolved.result_type, VectorType) \
                or any(isinstance(t, VectorType) for t in resolved.param_types):
            return apply_builtin(resolved, args)
        result = resolved.impl(*args)
        if resolved.name == "abs":
            return result
        return _mask_unsigned(result, resolved.result_type)

    def _flatten(self, expr: ast.Index):
        """A full multi-dimensional array access ``a[i][j]`` as (root
        array, flat element index); None for any other access."""
        if isinstance(expr.ctype, ArrayType):
            return None  # partial indexing yields an array row
        indices: List[ast.Expr] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index) and isinstance(node.base.ctype, ArrayType):
            indices.append(node.index)
            node = node.base
        if not isinstance(node.ctype, ArrayType) or not indices:
            return None
        indices.reverse()
        root = self.eval(node)
        ctype: CType = node.ctype
        flat = 0
        for index_expr in indices:
            element = ctype.element
            stride = element.flat_length() if isinstance(element, ArrayType) else 1
            ctype = element
            flat = flat + self.eval(index_expr) * stride
        return root, flat

    def _eval_Index(self, expr):
        source = self.cse.get(id(expr))
        if source is not None:
            return self.loads[source]
        if isinstance(expr.base.ctype, ArrayType):
            flat = self._flatten(expr)
            if flat is None:
                return self.eval(expr.base).index(self.eval(expr.index))
            root, index = flat
            value = root.pointer.load(index)
        else:
            base = self.eval(expr.base)
            value = base.load(self.eval(expr.index))
        self.loads[id(expr)] = value
        return value

    def _eval_Member(self, expr):
        base = self.eval(expr.base)
        if len(expr.indices) == 1:
            return base.components[expr.indices[0]]
        return VecValue(base.element_type, [base.components[i] for i in expr.indices])

    def _eval_Cast(self, expr):
        value = self.eval(expr.operand)
        target = expr.target_type
        if target.is_void():
            return None
        if isinstance(target, PointerType):
            if not isinstance(expr.operand.ctype, (PointerType, ArrayType)):
                raise KernelFault("invalid pointer cast")
            return _decay(value, expr.operand.ctype).retyped(target.pointee)
        return convert_value(value, target)

    def _eval_VectorLiteral(self, expr):
        target: VectorType = expr.target_type
        components: List = []
        for element in expr.elements:
            value = self.eval(element)
            if isinstance(value, VecValue):
                components.extend(value.components)
            else:
                components.append(value)
        if len(components) == 1 and target.width > 1:
            components = components * target.width
        return VecValue(target.element, components)

    def _place(self, expr) -> _Place:
        """The location an assignment target names (its address
        computation evaluated now, before the assigned value)."""
        if isinstance(expr, ast.Identifier):
            return _Place(slot=self._lookup(expr.name))
        if isinstance(expr, ast.Index):
            if isinstance(expr.base.ctype, ArrayType):
                root, index = self._flatten(expr)
                return _Place(pointer=root.pointer, index=index)
            base = self.eval(expr.base)
            return _Place(pointer=base, index=self.eval(expr.index))
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            return _Place(pointer=self.eval(expr.operand), index=0)
        if isinstance(expr, ast.Member):
            base = self._place(expr.base)
            return _Place(vec=base.load(), indices=expr.indices, element=expr.base.ctype.element,
                          writeback=None if base.slot is not None else base)
        raise KernelFault(f"expression is not assignable: {type(expr).__name__}")

    def _convert(self, value, source, target):
        """An implicit conversion under the relaxed value contract."""
        if source is target or source is None or source == target \
                or isinstance(source, ArrayType):
            return value
        if isinstance(target, VectorType) or isinstance(source, VectorType):
            return convert_value(value, target)
        if isinstance(target, PointerType) or isinstance(source, PointerType):
            return value
        if target.is_bool():
            return 1 if value else 0
        if target.is_float():
            return float(value) if source.is_integer() else value
        if source.is_float():
            value = int(value)
            return value if target.signed else _mask_unsigned(value, target)
        if not target.signed:
            return _mask_unsigned(value, target)
        if source.signed and source.size <= target.size:
            return value
        # Narrowing or sign-changing: size_t -> int turns 2^64-1 into -1.
        return wrap_int(int(value), target)

    _SIMPLE = {}
    _BLOCKS = {ast.CompoundStmt: _block}
    _EXPRS = {}


for _name, _method in list(vars(Interpreter).items()):
    kind, _, node = _name.partition("_")[2].partition("_")
    if kind == "simple":
        Interpreter._SIMPLE[getattr(ast, node)] = _method
    elif kind == "stmt":
        Interpreter._BLOCKS[getattr(ast, node)] = _method
    elif kind == "eval":
        Interpreter._EXPRS[getattr(ast, node)] = _method


def _binary_op(expr: ast.BinaryOp):
    """``expr``'s operator as a function of its two operand values.

    Everything decided by types alone (pointer arithmetic, vector
    lanes, unsigned masking, strength reduction) is resolved here, once
    per node and launch."""
    op = expr.op
    left_type, right_type = expr.left.ctype, expr.right.ctype
    left_ptr = isinstance(left_type, (PointerType, ArrayType))
    right_ptr = isinstance(right_type, (PointerType, ArrayType))
    if left_ptr or right_ptr:
        return lambda left, right: _pointer_binary(
            op, left_ptr, right_ptr, _decay(left, left_type), _decay(right, right_type))
    op_type = expr.op_type
    if isinstance(op_type, VectorType):
        if op in _CMP_OPS:
            return lambda left, right: compare_value(op, left, right, op_type)
        return lambda left, right: binary_value(op, left, right, op_type)
    unsigned = op_type.is_integer() and not op_type.signed and not op_type.is_bool()
    mask = (1 << op_type.bits) - 1 if unsigned else None
    if op in _CMP_OPS or op in ("/", "%"):
        if op == "/":
            apply = c_fdiv if op_type.is_float() else c_idiv
        else:
            apply = c_imod if op == "%" else OPERATORS[op]
        if mask is None:
            return apply
        return lambda left, right: apply(left & mask, right & mask)
    if op in ("<<", ">>"):
        bits = op_type.bits
        shift = OPERATORS[op]
        if mask is None:
            return lambda left, right: shift(left, right % bits)
        if op == ">>":
            return lambda left, right: ((left & mask) >> (right % bits)) & mask
        return lambda left, right: shift(left, right % bits) & mask
    # Strength reduction, as the cost pass assumes (it also keeps float
    # signed zeros: -0.0 + 0 stays -0.0).
    if op == "*":
        if _is_literal(expr.right, 1, 1.0):
            return lambda left, right: left
        if _is_literal(expr.left, 1, 1.0):
            return lambda left, right: right
        if _is_literal(expr.right, -1, -1.0):
            return lambda left, right: _masked(-left, mask)
        if _is_literal(expr.left, -1, -1.0):
            return lambda left, right: _masked(-right, mask)
    elif op in ("+", "-") and _is_literal(expr.right, 0, 0.0):
        return lambda left, right: left
    elif op == "+" and _is_literal(expr.left, 0, 0.0):
        return lambda left, right: right
    apply = OPERATORS[op]
    if mask is None:
        return apply
    return lambda left, right: apply(left, right) & mask


def _constant(value):
    return lambda interp, expr: value


def _masked(value, mask):
    return value if mask is None else value & mask


def _pointer_binary(op: str, left_ptr: bool, right_ptr: bool, left, right):
    if op == "+":
        return left.add(right) if left_ptr else right.add(left)
    if op == "-":
        return left.diff(right) if left_ptr and right_ptr else left.add(-right)
    if op in ("==", "!="):
        same = isinstance(left, Pointer) and isinstance(right, Pointer) \
            and left.array is right.array and left.offset == right.offset
        return int(same) if op == "==" else int(not same)
    return int(OPERATORS[op](left.offset, right.offset))


def _decay(value, ctype):
    return value.decayed() if isinstance(ctype, ArrayType) else value


def _mask_unsigned(value, ctype):
    if isinstance(ctype, ScalarType) and ctype.is_integer() and not ctype.signed and not ctype.is_bool():
        return value & ((1 << ctype.bits) - 1)
    return value


def _unary_vector(ctype: VectorType, op: str, operand) -> VecValue:
    if not isinstance(operand, VecValue):
        operand = VecValue(ctype.element, [operand] * ctype.width)
    element = ctype.element
    if op == "-":
        return VecValue(element, [-c for c in operand.components])
    if op == "~":
        return VecValue(element, [wrap_int(~int(c), element) for c in operand.components])
    if op == "!":
        return VecValue(element, [0 if c else 1 for c in operand.components])
    return VecValue(element, list(operand.components))


def apply_builtin(resolved: ResolvedBuiltin, args: Sequence):
    """Apply a resolved builtin to runtime argument values."""
    converted = [convert_value(arg, param) for arg, param in zip(args, resolved.param_types)]
    if resolved.kind == "whole":
        if resolved.name == "select":
            a, b, c = converted
            if isinstance(c, VecValue):
                a_components = a.components if isinstance(a, VecValue) else [a] * c.width
                b_components = b.components if isinstance(b, VecValue) else [b] * c.width
                element = a.element_type if isinstance(a, VecValue) else resolved.result_type.element
                out = [bc if cc else ac for ac, bc, cc in zip(a_components, b_components, c.components)]
                return VecValue(element, out)
            return b if c else a
        result = resolved.impl(*converted)
    elif isinstance(resolved.result_type, VectorType) and any(isinstance(a, VecValue) for a in converted):
        width = resolved.result_type.width
        lanes = []
        for arg in converted:
            lanes.append(arg.components if isinstance(arg, VecValue) else [arg] * width)
        element = resolved.result_type.element
        return VecValue(element, [resolved.impl(*lane_args) for lane_args in zip(*lanes)])
    else:
        result = resolved.impl(*converted)
    return convert_value(result, resolved.result_type)


class _NullPointer:
    def __getattr__(self, name):
        raise KernelFault("use of an uninitialized (null) pointer")

    def __repr__(self) -> str:
        return "<null pointer>"


NULL_POINTER = _NullPointer()


def collect_local_decls(function: ast.FunctionDef) -> List[ast.VarDecl]:
    """All ``__local`` variable declarations in a kernel body."""
    result: List[ast.VarDecl] = []
    for node in ast.walk(function.body):
        if isinstance(node, ast.VarDecl) and node.address_space == "local":
            result.append(node)
    return result


def allocate_local_memory(function: ast.FunctionDef, counters: Optional[ExecutionCounters] = None) -> Dict[int, ArrayRef]:
    """Allocate group-shared storage for a kernel's ``__local`` variables."""
    memory_counters = counters.memory if counters is not None else None
    storage: Dict[int, ArrayRef] = {}
    for decl in collect_local_decls(function):
        ctype = decl.declared_type
        if isinstance(ctype, ArrayType):
            pointer = allocate(ctype.base_element(), ctype.flat_length(), "local", memory_counters)
            storage[id(decl)] = ArrayRef(pointer, ctype.element)
        else:
            pointer = allocate(ctype, 1, "local", memory_counters)
            storage[id(decl)] = ArrayRef(pointer, ctype)
    return storage


def local_memory_bytes(function: ast.FunctionDef) -> int:
    """Total __local bytes a kernel declares (for occupancy modeling)."""
    return sum(decl.declared_type.sizeof() for decl in collect_local_decls(function))
