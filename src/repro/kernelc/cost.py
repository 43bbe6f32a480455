"""Static cost pass: the op-charge schedule of a checked program.

Every engine charges the same abstract device "ops" for a kernel, and
they all read them from here.  The pass walks each function once, in
evaluation order, and decides two things per statement:

* **charges** — the static op cost (:func:`node_cost`) of the
  statement's expression (a declaration's initializer, an expression
  statement, a branch or loop condition plus one for the branch, a
  ``for`` increment, a helper's ``return`` value), keyed by ``id`` of
  that expression, and the upfront cost of each ``switch`` (subject
  plus one comparison per case), keyed by ``id`` of the statement;
* **cse** — basic-block load CSE, the one optimization a real driver
  is modeled to do: a repeated memory load whose base and index are
  side-effect free reuses the first load's value, is not charged, and
  is mapped ``{id(elided Index): id(source Index)}``.  A statement's
  charge is its static cost minus the cost of the loads it elided.

Load identity is textual.  Each side-effect-free expression is rendered
to a canonical string (identifiers by their scope-unique name, CSE'd
loads by a per-load temporary, type and builtin operands by object
identity); two loads are the same when their strings are.  The rules
that end a load's life are deliberately coarse and fixed: any store
through memory, call, barrier, branch join or loop boundary forgets
every load, and assigning a variable forgets every load whose string
contains that variable's name *as a substring* (so writing ``i`` also
forgets loads indexed by ``idx``).  The charge schedule is part of the
modeled timing, so these rules are pinned by
``tests/kernelc/test_charge_schedule.py`` and must not be refined.

Constant subtrees cost nothing: :func:`fold_constants` evaluates them
with the same C semantics as run time, optionally resolving
``const``-declared locals with constant initializers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import ast
from .ctypes_ import ArrayType, PointerType, ScalarType, VectorType, convert_scalar
from .execmodel import binary_value, compare_value

# Static per-operator costs (in abstract device "ops").
_OP_COSTS = {"+": 1, "-": 1, "*": 1, "/": 4, "%": 4, "<<": 1, ">>": 1, "&": 1, "|": 1, "^": 1,
             "<": 1, ">": 1, "<=": 1, ">=": 1, "==": 1, "!=": 1, "&&": 1, "||": 1}


def _is_literal(expr: ast.Expr, *values) -> bool:
    return isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)) and expr.value in values


def _literal_value(expr: ast.Expr):
    """The compile-time value of a literal node, or None."""
    if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
        return expr.value
    return None


_FOLDABLE_BINOPS = frozenset(["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
                              "<", ">", "<=", ">=", "==", "!="])


def fold_constants(expr: ast.Expr, lookup=None):
    """Compile-time value of ``expr`` if it is a constant tree, else None.

    ``lookup`` optionally resolves identifiers to known constant values
    (const-declared locals with constant initializers).  Folding uses
    the same C semantics as runtime evaluation (truncating integer
    division, masked shifts, type-converted results), so it never
    changes observable behaviour.
    """
    value = _literal_value(expr)
    if value is not None:
        return convert_scalar(value, expr.ctype) if isinstance(expr.ctype, ScalarType) else value
    if isinstance(expr, ast.Identifier) and lookup is not None:
        return lookup(expr.name)
    if isinstance(expr, ast.UnaryOp) and expr.op in ("-", "+", "~", "!"):
        operand = fold_constants(expr.operand, lookup)
        if operand is None or not isinstance(expr.ctype, ScalarType):
            return None
        if expr.op == "-":
            return convert_scalar(-operand, expr.ctype)
        if expr.op == "+":
            return convert_scalar(operand, expr.ctype)
        if expr.op == "~":
            return convert_scalar(~int(operand), expr.ctype)
        return 0 if operand else 1
    if isinstance(expr, ast.BinaryOp) and expr.op in _FOLDABLE_BINOPS:
        op_type = getattr(expr, "op_type", None)
        if not isinstance(op_type, ScalarType):
            return None
        left = fold_constants(expr.left, lookup)
        right = fold_constants(expr.right, lookup)
        if left is None or right is None:
            return None
        try:
            if expr.op in ("<", ">", "<=", ">=", "==", "!="):
                return compare_value(expr.op, left, right, op_type)
            return binary_value(expr.op, left, right, op_type)
        except Exception:
            return None  # e.g. division by zero: leave for runtime
    if isinstance(expr, ast.Cast) and isinstance(expr.target_type, ScalarType) \
            and not expr.target_type.is_void():
        operand = fold_constants(expr.operand, lookup)
        if operand is None:
            return None
        return convert_scalar(operand, expr.target_type)
    return None


def _folds_away(node: ast.BinaryOp) -> bool:
    """Multiplications by ±1 and additions of 0 cost nothing after the
    strength reduction any real GPU compiler performs."""
    if node.op == "*":
        return _is_literal(node.left, 1, -1, 1.0, -1.0) or _is_literal(node.right, 1, -1, 1.0, -1.0)
    if node.op in ("+", "-"):
        return _is_literal(node.right, 0, 0.0) or (node.op == "+" and _is_literal(node.left, 0, 0.0))
    return False


def node_cost(node: ast.Node, lookup=None) -> int:
    """Static operation cost of evaluating ``node`` (including children).

    Subtrees that fold to compile-time constants (optionally using
    ``lookup`` for const-propagated locals) cost nothing.
    """
    if isinstance(node, ast.Expr) and fold_constants(node, lookup) is not None:
        return 0
    total = 0
    if isinstance(node, ast.BinaryOp):
        if not _folds_away(node):
            width = node.op_type.width if isinstance(getattr(node, "op_type", None), VectorType) else 1
            total += _OP_COSTS.get(node.op, 1) * width
    elif isinstance(node, (ast.UnaryOp, ast.PostfixOp, ast.Assignment, ast.Index, ast.Cast,
                           ast.Conditional, ast.VectorLiteral)):
        total += 1
    elif isinstance(node, ast.Call):
        if getattr(node, "kind", "") == "builtin":
            width = (
                node.resolved.result_type.width
                if isinstance(node.resolved.result_type, VectorType) and node.resolved.kind == "plain"
                else 1
            )
            total += node.resolved.cost * width
        else:
            total += 2  # call overhead; the callee counts its own body
    for child in ast.children(node):
        total += node_cost(child, lookup)
    return total


@dataclass
class ChargeSchedule:
    """The cost pass's result for one program (shared by its kernels).

    ``charges`` maps ``id`` of a charged expression (or of a
    ``SwitchStmt``) to its ops; uncharged statements are absent.
    ``cse`` maps ``id`` of each elided load to ``id`` of the load whose
    value it reuses.
    """

    charges: Dict[int, int] = field(default_factory=dict)
    cse: Dict[int, int] = field(default_factory=dict)


def charge_schedule(program: ast.Program) -> ChargeSchedule:
    """Run the cost pass over every function of a checked program."""
    schedule = ChargeSchedule()
    operands = _OperandNames()
    for function in program.functions:
        _FunctionCost(schedule, operands, function).run()
    return schedule


class _OperandNames:
    """Canonical names for non-AST operands of load strings (types,
    builtins): equal names exactly when the operands are the same
    object.  Program-wide, so names agree across functions."""

    def __init__(self):
        self._index: Dict[int, int] = {}
        self._alive: List[object] = []  # keeps ids from being reused

    def __call__(self, value) -> str:
        index = self._index.get(id(value))
        if index is None:
            index = self._index[id(value)] = len(self._alive)
            self._alive.append(value)
        return f"_K[{index}]"


_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_WORKITEM_FIELDS = {
    "get_global_id": "global_id",
    "get_local_id": "local_id",
    "get_group_id": "group_id",
    "get_global_size": "global_size",
    "get_local_size": "local_size",
    "get_global_offset": "global_offset",
}


def _mask(code: str, ctype) -> str:
    if isinstance(ctype, ScalarType) and ctype.is_integer() and not ctype.signed and not ctype.is_bool():
        return f"(({code}) & {(1 << ctype.bits) - 1})"
    return code


def _decay(code: str, ctype) -> str:
    return f"({code}).decayed()" if isinstance(ctype, ArrayType) else code


def _has_side_effect(code: str) -> bool:
    return "(" in code or "=" in code


class _FunctionCost:
    """The cost pass over one function.

    Expressions are visited in evaluation order; each visit returns the
    canonical string of a side-effect-free expression, or None when the
    expression has effects (stores, increments, a first-time load) that
    make it unusable as part of a load's identity.
    """

    def __init__(self, schedule: ChargeSchedule, operands: _OperandNames,
                 function: ast.FunctionDef):
        self.schedule = schedule
        self.operand = operands
        self.function = function
        self.scopes: List[Dict[str, str]] = [{}]
        self.used_names: set = set()
        self.consts: Dict[str, object] = {}  # scope-unique name -> value
        self.loads: Dict[str, str] = {}  # load string -> temporary
        self.origins: Dict[str, int] = {}  # temporary -> id(source Index)
        self.savings = 0  # cost of the loads elided so far
        self.temps = 0

    # -- names and constants ------------------------------------------------

    def declare(self, c_name: str) -> str:
        name = base = f"v_{c_name}"
        suffix = 1
        while name in self.used_names:
            suffix += 1
            name = f"{base}__{suffix}"
        self.used_names.add(name)
        self.scopes[-1][c_name] = name
        return name

    def lookup(self, c_name: str) -> Optional[str]:
        for scope in reversed(self.scopes):
            if c_name in scope:
                return scope[c_name]
        return None

    def const_lookup(self, c_name: str):
        name = self.lookup(c_name)
        return None if name is None else self.consts.get(name)

    # -- load CSE state -----------------------------------------------------

    def forget_loads(self) -> None:
        self.loads.clear()

    def forget_name(self, name: str) -> None:
        for key in [key for key in self.loads if name in key]:
            del self.loads[key]

    # -- charges --------------------------------------------------------------

    def charged(self, node: ast.Expr, extra: int = 0) -> None:
        """Visit the statement expression ``node`` and record its charge."""
        cost = node_cost(node, self.const_lookup)
        before = self.savings
        self.expr(node)
        final = max(0, cost + extra - (self.savings - before))
        if final:
            self.schedule.charges[id(node)] = final

    # -- statements -------------------------------------------------------------

    def run(self) -> None:
        for param in self.function.params:
            self.declare(param.name)
        self.stmts(self.function.body.statements)

    def stmts(self, statements) -> None:
        for stmt in statements:
            self.stmt(stmt)

    def scoped(self, stmt: ast.Stmt) -> None:
        self.scopes.append({})
        self.stmt(stmt)
        self.scopes.pop()

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            self.scopes.append({})
            self.stmts(stmt.statements)
            self.scopes.pop()
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self.decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Call) and getattr(expr, "kind", "") == "builtin" \
                    and expr.resolved.kind == "barrier":
                self.expr(expr.args[0])
                self.forget_loads()
            elif expr is not None:
                self.charged(expr)
        elif isinstance(stmt, ast.IfStmt):
            self.charged(stmt.condition, extra=1)
            snapshot = dict(self.loads)
            self.scoped(stmt.then_branch)
            self.loads = dict(snapshot)
            if stmt.else_branch is not None:
                self.scoped(stmt.else_branch)
                self.loads = dict(snapshot)
            self.forget_loads()
        elif isinstance(stmt, ast.WhileStmt):
            self.forget_loads()
            self.condition(stmt.condition)
            self.scoped(stmt.body)
            self.forget_loads()
        elif isinstance(stmt, ast.ForStmt):
            self.scopes.append({})
            if stmt.init is not None:
                self.stmt(stmt.init)
            self.forget_loads()
            if stmt.increment is not None:
                # The increment runs after the body (and on continue) but
                # is scheduled once, against the loop-entry state.
                snapshot = dict(self.loads)
                self.charged(stmt.increment)
                self.loads = snapshot
            self.condition(stmt.condition)
            self.scoped(stmt.body)
            self.scopes.pop()
            self.forget_loads()
        elif isinstance(stmt, ast.DoStmt):
            self.forget_loads()
            self.scoped(stmt.body)
            self.forget_loads()
            self.charged(stmt.condition, extra=1)
            self.forget_loads()
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None and not self.function.is_kernel:
                self.charged(stmt.value)
        elif isinstance(stmt, ast.SwitchStmt):
            self.switch(stmt)
        elif not isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def condition(self, condition: Optional[ast.Expr]) -> None:
        if condition is not None:
            self.charged(condition, extra=1)

    def decl(self, decl: ast.VarDecl) -> None:
        ctype = decl.declared_type
        if decl.address_space == "local" or isinstance(ctype, ArrayType):
            self.declare(decl.name)
            return
        if decl.init is not None:
            self.charged(decl.init)
        name = self.declare(decl.name)
        self.forget_name(name)
        if decl.is_const and decl.init is not None and isinstance(ctype, ScalarType):
            folded = fold_constants(decl.init, self.const_lookup)
            if folded is not None:
                self.consts[name] = convert_scalar(folded, ctype)

    def switch(self, stmt: ast.SwitchStmt) -> None:
        self.forget_loads()
        self.schedule.charges[id(stmt)] = node_cost(stmt.subject) + len(stmt.cases)
        self.expr(stmt.subject)
        for case in stmt.cases:
            if case.value is not None:
                self.expr(case.value)
        for case in stmt.cases:
            self.forget_loads()
            self.scopes.append({})
            self.stmts(case.body)
            self.scopes.pop()
        self.forget_loads()

    # -- expressions ------------------------------------------------------------

    def expr(self, expr: ast.Expr) -> Optional[str]:
        if not isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral)):
            folded = fold_constants(expr, self.const_lookup)
            if folded is not None:
                return repr(folded)
        return getattr(self, f"_{type(expr).__name__}")(expr)

    def _IntLiteral(self, expr) -> str:
        return repr(convert_scalar(expr.value, expr.ctype))

    _CharLiteral = _IntLiteral

    def _FloatLiteral(self, expr) -> str:
        return repr(float(expr.value))

    def _SizeofExpr(self, expr) -> str:
        queried = expr.queried_type if expr.queried_type is not None else expr.operand.ctype
        return str(queried.sizeof())

    def _StringLiteral(self, expr) -> Optional[str]:
        return None

    def _Identifier(self, expr) -> str:
        constant = getattr(expr, "constant_value", None)
        if constant is not None:
            return repr(constant)
        name = self.lookup(expr.name)
        return name if name is not None else f"_g_{expr.name}"

    def _UnaryOp(self, expr) -> Optional[str]:
        op = expr.op
        if op in ("++", "--"):
            return self.incdec(expr.operand)
        if op == "&":
            return self.address_of(expr.operand)
        operand = self.expr(expr.operand)
        if operand is None:
            return None
        if op == "*":
            return f"({operand}).load(0)"
        if isinstance(expr.ctype, VectorType):
            return f"_unaryv({self.operand(expr.ctype)}, {op!r}, {operand})"
        if op == "!":
            return f"(0 if ({operand}) else 1)"
        return _mask(f"({op}({operand}))", expr.ctype)

    def _PostfixOp(self, expr) -> None:
        return self.incdec(expr.operand)

    def incdec(self, target: ast.Expr) -> None:
        if isinstance(target, ast.Identifier) and not isinstance(target.ctype, VectorType):
            self.forget_name(self.lookup(target.name))
            return None
        self.lvalue(target)
        self.forget_loads()
        return None

    def address_of(self, inner: ast.Expr) -> Optional[str]:
        if isinstance(inner, ast.Index):
            if isinstance(inner.base.ctype, ArrayType):
                flat = self.flatten(inner)
                if flat is not None:
                    root, index = flat
                    return _join(root, index, "({}).pointer.add({})")
                return _join(self.expr(inner.base), self.expr(inner.index), "({}).index({}).decayed()")
            return _join(self.expr(inner.base), self.expr(inner.index), "({}).add({})")
        if isinstance(inner, ast.UnaryOp) and inner.op == "*":
            return self.expr(inner.operand)
        if isinstance(inner, ast.Identifier) and isinstance(inner.ctype, ArrayType):
            code = self.expr(inner)
            return None if code is None else f"({code}).decayed()"
        return None  # not addressable: faults at run time

    def _BinaryOp(self, expr) -> Optional[str]:
        op = expr.op
        if op in ("&&", "||"):
            left = self.expr(expr.left)
            snapshot = dict(self.loads)
            right = self.expr(expr.right)  # conditional: its loads do not escape
            self.loads = snapshot
            if left is None or right is None:
                return None
            joiner = "and" if op == "&&" else "or"
            return f"(1 if (({left}) {joiner} ({right})) else 0)"
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        if left is None or right is None:
            return None
        left_ptr = isinstance(expr.left.ctype, (PointerType, ArrayType))
        right_ptr = isinstance(expr.right.ctype, (PointerType, ArrayType))
        if left_ptr or right_ptr:
            left, right = _decay(left, expr.left.ctype), _decay(right, expr.right.ctype)
            if op == "+":
                return f"({left}).add({right})" if left_ptr else f"({right}).add({left})"
            if op == "-":
                return f"({left}).diff({right})" if left_ptr and right_ptr \
                    else f"({left}).add(-({right}))"
            if op in ("==", "!="):
                return f"int({'' if op == '==' else 'not '}_ptr_eq({left}, {right}))"
            return f"int(({left}).offset {op} ({right}).offset)"
        op_type = expr.op_type
        if isinstance(op_type, VectorType):
            helper = "_cmpv" if op in _CMP_OPS else "_binv"
            return f"{helper}({op!r}, {left}, {right}, {self.operand(op_type)})"
        unsigned = op_type.is_integer() and not op_type.signed and not op_type.is_bool()
        if op in _CMP_OPS or op in ("/", "%"):
            if unsigned:
                left, right = _mask(left, op_type), _mask(right, op_type)
            if op in _CMP_OPS:
                return f"(({left}) {op} ({right}))"
            if op == "/":
                return f"_fdiv({left}, {right})" if op_type.is_float() else f"_idiv({left}, {right})"
            return f"_imod({left}, {right})"
        if op in ("<<", ">>"):
            if op == ">>" and unsigned:
                left = _mask(left, op_type)
            return _mask(f"(({left}) {op} (({right}) % {op_type.bits}))", op_type)
        if op == "*":
            if _is_literal(expr.right, 1, 1.0):
                return left
            if _is_literal(expr.left, 1, 1.0):
                return right
            if _is_literal(expr.right, -1, -1.0):
                return _mask(f"(-({left}))", op_type)
            if _is_literal(expr.left, -1, -1.0):
                return _mask(f"(-({right}))", op_type)
        elif op in ("+", "-") and _is_literal(expr.right, 0, 0.0):
            return left
        elif op == "+" and _is_literal(expr.left, 0, 0.0):
            return right
        return _mask(f"(({left}) {op} ({right}))", op_type)

    def assignment(self, expr: ast.Assignment) -> None:
        if isinstance(expr.target, ast.Identifier):
            self.expr(expr.value)
            self.forget_name(self.lookup(expr.target.name))
            return None
        # The target's address is evaluated before the value, so a load
        # shared by both sides has its source on the target side.
        self.lvalue(expr.target)
        self.expr(expr.value)
        self.forget_loads()
        return None

    _Assignment = assignment

    def _Conditional(self, expr) -> Optional[str]:
        condition = self.expr(expr.condition)
        snapshot = dict(self.loads)
        then = self.expr(expr.then_expr)
        self.loads = dict(snapshot)
        otherwise = self.expr(expr.else_expr)
        self.loads = snapshot
        if condition is None or then is None or otherwise is None:
            return None
        then = self.converted(_decay(then, expr.then_expr.ctype), expr.then_expr.ctype, expr.ctype)
        otherwise = self.converted(_decay(otherwise, expr.else_expr.ctype),
                                   expr.else_expr.ctype, expr.ctype)
        return f"(({then}) if ({condition}) else ({otherwise}))"

    def _Call(self, expr) -> Optional[str]:
        if expr.kind == "user":
            target = expr.callee_def
            args = [self.expr(arg) for arg in expr.args]
            self.forget_loads()  # the callee may write memory
            if None in args:
                return None
            codes = [self.converted(_decay(code, arg.ctype), arg.ctype, param.declared_type)
                     for code, arg, param in zip(args, expr.args, target.params)]
            joined = ", ".join(codes)
            return f"_fn_{target.name}(C, ctx, {joined})" if joined else f"_fn_{target.name}(C, ctx)"
        resolved = expr.resolved
        if resolved.kind == "workitem":
            if resolved.name == "get_work_dim":
                return "ctx.work_dim"
            field_name = _WORKITEM_FIELDS.get(resolved.name)
            if expr.args and isinstance(expr.args[0], ast.IntLiteral) and field_name is not None \
                    and 0 <= expr.args[0].value <= 2:
                return f"ctx.{field_name}[{expr.args[0].value}]"
            args = [self.expr(arg) for arg in expr.args]
            return None if None in args else f"ctx.{resolved.name}({', '.join(args)})"
        if resolved.kind == "barrier":
            return None  # faults at run time
        if resolved.name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            return None if self.expr(expr.args[0]) is None else "None"
        args = [self.expr(arg) for arg in expr.args]
        if None in args:
            return None
        codes = [self.converted(code, arg.ctype, param_type)
                 for code, arg, param_type in zip(args, expr.args, resolved.param_types)]
        if resolved.kind == "whole" or isinstance(resolved.result_type, VectorType) \
                or any(isinstance(t, VectorType) for t in resolved.param_types):
            return f"_applyb({self.operand(resolved)}, ({', '.join(codes)},))"
        code = f"{self.operand(resolved.impl)}({', '.join(codes)})"
        result = resolved.result_type
        if isinstance(result, ScalarType) and result.is_integer() and not result.signed \
                and resolved.name != "abs":
            code = _mask(code, result)
        return code

    def flatten(self, expr: ast.Index):
        """A full multi-dimensional array access ``a[i][j]`` as (root
        string, flat index string), either None when impure; None
        overall when ``expr`` is not such an access."""
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
        root = self.expr(node)
        ctype = node.ctype
        terms: List[Optional[str]] = []
        for index_expr in indices:
            element = ctype.element
            stride = element.flat_length() if isinstance(element, ArrayType) else 1
            ctype = element
            code = self.expr(index_expr)
            terms.append(code if code is None or stride == 1 else f"({code}) * {stride}")
        if None in terms:
            return root, None
        return root, " + ".join(terms)

    def _Index(self, expr) -> Optional[str]:
        if isinstance(expr.base.ctype, ArrayType):
            flat = self.flatten(expr)
            if flat is None:
                return _join(self.expr(expr.base), self.expr(expr.index), "({}).index({})")
            key = _join(*flat, "({}).pointer.load({})")
        else:
            key = _join(self.expr(expr.base), self.expr(expr.index), "({}).load({})")
        if key is None:
            return None
        temp = self.loads.get(key)
        if temp is not None:
            self.savings += node_cost(expr)
            self.schedule.cse[id(expr)] = self.origins[temp]
            return temp
        self.temps += 1
        temp = f"_ld{self.temps}"
        self.loads[key] = temp
        self.origins[temp] = id(expr)
        return None

    def _Member(self, expr) -> Optional[str]:
        base = self.expr(expr.base)
        if base is None:
            return None
        if len(expr.indices) == 1:
            return f"({base}).components[{expr.indices[0]}]"
        return f"_vswiz({base}, ({', '.join(str(i) for i in expr.indices)},))"

    def _Cast(self, expr) -> Optional[str]:
        operand = self.expr(expr.operand)
        target = expr.target_type
        if operand is None:
            return None
        if target.is_void():
            return f"({operand}, None)[1]" if _has_side_effect(operand) else "None"
        if isinstance(target, PointerType):
            if isinstance(expr.operand.ctype, (PointerType, ArrayType)):
                return f"({_decay(operand, expr.operand.ctype)}).retyped({self.operand(target.pointee)})"
            return None  # faults at run time
        return f"_cvt({operand}, {self.operand(target)})"

    def _VectorLiteral(self, expr) -> Optional[str]:
        parts = [self.expr(element) for element in expr.elements]
        if None in parts:
            return None
        return f"_vecnew({self.operand(expr.target_type)}, ({', '.join(parts)},))"

    def _CommaExpr(self, expr) -> Optional[str]:
        pure = True
        for part in expr.parts[:-1]:
            code = self.expr(part)
            if code is None or _has_side_effect(code):
                pure = False
        last = self.expr(expr.parts[-1])
        return last if pure else None

    def lvalue(self, expr: ast.Expr) -> None:
        """Visit an assignment target's address computation."""
        if isinstance(expr, ast.Index):
            if isinstance(expr.base.ctype, ArrayType):
                self.flatten(expr)
            else:
                self.expr(expr.base)
                self.expr(expr.index)
        elif isinstance(expr, ast.UnaryOp) and expr.op == "*":
            self.expr(expr.operand)
        elif isinstance(expr, ast.Member):
            self.lvalue(expr.base)

    def converted(self, code: str, source, target) -> str:
        """``code`` converted from ``source`` to ``target`` as the engines
        do implicitly (relaxed: no rounding between float types)."""
        if source is None or source == target or isinstance(source, ArrayType):
            return code
        if isinstance(target, VectorType) or isinstance(source, VectorType):
            return f"_cvv({code}, {self.operand(target)})"
        if isinstance(target, PointerType) or isinstance(source, PointerType):
            return code
        if target.is_bool():
            return f"(1 if ({code}) else 0)"
        if target.is_float():
            return f"float({code})" if source.is_integer() else code
        if source.is_float():
            return _mask(f"int({code})", target) if not target.signed else f"int({code})"
        if not target.signed:
            return _mask(code, target)
        if source.signed and source.size <= target.size:
            return code
        return f"_sw{target.bits}({code})"


def _join(left: Optional[str], right: Optional[str], template: str) -> Optional[str]:
    if left is None or right is None:
        return None
    return template.format(left, right)
