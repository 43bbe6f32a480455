"""Kernel-source lint: static checks beyond what the type checker enforces.

Runs over the *checked* AST (``ctype``/``symbol``/``resolved``
annotations present) and reports through the same
:class:`~repro.kernelc.diagnostics.DiagnosticSink` machinery as the rest
of the front-end, so findings render with carets like compile errors.

Rule catalogue (see ``docs/analysis.md``):

========================  ========  =================================================
rule                      severity  fires when
========================  ========  =================================================
barrier-divergence        warning   ``barrier()`` inside control flow whose condition
                                    depends on ``get_global_id``/``get_local_id`` —
                                    work-items may disagree on reaching it (UB on GPUs)
constant-index-oob        error     an index into a fixed-size array over constants
                                    and loop indices only is out of bounds on every
                                    execution reaching it (any function)
symbolic-oob              error     the affine access analysis (SkelAccess) finds a
                                    *witness work-item* — guaranteed to exist for any
                                    launch honouring ``reqd_work_group_size`` — whose
                                    index into a fixed-size array is out of bounds
                                    with every guard on the access satisfied
unused-binding            warning   a parameter or local variable is never read
write-to-constant         error     a store through ``__constant`` memory
missing-return            warning   a non-void function may fall off the end
                                    without returning a value
uncoalesced-access        warning   a store through a ``__global`` pointer whose
                                    per-work-item stride along dimension 0 is >= 2
                                    elements (or symbolic) — adjacent lanes hit
                                    non-adjacent memory, wasting DRAM bursts
strided-global-read       warning   the load-side twin of ``uncoalesced-access``
========================  ========  =================================================

A finding can be acknowledged with a ``skelcl-lint: allow(<rule>)``
comment on the diagnostic's line or the line above it.

Entry points: :func:`lint_program` (library), ``python -m repro.kernelc
--lint`` (CLI), and ``Program.build()`` which lints every build and
keeps the findings in ``Program.lint_diagnostics``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Set

from . import ast
from .ctypes_ import PointerType
from .diagnostics import Diagnostic, DiagnosticSink
from .source import Span

_ALLOW_RE = re.compile(r"skelcl-lint:\s*allow\(([a-z0-9-]+)\)")
_RULE_RE = re.compile(r"\[([a-z0-9-]+)\]\s*$")

# Builtins whose value differs between work-items: control flow keyed on
# them is divergent.  get_group_id/get_num_groups/get_*_size are uniform
# across a work-group, which is all barrier semantics needs.
_DIVERGENT_BUILTINS = {"get_global_id", "get_local_id"}


def lint_program(program: ast.Program,
                 sink: Optional[DiagnosticSink] = None) -> List[Diagnostic]:
    """Run every lint rule over a checked ``program``; returns the
    diagnostics (also accumulated into ``sink`` when one is given)."""
    from ..analysis import affine

    if sink is None:
        sink = DiagnosticSink(getattr(program, "source", None))
    before = len(sink.diagnostics)
    reported: Set[int] = set()
    for fn in program.functions:
        if fn.body is None:
            continue
        facts = affine.kernel_facts(program, fn)
        _check_barrier_divergence(fn, sink)
        _check_array_indices(facts, fn.is_kernel, sink, reported)
        _check_unused_bindings(fn, sink)
        _check_write_to_constant(fn, sink)
        _check_missing_return(fn, sink)
        if fn.is_kernel:
            _check_coalescing(facts, sink)
    _apply_suppressions(program, sink, before)
    return sink.diagnostics[before:]


def _apply_suppressions(program: ast.Program, sink: DiagnosticSink,
                        before: int) -> None:
    """Drop findings acknowledged by a ``skelcl-lint: allow(rule)``
    comment on the same or the preceding source line."""
    source = getattr(program, "source", None)
    if source is None:
        return

    def allowed(diag: Diagnostic) -> bool:
        rule = _RULE_RE.search(diag.message)
        if rule is None or diag.span is None or diag.span.start.line <= 0:
            return False
        for line in (diag.span.start.line, diag.span.start.line - 1):
            for m in _ALLOW_RE.finditer(source.line_text(line)):
                if m.group(1) == rule.group(1):
                    return True
        return False

    sink.diagnostics[before:] = [
        d for d in sink.diagnostics[before:] if not allowed(d)
    ]


# -- rule: barrier-divergence ------------------------------------------------


def _expr_divergent(expr: Optional[ast.Expr], tainted: Set[str]) -> bool:
    if expr is None:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and node.callee in _DIVERGENT_BUILTINS:
            return True
        if isinstance(node, ast.Identifier) and node.name in tainted:
            return True
    return False


def _tainted_vars(fn: ast.FunctionDef) -> Set[str]:
    """Variables whose value (transitively) depends on a work-item id.

    Flow-insensitive fixpoint: sound for the warning's purpose — it may
    over-taint a name that is later reassigned uniformly, never the
    reverse."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn.body):
            name = rhs = None
            if isinstance(node, ast.Assignment) and isinstance(node.target, ast.Identifier):
                name, rhs = node.target.name, node.value
            elif isinstance(node, ast.VarDecl) and node.init is not None:
                name, rhs = node.name, node.init
            if name is not None and name not in tainted and _expr_divergent(rhs, tainted):
                tainted.add(name)
                changed = True
    return tainted


def _check_barrier_divergence(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    if not getattr(fn, "uses_barrier", False):
        return
    tainted = _tainted_vars(fn)

    def visit(stmt: ast.Stmt, divergent_at: Optional[Span]) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.statements:
                visit(child, divergent_at)
        elif isinstance(stmt, ast.IfStmt):
            here = divergent_at
            if here is None and _expr_divergent(stmt.condition, tainted):
                here = stmt.condition.span
            visit(stmt.then_branch, here)
            if stmt.else_branch is not None:
                visit(stmt.else_branch, here)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.DoStmt)):
            here = divergent_at
            if here is None and _expr_divergent(stmt.condition, tainted):
                here = stmt.condition.span
            visit(stmt.body, here)
        elif isinstance(stmt, ast.SwitchStmt):
            here = divergent_at
            if here is None and _expr_divergent(stmt.subject, tainted):
                here = stmt.subject.span
            for case in stmt.cases:
                for child in case.body:
                    visit(child, here)
        elif isinstance(stmt, ast.ExprStmt) and stmt.expr is not None:
            if divergent_at is None:
                return
            for node in ast.walk(stmt.expr):
                if isinstance(node, ast.Call) and node.callee == "barrier":
                    sink.warning(
                        "barrier() inside control flow that diverges across "
                        "work-items (condition at "
                        f"{divergent_at.start}) — work-items taking different "
                        "paths deadlock or corrupt local memory on real GPUs "
                        "[barrier-divergence]",
                        node.span,
                    )

    visit(fn.body, None)


# -- rule: unused-binding ----------------------------------------------------


def _check_unused_bindings(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    used: Set[str] = set()
    for node in ast.walk(fn.body):
        if isinstance(node, ast.Identifier):
            used.add(node.name)
    for param in fn.params:
        if param.name not in used:
            sink.warning(
                f"parameter {param.name!r} of {fn.name}() is never used "
                f"[unused-binding]",
                param.span,
            )
    for node in ast.walk(fn.body):
        if isinstance(node, ast.VarDecl) and node.name not in used:
            sink.warning(
                f"local variable {node.name!r} is never used [unused-binding]",
                node.span,
            )


# -- rule: write-to-constant -------------------------------------------------


def _lvalue_in_constant_space(target: ast.Expr) -> bool:
    """True when ``target`` denotes storage in ``__constant`` memory."""
    node = target
    while isinstance(node, (ast.Index, ast.Member)):
        node = node.base
    if isinstance(node, ast.UnaryOp) and node.op == "*":
        pointee = getattr(node.operand, "ctype", None)
        return isinstance(pointee, PointerType) and pointee.address_space == "constant"
    symbol = getattr(node, "symbol", None)
    if symbol is None:
        return False
    if symbol.address_space == "constant":
        return True
    # Indexing a __constant pointer parameter.
    ctype = symbol.ctype
    return (target is not node and isinstance(ctype, PointerType)
            and ctype.address_space == "constant")


def _check_write_to_constant(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    for node in ast.walk(fn.body):
        target = None
        if isinstance(node, ast.Assignment):
            target = node.target
        elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and node.op in ("++", "--"):
            target = node.operand
        if target is not None and _lvalue_in_constant_space(target):
            sink.error(
                "write to __constant memory [write-to-constant]",
                node.span,
            )


# -- rule: missing-return ----------------------------------------------------


def _check_missing_return(fn: ast.FunctionDef, sink: DiagnosticSink) -> None:
    if fn.return_type.is_void() or fn.is_kernel:
        return
    if not ast.always_returns(fn.body):
        sink.warning(
            f"{fn.name}() returns {fn.return_type} but may fall off the end "
            f"without a return value [missing-return]",
            fn.span,
        )


# -- rules: constant-index-oob / symbolic-oob / uncoalesced-access /
#    strided-global-read
#
# All build on the kernel facts (repro.analysis.affine.kernel_facts):
# constant-index-oob bounds a work-item-independent index over its loop
# ranges, symbolic-oob searches for a concrete *witness work-item*
# whose array index provably escapes the bounds, uncoalesced-access/
# strided-global-read look at the per-work-item stride of each __global
# footprint.

#: Coalescing threshold: an element stride of +-1 (or 0, a broadcast)
#: between lane-adjacent work-items coalesces into one DRAM burst;
#: anything wider — or symbolic — splits the warp's accesses.
_COALESCE_MAX_STRIDE = 1

_MAX_WITNESS_SYMS = 6


def _witness_ranges(summary) -> dict:
    """Variant-symbol ranges every conforming launch is guaranteed to
    attain: work-item (0,..,0) always exists; with a
    ``reqd_work_group_size`` attribute the whole first group does (the
    NDRange API enforces that local sizes divide global sizes)."""
    reqd = summary.reqd_wg or (1, 1, 1)
    ranges = {}
    for d in range(3):
        limit = max(0, reqd[d] - 1)
        ranges[("gid", d)] = (0, limit)
        ranges[("lid", d)] = (0, limit)
        ranges[("grp", d)] = (0, 0)
    return ranges


def _witness_uniforms(summary) -> dict:
    uniforms = {}
    reqd = summary.reqd_wg
    if reqd is not None:
        for d in range(3):
            uniforms[("lsize", d)] = reqd[d]
    return uniforms


def _corners(ranges: dict, syms: list) -> list:
    points = [{}]
    for sym in syms:
        lo, hi = ranges[sym]
        values = (lo,) if lo == hi else (lo, hi)
        points = [{**p, sym: v} for p in points for v in values]
    return points


def _check_array_indices(summary, is_kernel: bool, sink: DiagnosticSink,
                         reported: Set[int]) -> None:
    """``constant-index-oob`` and, in kernels, ``symbolic-oob`` over the
    fixed-size array sites of ``summary``.

    An index over constants and loop-induction symbols is the same for
    every work-item: when its whole range (the loop symbols narrowed
    through the guards on the access) lies outside the array, every
    execution reaching the site is wrong — ``constant-index-oob``.  A
    work-item-dependent index needs a witness work-item satisfying every
    guard on the access — ``symbolic-oob``."""
    from ..analysis import affine

    env = affine.EvalEnv(_witness_uniforms(summary), _witness_ranges(summary))
    for site in summary.array_sites:
        if site.index is None or id(site.span) in reported:
            continue
        try:
            base, coeffs = affine._concrete(site.index, env)
        except KeyError:
            continue  # references a scalar parameter: not definite
        span = (base, base) if not coeffs else \
            affine._offset_range(site.index, site.guards)
        # A loop index the guards leave unbounded is not reported: its
        # loop could not be modelled, like a possibly-OOB index.
        if isinstance(span, tuple) and max(map(abs, span)) < affine.IV_LIMIT // 2 \
                and (span[1] < 0 or span[0] >= site.length):
            reported.add(id(site.span))
            lo, hi = span
            shown = lo if lo == hi else f"[{lo}, {hi}]"
            sink.error(
                f"index {shown} is out of bounds for array of length "
                f"{site.length} [constant-index-oob]",
                site.span,
            )
            continue
        if not coeffs or not is_kernel:
            continue
        try:
            guards = [affine._concrete(g, env) for g in site.guards]
        except KeyError:
            continue
        syms = sorted(set(coeffs) | {s for _b, gc in guards for s in gc})
        if len(syms) > _MAX_WITNESS_SYMS or any(
                s not in env.ranges and s[0] != "iv" for s in syms):
            continue
        # An induction symbol is pinned to iteration 0 below, which
        # presumes the loop body executes at least once.  That is only
        # justified when some captured guard constrains the symbol (an
        # affine loop condition); a guard-free iv comes from a loop the
        # analysis could not model, which may run zero times — no
        # definite witness exists there.
        guarded = {s for _b, gc in guards for s in gc}
        if any(s[0] == "iv" and s not in guarded for s in coeffs):
            continue
        ranges = {s: (0, 0) if s[0] == "iv" else env.ranges[s] for s in syms}
        narrowed = affine.narrow_ranges(guards, ranges)
        if narrowed is None:
            continue  # guards infeasible over the witness domain
        for point in _corners(narrowed, syms):
            if any(gb + sum(gc.get(s, 0) * v for s, v in point.items()) > 0
                   for gb, gc in guards):
                continue
            index = base + sum(coeffs.get(s, 0) * v for s, v in point.items())
            if index < 0 or index >= site.length:
                reported.add(id(site.span))
                witness = ", ".join(
                    f"{affine._format_sym(s)}={v}" for s, v in point.items())
                sink.error(
                    f"index {site.index.format()} = {index} is out of "
                    f"bounds for array '{site.name}' of length "
                    f"{site.length} at {witness or 'any work-item'} "
                    f"[symbolic-oob]",
                    site.span,
                )
                break


def _check_coalescing(summary, sink: DiagnosticSink) -> None:
    seen: Set[tuple] = set()
    for psum in summary.params.values():
        if not psum.affine or psum.space != "global":
            continue
        for fp in psum.footprints:
            stride = fp.warp_stride()
            if stride is not None and abs(stride) <= _COALESCE_MAX_STRIDE:
                continue
            has_variant = bool(fp.index.terms)
            if not has_variant:
                continue  # uniform broadcast: served by one transaction
            rule = ("uncoalesced-access" if fp.mode == "w"
                    else "strided-global-read")
            key = (rule, fp.param, id(fp.span))
            if key in seen:
                continue
            seen.add(key)
            shown = "symbolic" if stride is None else str(stride)
            verb = "store to" if fp.mode == "w" else "load from"
            sink.warning(
                f"{verb} __global '{fp.param}' has per-work-item stride "
                f"{shown} elements along dimension 0 — adjacent work-items "
                f"touch non-adjacent memory, splitting the DRAM burst "
                f"[{rule}]",
                fp.span,
            )
