"""Build products: a checked program, its kernels and their charge schedule.

:func:`compile_program` is the last build step of ``Program.build()``.
It runs the static cost pass (:mod:`.cost`) once per program and indexes
the kernels.  Two engines execute the result with one value contract:
the per-item interpreter (:mod:`.interp`) and the lockstep vectorizer
(:mod:`.vectorize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from . import ast
from .cost import ChargeSchedule, charge_schedule
from .interp import collect_local_decls


@dataclass
class CompiledKernel:
    name: str
    uses_barrier: bool
    definition: ast.FunctionDef
    local_decls: List[ast.VarDecl]
    program: ast.Program  # owning checked AST
    schedule: ChargeSchedule  # shared by the program's kernels

    @property
    def num_params(self) -> int:
        return len(self.definition.params)


@dataclass
class CompiledProgram:
    program: ast.Program
    kernels: Dict[str, CompiledKernel]

    def kernel(self, name: str) -> CompiledKernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(f"no kernel named {name!r}; available: {sorted(self.kernels)}") from None


def compile_program(program: ast.Program) -> CompiledProgram:
    """Schedule a checked program's charges and index its kernels."""
    schedule = charge_schedule(program)
    kernels = {
        function.name: CompiledKernel(
            name=function.name,
            uses_barrier=bool(getattr(function, "uses_barrier", False)),
            definition=function,
            local_decls=collect_local_decls(function),
            program=program,
            schedule=schedule,
        )
        for function in program.functions
        if function.is_kernel
    }
    return CompiledProgram(program, kernels)
