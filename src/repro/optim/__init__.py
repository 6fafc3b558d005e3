"""Compiler optimization passes and the compilation driver (§5.4)."""

from repro.optim.pipeline import CompilerOptions, compile_net

__all__ = ["CompilerOptions", "compile_net"]
