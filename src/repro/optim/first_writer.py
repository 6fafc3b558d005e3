"""First-writer store forwarding.

Synthesized neuron functions accumulate (``+=``) into value and gradient
buffers, which forces a zero-fill pass (forward) or runtime zeroing
(backward) plus a read-modify-write by the first real producer. When the
first *toucher* of a buffer in a program is a pattern-matched GEMM that
covers the buffer entirely, the accumulation is redundant: the GEMM's
contraction already performs the reduction, so it can store directly.

This pass walks each direction's sections in execution order and

* converts such a GEMM to a non-accumulating store,
* deletes a zero-fill unit that immediately precedes it, and
* marks gradient buffers whose first toucher now overwrites them as not
  needing the executor's pre-backward zeroing.

On large convolution layers this removes two full passes over the
activation-sized buffers per direction — part of why static per-layer
kernels (which must present fully-materialized, zeroed blobs at their
interfaces) cannot match the synthesized code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import Const, Gemm, Index, SliceExpr
from repro.synthesis.access import unit_rw
from repro.synthesis.units import LoopUnit, Section


def _covers_buffer(ref: Index, plan) -> bool:
    """Does the reference write every element of its buffer?"""
    spec = plan.buffers.get(ref.buffer)
    if spec is None or spec.alias_of is not None:
        return False
    expected = ((plan.batch_size,) if spec.batched else ()) + spec.shape
    if len(ref.indices) != len(expected):
        return False
    for ix, dim in zip(ref.indices, expected):
        if not (
            isinstance(ix, SliceExpr)
            and isinstance(ix.start, Const)
            and ix.start.value == 0
            and isinstance(ix.stop, Const)
            and ix.stop.value == dim
            and isinstance(ix.step, Const)
            and ix.step.value == 1
        ):
            return False
    return True


def run(sections: List[Section], plan) -> Dict[str, int]:
    """Apply first-writer forwarding to one direction's sections;
    returns the fills dropped and the GEMMs turned into stores."""
    touched = set()
    dropped = forwarded = 0
    for sec in sections:
        new_units: List[LoopUnit] = []
        i = 0
        while i < len(sec.units):
            unit = sec.units[i]
            reads, writes = unit_rw(plan, unit)
            # fill immediately followed by a covering GEMM on the same
            # untouched buffer: drop the fill, let the GEMM store
            if (
                unit.tags.kind == "fill"
                and i + 1 < len(sec.units)
                and isinstance(sec.units[i + 1].stmt, Gemm)
            ):
                gemm: Gemm = sec.units[i + 1].stmt
                tgt = plan.resolve_alias(gemm.c.buffer)
                if (
                    writes == {tgt}
                    and tgt not in touched
                    and gemm.accumulate
                    and _covers_buffer(gemm.c, plan)
                ):
                    gemm.accumulate = False
                    touched.add(tgt)
                    dropped += 1
                    forwarded += 1
                    i += 1  # skip the fill; the gemm is appended below
                    continue
            if isinstance(unit.stmt, Gemm) and unit.stmt.accumulate:
                gemm = unit.stmt
                tgt = plan.resolve_alias(gemm.c.buffer)
                spec = plan.buffers.get(gemm.c.buffer)
                role = spec.role if spec is not None else ""
                if (
                    tgt not in touched
                    and role in ("grad_input", "grad", "value")
                    and not unit.loops
                    and _covers_buffer(gemm.c, plan)
                ):
                    gemm.accumulate = False
                    forwarded += 1
                    resolved_spec = plan.buffers.get(tgt)
                    if resolved_spec is not None and resolved_spec.role in (
                        "grad",
                        "grad_input",
                    ):
                        resolved_spec.needs_zero = False
            touched.update(reads, writes)
            new_units.append(unit)
            i += 1
        sec.units = new_units
    return {"fills_dropped": dropped, "gemm_stores_forwarded": forwarded}
