"""End-to-end simdization driver.

Mirrors the paper's two-phase structure:

1. **Data reorganization phase** — build the bare graph ("simdize as if
   there were no alignment constraints"), optionally reassociate
   common offsets, place stream shifts per the chosen policy, and
   validate constraints (C.2)/(C.3);
2. **SIMD code generation phase** — lower the graph to a vector
   program (bounds, prologue/epilogue, software pipelining), then run
   the vector-IR optimization passes (memory normalization, CSE,
   predictive commoning, unrolling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.loopgen import GenOptions, generate_program
from repro.codegen.passes import run_passes
from repro.codegen.reduction import generate_reduction_program
from repro.errors import PolicyError
from repro.ir.expr import Loop
from repro.reorg.build import build_loop_graph
from repro.reorg.graph import LoopGraph
from repro.reorg.policies import apply_policy, default_policy
from repro.reorg.reassoc import reassociate
from repro.reorg.validate import validate_graph
from repro.simdize.options import SimdOptions
from repro.vir.program import VProgram


@dataclass
class SimdizeResult:
    """Everything a caller may want to inspect after simdization."""

    program: VProgram
    graph: LoopGraph
    options: SimdOptions
    policy: str

    @property
    def shift_count(self) -> int:
        """Static stream-shift count chosen by the placement policy."""
        return self.graph.shift_count()

    def class_key(self) -> tuple:
        """A NumPy-free structural grouping key for this result.

        Two results with equal keys lowered the same source structure
        the same way; the serve micro-batcher groups by this when the
        jit engine's finer program signature is unavailable (no NumPy).
        """
        return (self.program.source.signature(), self.program.V,
                self.options)


def simdize(loop: Loop, V: int = 16, options: SimdOptions | None = None) -> SimdizeResult:
    """Simdize ``loop`` for a ``V``-byte machine with alignment constraints."""
    options = options or SimdOptions()
    if loop.has_reductions:
        return _simdize_reduction(loop, V, options)

    bare = build_loop_graph(loop, V)
    if options.offset_reassoc:
        bare = reassociate(bare)

    policy = options.policy
    if policy == "auto":
        policy = default_policy(bare)
    elif policy != "zero" and loop.runtime_alignment():
        raise PolicyError(
            f"policy {policy!r} needs compile-time alignments; this loop has "
            "runtime-aligned arrays — use policy='zero' or 'auto'"
        )
    graph = apply_policy(bare, policy)
    validate_graph(graph)

    gen_options = GenOptions(
        software_pipeline=options.software_pipeline,
        bounds_scheme=options.bounds_scheme,
    )
    program = generate_program(graph, gen_options)
    program = run_passes(program, options)
    return SimdizeResult(program=program, graph=graph, options=options, policy=policy)


def _simdize_reduction(loop: Loop, V: int, options: SimdOptions) -> SimdizeResult:
    """The reduction vectorizer (extension; see codegen.reduction).

    Accumulator blocks want offset 0, so operand streams are placed
    with the zero-shift rule against a virtual vector-aligned store —
    which also keeps the scheme valid under runtime alignments.
    """
    from repro.ir.expr import ArrayDecl, Ref
    from repro.reorg.build import build_expr
    from repro.reorg.graph import RStore, StatementGraph
    from repro.reorg.policies import zero_shift_expr
    from repro.reorg.reassoc import reassociate

    if options.policy not in ("auto", "zero"):
        raise PolicyError(
            f"reduction loops use the zero-shift accumulator scheme; "
            f"policy {options.policy!r} does not apply"
        )
    B = V // loop.dtype.size
    graph = LoopGraph(loop=loop, V=V)
    for index, stmt in enumerate(loop.statements):
        virtual = ArrayDecl(f"__acc{index}", loop.dtype, max(B, 1), align=0)
        graph.statements.append(
            StatementGraph(RStore(Ref(virtual, 0), build_expr(stmt.expr, loop)), index)
        )
    if options.offset_reassoc:
        graph = reassociate(graph)
    for k, sg in enumerate(graph.statements):
        graph.statements[k] = StatementGraph(
            RStore(sg.store.ref, zero_shift_expr(sg.store.src, V)), sg.statement_index
        )
    validate_graph(graph)

    program = generate_reduction_program(graph, options.software_pipeline)
    program = run_passes(program, options)
    return SimdizeResult(program=program, graph=graph, options=options, policy="zero")
