"""Predictive commoning (paper Section 5.2/5.5, *PC*).

Predictive commoning is TPO's general optimization "exploiting the
reuse among consecutive loop iterations": when the steady body
computes both a value and its next-iteration sibling (the expression
with ``i -> i + B`` substituted — which is exactly what the
stream-shift lowering of Figure 7 emits as *curr*/*next* register
pairs), the earlier value is carried across iterations in a register
instead of being recomputed.  The result matches the hand-crafted
software-pipelined generator (Figure 10): data of a static misaligned
stream is loaded once per steady iteration.

The pass repeatedly takes the most profitable *displacement chain*
``e_0, e_1 = e_0[i+B], …, e_m`` of pure subexpressions all present in
the body (ties go to the chain whose head occurs first in preorder);
keeps carried registers ``r_0..r_m``; computes only ``e_m`` each
iteration, in a new statement at the top of the body; initialises
``r_0..r_{m-1}`` in a prologue section at the steady lower bound; and
rotates ``r_k <- r_{k+1}`` at the bottom of the loop (the copies are
later removed by unrolling, as in the paper).

Each round changes only the occurrences it replaces, so the pass
tracks every occurrence (*position*) of a candidate once instead of
rescanning the body per round: replacing a chain link retires the
positions below it and turns those above it impure, the new statement
adds positions for ``e_m``, and only the chains around a value whose
presence or first occurrence changed are re-scored.  A heap holds the
scored chains; an entry is used only if it still scores as pushed.
The statements are rebuilt once, after the last round.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.vir.program import VProgram
from repro.vir.vexpr import BINARY_KINDS, ExprFacts, VBinE, VExpr, VRegE, VShiftPairE, VSpliceE
from repro.vir.vstmt import Section, SetV, VStmt, VStoreS

# Position states.
_INTACT = 0     # holds its original value
_IMPURE = 1     # a position below it was replaced by a register
_GONE = 2       # inside a replaced subtree
_REPLACED = 3   # now reads a carried register


def predictive_commoning(program: VProgram, max_rounds: int = 64) -> VProgram:
    """Carry next-iteration values across the steady loop in registers."""
    steady = program.steady
    if steady is None:
        return program

    body = _Body(steady.body, program.B)
    init_stmts: list[VStmt] = []
    for _ in range(max_rounds):
        chain = body.best_chain()
        if chain is None:
            break
        regs = [program.fresh_temp("pc", "vpc") for _ in chain]
        body.apply(chain, regs)
        m = len(chain) - 1
        # Initialise the carried values for the first steady iteration.
        for k in range(m):
            init_stmts.append(SetV(regs[k], chain[k]))
        # Rotate at the bottom: ascending order reads each register
        # before it is overwritten.
        for k in range(m):
            steady.bottom.append(SetV(regs[k], VRegE(regs[k + 1])))

    if init_stmts:
        steady.body = body.statements()
        program.prologue.append(
            Section("pc_init", stmts=init_stmts, i_expr=steady.lb)
        )
    return program


class _Body:
    """The steady body's candidate occurrences across commoning rounds.

    A candidate is a pure subexpression that depends on the loop
    counter.  Positions are numbered in body order (preorder within a
    statement); a statement added at the top gets keys below every
    existing one.  Per candidate value: its positions in key order
    (``occ``) and how many are intact (``count``; present iff > 0).
    Per displacement class: anchor -> value (``classes``).
    """

    def __init__(self, stmts: list[VStmt], B: int) -> None:
        self.B = B
        self.facts = ExprFacts()
        self.nodes: list[VExpr] = []
        self.values: list[int] = []
        self.parents: list[int] = []
        self.kids: list[tuple[int, int] | None] = []
        self.state: list[int] = []
        self.keys: list[int] = []
        self.regs: dict[int, str] = {}       # replaced position -> register
        self.occ: dict[int, deque[int]] = {}
        self.count: dict[int, int] = {}
        self.classes: dict[int, dict[int, int]] = {}
        self.heap: list[tuple] = []
        #: (statement, root position or -1): the original statements in
        #: order, and the statements the rounds put on top, oldest first.
        self.stmts: list[tuple[VStmt, int]] = []
        self.tops: list[tuple[VStmt, int]] = []
        self.low = 0                         # smallest key handed out
        for stmt in stmts:
            expr = _stmt_expr(stmt)
            root = -1 if expr is None else self._add_tree(expr, top=False)
            self.stmts.append((stmt, root))
        for v in self.count:
            self._score(v)

    # -- positions ----------------------------------------------------

    def _add_tree(self, expr: VExpr, top: bool) -> int:
        """Number ``expr``'s nodes as positions in preorder and return
        the root's; ``top`` gives them keys below every existing one."""
        facts = self.facts
        first = len(self.nodes)

        def add(node: VExpr, parent: int) -> int:
            p = len(self.nodes)
            self.nodes.append(node)
            self.values.append(facts.number(node))
            self.parents.append(parent)
            self.kids.append(None)
            self.state.append(_INTACT)
            self.keys.append(p)
            if type(node) in BINARY_KINDS:
                self.kids[p] = (add(node.a, p), add(node.b, p))
            return p

        add(expr, -1)
        added = range(first, len(self.nodes))
        if top:
            self.low -= len(added)
            for i, p in enumerate(added):
                self.keys[p] = self.low + i
        for p in (reversed(added) if top else added):
            v = self.values[p]
            if facts.pure[v] and facts.varying[v]:
                if v not in self.occ:
                    self.occ[v] = deque()
                    self.count[v] = 0
                    shape, anchor = facts.place(v)
                    self.classes.setdefault(shape, {})[anchor] = v
                if top:
                    self.occ[v].appendleft(p)
                else:
                    self.occ[v].append(p)
                self.count[v] += 1
        return first

    def _first(self, v: int) -> int:
        """The first intact position of the present value ``v``."""
        occ = self.occ[v]
        while self.state[occ[0]] != _INTACT:
            occ.popleft()
        return occ[0]

    def _present(self, shape: int, anchor: int) -> int | None:
        v = self.classes[shape].get(anchor)
        return v if v is not None and self.count[v] else None

    # -- chains -------------------------------------------------------

    def _score(self, v: int) -> None:
        """Push the chains around ``v``'s anchor with their current
        profit and head key."""
        shape, anchor = self.facts.place(v)
        B = self.B
        for at in (anchor - B, anchor, anchor + B):
            if self._present(shape, at) is None:
                continue
            while self._present(shape, at - B) is not None:
                at -= B
            length = self._length(shape, at)
            if length >= 2:
                head = self._present(shape, at)
                size = self.facts.size[head]
                key = self.keys[self._first(head)]
                heapq.heappush(self.heap, (-(length - 1) * size, -size, key,
                                           shape, at, length))

    def _length(self, shape: int, head: int) -> int:
        length = 1
        while self._present(shape, head + length * self.B) is not None:
            length += 1
        return length

    def best_chain(self) -> list[VExpr] | None:
        """The most profitable chain's links, or None when none is left."""
        while self.heap:
            _, _, key, shape, at, length = heapq.heappop(self.heap)
            head = self._present(shape, at)
            if (head is not None and self._present(shape, at - self.B) is None
                    and self._length(shape, at) == length
                    and self.keys[self._first(head)] == key):
                links = [self._present(shape, at + k * self.B) for k in range(length)]
                return [self.nodes[self._first(v)] for v in links]
        return None

    def apply(self, chain: list[VExpr], regs: list[str]) -> None:
        """Replace every occurrence of each link by its register and put
        ``chain[-1]`` in a new statement at the top of the body."""
        touched: set[int] = set()
        for link, reg in zip(chain, regs):
            v = self.facts.number(link)
            for p in self.occ[v]:
                if self.state[p] == _INTACT:
                    self.state[p] = _REPLACED
                    self.regs[p] = reg
                    self._drop(p, touched)
                    self._retire_below(p, touched)
                    self._impure_above(p, touched)
        root = self._add_tree(chain[-1], top=True)
        self.tops.append((SetV(regs[-1], chain[-1]), root))
        touched.update(v for v in self.values[root:] if v in self.count)
        for v in touched:
            self._score(v)

    def _drop(self, p: int, touched: set[int]) -> None:
        v = self.values[p]
        if v in self.count:
            self.count[v] -= 1
            touched.add(v)

    def _retire_below(self, p: int, touched: set[int]) -> None:
        stack = list(self.kids[p] or ())
        while stack:
            q = stack.pop()
            self.state[q] = _GONE
            self._drop(q, touched)
            stack.extend(self.kids[q] or ())

    def _impure_above(self, p: int, touched: set[int]) -> None:
        q = self.parents[p]
        while q >= 0 and self.state[q] == _INTACT:
            self.state[q] = _IMPURE
            self._drop(q, touched)
            q = self.parents[q]

    # -- output -------------------------------------------------------

    def statements(self) -> list[VStmt]:
        """The body with every replacement applied."""
        out: list[VStmt] = []
        for stmt, root in self.tops[::-1] + self.stmts:
            if root < 0 or self.state[root] == _INTACT:
                out.append(stmt)
                continue
            expr = self._rebuild(root)
            if isinstance(stmt, SetV):
                out.append(SetV(stmt.reg, expr))
            else:
                out.append(VStoreS(stmt.addr, expr))
        return out

    def _rebuild(self, p: int) -> VExpr:
        state = self.state[p]
        if state == _REPLACED:
            return VRegE(self.regs[p])
        node = self.nodes[p]
        if state == _INTACT:
            return node
        left, right = self.kids[p]
        a, b = self._rebuild(left), self._rebuild(right)
        if isinstance(node, VBinE):
            return VBinE(node.op, a, b, node.dtype)
        if isinstance(node, VShiftPairE):
            return VShiftPairE(a, b, node.shift)
        return VSpliceE(a, b, node.point)


def _stmt_expr(stmt: VStmt) -> VExpr | None:
    if isinstance(stmt, SetV) and not stmt.is_copy:
        return stmt.expr
    if isinstance(stmt, VStoreS):
        return stmt.src
    return None
