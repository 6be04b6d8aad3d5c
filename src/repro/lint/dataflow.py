"""Forward dataflow over the call graph: propagate function facts.

The interprocedural rules share one fixpoint engine.  A *fact* is
something true of a function body ("reads the wall clock", "performs an
unbounded socket send", "acquires lock X"); facts flow from callee to
caller along call edges — if ``g`` reads the wall clock and ``f`` calls
``g``, then running ``f`` (transitively) reads the wall clock.  Each
propagated fact carries the chain of qualified names from the function
it is attached to down to the original source, so diagnostics can show
*why* a function is tainted, not just that it is.

Propagation is a standard worklist fixpoint: facts are deduplicated per
function by ``(kind, origin)``, so each function holds at most one
witness per distinct source and the loop terminates on cyclic graphs.
A ``stop`` predicate lets rules declare absorbing functions — e.g. a
``# harplint: pure-wall-time`` function neither emits nor forwards
wall-clock taint, and a function that bounds its sockets with
``settimeout`` absorbs blocking-socket facts from its callees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.lint.callgraph import CallGraph


@dataclass(frozen=True)
class Fact:
    """One propagated property of a function.

    Attributes:
        kind: rule-defined category ("wall-clock", "blocking", ...).
        detail: human-readable description of the leaf source.
        origin: qname of the function the fact originated in.
        line: line of the leaf source inside ``origin``'s file.
        chain: qualified names from the carrying function down to
            ``origin`` (inclusive); ``()`` while still at the origin.
    """

    kind: str
    detail: str
    origin: str
    line: int
    chain: tuple[str, ...] = ()

    def via(self, carrier: str) -> "Fact":
        return replace(self, chain=(carrier,) + self.chain)

    def describe_chain(self) -> str:
        """``a -> b -> c`` using short (owner-qualified) names."""
        names = list(self.chain) or [self.origin]
        if names[-1] != self.origin:
            names.append(self.origin)
        return " -> ".join(".".join(n.split(".")[-2:]) for n in names)


def propagate(
    graph: CallGraph,
    seeds: dict[str, list[Fact]],
    stop: Callable[[str, Fact], bool] | None = None,
) -> dict[str, dict[tuple[str, str], Fact]]:
    """Fixpoint: every function's reachable facts, keyed (kind, origin).

    ``seeds`` maps function qnames to their *direct* facts.  ``stop``
    is consulted both before a function accepts a fact from a callee and
    before it forwards its own facts upward; returning True absorbs the
    fact at that frame.
    """
    facts: dict[str, dict[tuple[str, str], Fact]] = {}
    worklist: list[str] = []
    for qname, fact_list in seeds.items():
        bucket = facts.setdefault(qname, {})
        for fact in fact_list:
            if stop is not None and stop(qname, fact):
                continue
            key = (fact.kind, fact.origin)
            if key not in bucket:
                bucket[key] = fact
        if bucket:
            worklist.append(qname)

    while worklist:
        callee = worklist.pop()
        callee_facts = facts.get(callee)
        if not callee_facts:
            continue
        for site in graph.callers(callee):
            caller = site.caller
            caller_bucket = facts.setdefault(caller, {})
            changed = False
            for fact in list(callee_facts.values()):
                lifted = fact.via(callee)
                if stop is not None and stop(caller, lifted):
                    continue
                key = (lifted.kind, lifted.origin)
                if key not in caller_bucket:
                    caller_bucket[key] = lifted
                    changed = True
            if changed:
                worklist.append(caller)
    return facts

