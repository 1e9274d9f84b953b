"""Strongly connected components, of the predicate dependency graph and
of a comparison system's order graph."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> list[list[Node]]:
    """Tarjan's algorithm without recursion: components in reverse
    topological order, each as its members leave the stack, for *nodes*
    started and successors followed in the order given."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []

    def enter(node: Node) -> tuple[Node, Iterable[Node]]:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors(node))

    def strongconnect(start: Node) -> None:
        work = [enter(start)]
        while work:
            node, pending = work[-1]
            for succ in pending:
                if succ not in index:
                    work.append(enter(succ))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append(component)

    for start in nodes:
        if start not in index:
            strongconnect(start)
    return components
