"""A rule's clause as a d-DNNF decision chain.

A clause ``l_1 OR ... OR l_k`` over distinct variables, literals sorted by
variable, compiles to the linear chain of Shannon expansions on v_1, ..., v_k:
node c_i is ``l_i OR (NOT l_i AND c_{i+1})`` and c_k is the leaf l_k.  Each
OR's two children disagree on v_i, so they share no model (determinism), and
each AND joins the literal on v_i with a chain over v_{i+1}, ..., v_k only, so
its children share no variable (decomposability).  An OR lists the branch on
+v_i before the one on -v_i.

Nodes are numbered in the order a Shannon-expansion compiler creates them:
the TRUE and FALSE sinks first (unreachable from the root; kept so the ids
match that compiler's), then each positive l_i's leaf on the way down the
chain, then, on the way back up, the branch leaves, ANDs and ORs.
"""

from __future__ import annotations

from dataclasses import dataclass

K_AND, K_OR, K_LEAF, K_TRUE, K_FALSE = "and", "or", "leaf", "true", "false"


@dataclass
class DdnnfGraph:
    """Rooted DAG with node kinds and, or, leaf, true, false.

    ``literals[i]`` is the signed variable id for leaf nodes (0 otherwise);
    ``children[i]`` lists child node ids, each lower than i.
    """

    kinds: list[str]
    literals: list[int]
    children: list[tuple[int, ...]]
    root: int

    def n_nodes(self) -> int:
        return len(self.kinds)


def compile_ddnnf(clause: tuple[int, ...]) -> DdnnfGraph:
    """The decision chain of a non-empty clause of signed variable ids over
    distinct variables: 4k - 1 nodes for k literals, sinks included."""
    kinds, literals, children = [K_TRUE, K_FALSE], [0, 0], [(), ()]

    def node(kind: str, literal: int = 0, kids: tuple[int, ...] = ()) -> int:
        kinds.append(kind)
        literals.append(literal)
        children.append(kids)
        return len(kinds) - 1

    lits = sorted(clause, key=abs)
    own = [node(K_LEAF, lit) if lit > 0 else None for lit in lits[:-1]]
    root = node(K_LEAF, lits[-1])
    for i in range(len(lits) - 2, -1, -1):
        lit = lits[i]
        rest = node(K_AND, 0, (node(K_LEAF, -lit), root))
        root = node(K_OR, 0, (own[i], rest) if lit > 0 else (rest, node(K_LEAF, lit)))
    return DdnnfGraph(kinds, literals, children, root)
