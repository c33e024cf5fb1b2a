"""Signed generation trees, branch analysis, and shape recognition.

A signed tree propagates + / - from the root, flipping through the left
child of an implication.  Each (sign, connective) pair is classified into
skeleton roles (delta adjoint, syntactically left residual) and inner
roles (syntactically right adjoint, syntactically right residual):

    +|  or: delta+srr   and: delta+sra   imp: srr   box: sra   dia: slr
    -|  or: delta+sra   and: delta+srr   imp: slr   box: slr   dia: sra

The rewriting engine reads the same table: `skeleton` and `splits` tell
its preprocessing where it may distribute.

A branch is *good* when some cut splits it into a skeleton-only prefix
(from the root) followed by an inner-only suffix; the cut maximizing the
prefix is canonical.  A good branch is *excellent* when, at the canonical
cut, every suffix node after the first is a right adjoint; a right
residual may only open the suffix, and recognition then enforces the usual
side conditions at that node (no critical branch through the sibling
subtree, sibling variables preceding the branch variable).  This is the
reading on which the worked examples of the source material are
consistent; demanding right adjoints in the whole suffix would reject one
of them.

Recognition searches order types (and accumulates a dependency order,
checked acyclic) to decide the residual-friendly and residual-free
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .syntax import (
    And,
    Box,
    Const,
    Dia,
    Formula,
    Implies,
    Inequality,
    Or,
    Var,
    in_base_language,
    prop_vars,
    signed_children,
)

DELTA, SLR, SRA, SRR = "delta", "slr", "sra", "srr"

NOT_GOOD, GOOD, EXCELLENT = "not-good", "good", "excellent"

ONE, PARTIAL = "1", "d"  # order-type marks; "d" renders as the dual mark

_ROLES = {
    (1, Or): frozenset({DELTA, SRR}),
    (1, And): frozenset({DELTA, SRA}),
    (-1, And): frozenset({DELTA, SRR}),
    (-1, Or): frozenset({DELTA, SRA}),
    (1, Dia): frozenset({SLR}),
    (-1, Box): frozenset({SLR}),
    (-1, Implies): frozenset({SLR}),
    (1, Box): frozenset({SRA}),
    (-1, Dia): frozenset({SRA}),
    (1, Implies): frozenset({SRR}),
}


@dataclass(frozen=True)
class SignedNode:
    formula: Formula
    sign: int
    kids: tuple["SignedNode", ...]
    roles: frozenset[str]

    @property
    def is_leaf(self) -> bool:
        return not self.kids

    def skeleton_capable(self) -> bool:
        return skeleton(self.formula, self.sign)

    def inner_capable(self) -> bool:
        return SRA in self.roles or SRR in self.roles

    def label(self) -> str:
        """A leaf's signed formula, such as `+p`."""
        return f"{'+' if self.sign > 0 else '-'}{self.formula}"


def _roles(f: Formula, sign: int) -> frozenset[str]:
    return _ROLES.get((sign, type(f)), frozenset())


def skeleton(f: Formula, sign: int) -> bool:
    """Whether f at `sign` is a delta adjoint or a left residual; nodes the
    table does not list (atoms, nominals, -, inverse modalities) are not."""
    return bool(_roles(f, sign) & {DELTA, SLR})


def splits(f: Formula, sign: int) -> bool:
    """Whether f at `sign` is `+\\/` or `-/\\`, a delta adjoint and right residual."""
    return {DELTA, SRR} <= _roles(f, sign)


def build_signed_tree(f: Formula, sign: int) -> SignedNode:
    """Sign-propagated tree with role classification; input must be the
    base language (no nominals, no co-implication, no inverse modalities)."""
    if not in_base_language(f):
        raise ValueError("signed trees are defined over the base language")
    return _signed_tree(f, sign)


def _signed_tree(f: Formula, sign: int) -> SignedNode:
    kids = tuple(_signed_tree(c, s) for c, s in signed_children(f, sign))
    return SignedNode(f, sign, kids, _roles(f, sign))


@dataclass(frozen=True)
class Branch:
    leaf: SignedNode
    path: tuple[SignedNode, ...]  # internal nodes, root first
    child_index: tuple[int, ...]  # which child the branch follows at each node


def branches(tree: SignedNode) -> list[Branch]:
    """Root-to-leaf branches, leaves ordered left to right."""
    out: list[Branch] = []

    def walk(node: SignedNode, path, choices) -> None:
        if node.is_leaf:
            out.append(Branch(node, tuple(path), tuple(choices)))
            return
        for i, kid in enumerate(node.kids):
            walk(kid, path + [node], choices + [i])

    walk(tree, [], [])
    return out


def canonical_cut(path: tuple[SignedNode, ...]) -> Optional[int]:
    """Largest skeleton-prefix cut splitting the path, if any."""
    for t in range(len(path), -1, -1):
        if all(n.skeleton_capable() for n in path[:t]) and all(
            n.inner_capable() for n in path[t:]
        ):
            return t
    return None


def leaf_is_critical(leaf: SignedNode, eps: dict[str, str]) -> bool:
    if not isinstance(leaf.formula, Var):
        return False
    mark = eps[leaf.formula.name]
    return (leaf.sign > 0 and mark == ONE) or (leaf.sign < 0 and mark == PARTIAL)


def _subtree_has_critical(node: SignedNode, eps: dict[str, str]) -> bool:
    if node.is_leaf:
        return leaf_is_critical(node, eps)
    return any(_subtree_has_critical(k, eps) for k in node.kids)


@dataclass
class _BranchAnalysis:
    quality: str
    # per residual node on the inner suffix: (sibling subtree, branch variable)
    residuals: list[tuple[SignedNode, str]]


def _analyse_branch(branch: Branch) -> _BranchAnalysis:
    t = canonical_cut(branch.path)
    if t is None:
        return _BranchAnalysis(NOT_GOOD, [])
    quality = EXCELLENT if all(SRA in n.roles for n in branch.path[t + 1:]) else GOOD
    residuals: list[tuple[SignedNode, str]] = []
    var = branch.leaf.formula.name if isinstance(branch.leaf.formula, Var) else ""
    for i in range(t, len(branch.path)):
        node = branch.path[i]
        if SRA in node.roles:
            continue
        sibling_index = 1 - branch.child_index[i]
        residuals.append((node.kids[sibling_index], var))
    return _BranchAnalysis(quality, residuals)


def branch_quality(branch: Branch) -> str:
    return _analyse_branch(branch).quality


@dataclass(frozen=True)
class OrderType:
    marks: dict  # variable -> ONE | PARTIAL

    def __str__(self) -> str:
        return ", ".join(f"{v}:{m}" for v, m in sorted(self.marks.items()))


@dataclass(frozen=True)
class DependencyOrder:
    precedences: frozenset[tuple[str, str]]  # (earlier, later) pairs, closed

    def __str__(self) -> str:
        if not self.precedences:
            return "(empty)"
        return ", ".join(f"{a} < {b}" for a, b in sorted(self.precedences))


def _transitive_closure(pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def _signed_trees(ineq: Inequality) -> tuple[SignedNode, SignedNode]:
    return build_signed_tree(ineq.lhs, 1), build_signed_tree(ineq.rhs, -1)


def _search_shape(ineq: Inequality, require_excellent: bool):
    """Shared search behind the residual-free and residual-friendly tests."""
    pos, neg = _signed_trees(ineq)
    all_branches = branches(pos) + branches(neg)
    variables = sorted(prop_vars(ineq.lhs) | prop_vars(ineq.rhs))
    analyses = {b: _analyse_branch(b) for b in all_branches}

    for combo in product((ONE, PARTIAL), repeat=len(variables)):
        eps = dict(zip(variables, combo))
        precedences: set[tuple[str, str]] = set()
        ok = True
        for b in all_branches:
            if not leaf_is_critical(b.leaf, eps):
                continue
            analysis = analyses[b]
            if analysis.quality == NOT_GOOD:
                ok = False
                break
            if require_excellent and analysis.quality != EXCELLENT:
                ok = False
                break
            for sibling, var in analysis.residuals:
                if _subtree_has_critical(sibling, eps):
                    ok = False
                    break
                precedences.update((q, var) for q in prop_vars(sibling.formula))
            if not ok:
                break
        if not ok:
            continue
        closure = _transitive_closure(precedences)
        if any(a == b for a, b in closure):
            continue
        return OrderType(eps), DependencyOrder(frozenset(closure))
    return None


def is_sahlqvist(ineq: Inequality) -> Optional[OrderType]:
    """An order type making every critical branch excellent, if one exists."""
    found = _search_shape(ineq, require_excellent=True)
    return found[0] if found else None


def is_inductive(ineq: Inequality) -> Optional[tuple[DependencyOrder, OrderType]]:
    """A dependency order and order type witnessing the residual-friendly
    shape, if any exist."""
    found = _search_shape(ineq, require_excellent=False)
    if found is None:
        return None
    eps, omega = found
    return omega, eps


def formula_inequality(f: Formula, alg_top: Const) -> Inequality:
    """A formula classifies through `top <= f`."""
    return Inequality(alg_top, f)


# -- reporting -----------------------------------------------------------------


def branch_table(ineq: Inequality) -> list[tuple[int, str, str]]:
    """(number, leaf label, quality) rows, leaves numbered left to right
    across the positive then the negative tree."""
    pos, neg = _signed_trees(ineq)
    rows = []
    for i, b in enumerate(branches(pos) + branches(neg), start=1):
        rows.append((i, b.leaf.label(), branch_quality(b)))
    return rows
