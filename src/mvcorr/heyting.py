"""Finite Heyting algebra arithmetic and irreducible-element structure.

An algebra is loaded from a list of element names and a set of order pairs;
the reflexive-transitive closure of the pairs must be a bounded distributive
lattice.  Loading precomputes full n x n tables for join, meet, the relative
pseudo-complement (implication) and the pseudo-difference (co-implication),
so that every later phase pays O(1) per operation.  Loading also derives the
completely join- and meet-irreducible elements together with the order
isomorphisms `kappa` / `lam` between them, and verifies exhaustively:

* partial order axioms, global bounds,
* join/meet tables realize least upper / greatest lower bounds,
* distributivity,
* residuation       a & b <= c  iff  a <= b -> c,
* co-residuation    a <= b | c  iff  a - b <= c,
* join-density of the join-irreducibles and meet-density of the
  meet-irreducibles,
* for irreducible j and any u:  j <= u fails  iff  u <= kappa(j),
  and dually for lam,
* kappa and lam are mutually inverse.

Instances are immutable after load and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import yaml

from .errors import (
    InvalidAlgebra,
    NoBounds,
    NotALattice,
    NotDistributive,
    UnknownConstant,
)

# the table kernel (`fol.CompiledFo`) holds one element index per byte
MAX_ELEMENTS = 256

BOT_ALIASES = ("0", "bot", "false")
TOP_ALIASES = ("1", "top", "true")


@dataclass(frozen=True)
class AlgebraElement:
    """One element of a loaded algebra: stable index plus display name."""

    index: int
    name: str


class HeytingAlgebra:
    """A finite Heyting (hence bi-Heyting) algebra with precomputed tables.

    Elements are handled as integer indices; after normalization index 0 is
    bottom and index 1 is top.  Use `element()` to resolve a display name.
    """

    def __init__(self, names: Sequence[str], leq: Sequence[Sequence[bool]],
                 name: str | None = None):
        self.name = name
        self.names: tuple[str, ...] = tuple(names)
        self.n = len(self.names)
        self.leq: tuple[tuple[bool, ...], ...] = tuple(tuple(row) for row in leq)
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._validate_order()
        self.bot, self.top = self._find_bounds()
        self.join_table = self._binary_table(self._lub)
        self.meet_table = self._binary_table(self._glb)
        self._check_distributive()
        self.imp_table = self._binary_table(self._relative_pseudo_complement)
        self.coimp_table = self._binary_table(self._pseudo_difference)
        self._check_residuation()
        (self.join_irreducibles, self.meet_irreducibles,
         self.kappa, self.lam) = self._irreducible_structure()

    # -- element access -------------------------------------------------

    def element(self, name: str) -> int:
        """Resolve a display name (or a bot/top alias) to an element index."""
        if name in self._index:
            return self._index[name]
        if name in BOT_ALIASES:
            return self.bot
        if name in TOP_ALIASES:
            return self.top
        raise UnknownConstant(name)

    def elements(self) -> list[AlgebraElement]:
        return [AlgebraElement(i, nm) for i, nm in enumerate(self.names)]

    def element_name(self, idx: int) -> str:
        return self.names[idx]

    # -- operations ------------------------------------------------------

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def imp(self, a: int, b: int) -> int:
        return self.imp_table[a][b]

    def coimp(self, a: int, b: int) -> int:
        return self.coimp_table[a][b]

    def neg(self, a: int) -> int:
        return self.imp_table[a][self.bot]

    def join_all(self, xs: Iterable[int]) -> int:
        out = self.bot
        for x in xs:
            out = self.join_table[out][x]
            if out == self.top:
                return out
        return out

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.top
        for x in xs:
            out = self.meet_table[out][x]
            if out == self.bot:
                return out
        return out

    def fingerprint(self) -> str:
        """Stable hash of the carrier and all operation tables."""
        payload = json.dumps(
            {
                "names": self.names,
                "leq": [[int(v) for v in row] for row in self.leq],
                "join": self.join_table,
                "meet": self.meet_table,
                "imp": self.imp_table,
                "coimp": self.coimp_table,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"HeytingAlgebra({label}, n={self.n})"

    # -- construction helpers ---------------------------------------------

    def _validate_order(self) -> None:
        n, leq = self.n, self.leq
        if n < 2:
            raise InvalidAlgebra("fewer than two elements; bottom and top must be distinct")
        if len(set(self.names)) != n:
            raise InvalidAlgebra("duplicate element names")
        for a in range(n):
            if not leq[a][a]:
                raise InvalidAlgebra("order not reflexive")
        for a, b in product(range(n), repeat=2):
            if a != b and leq[a][b] and leq[b][a]:
                raise InvalidAlgebra(
                    f"order not antisymmetric on {self.names[a]}, {self.names[b]}"
                )
        for a, b, c in product(range(n), repeat=3):
            if leq[a][b] and leq[b][c] and not leq[a][c]:
                raise InvalidAlgebra("order not transitive")

    def _find_bounds(self) -> tuple[int, int]:
        bots = [a for a in range(self.n) if all(self.leq[a][b] for b in range(self.n))]
        tops = [a for a in range(self.n) if all(self.leq[b][a] for b in range(self.n))]
        if not bots or not tops:
            raise NoBounds("order has no global bottom/top")
        return bots[0], tops[0]

    def _lub(self, a: int, b: int) -> int:
        ubs = [c for c in range(self.n) if self.leq[a][c] and self.leq[b][c]]
        least = [c for c in ubs if all(self.leq[c][d] for d in ubs)]
        if not least:
            raise NotALattice(self.names[a], self.names[b], "least upper bound")
        return least[0]

    def _glb(self, a: int, b: int) -> int:
        lbs = [c for c in range(self.n) if self.leq[c][a] and self.leq[c][b]]
        greatest = [c for c in lbs if all(self.leq[d][c] for d in lbs)]
        if not greatest:
            raise NotALattice(self.names[a], self.names[b], "greatest lower bound")
        return greatest[0]

    def _binary_table(self, op) -> list[list[int]]:
        return [[op(a, b) for b in range(self.n)] for a in range(self.n)]

    def _check_distributive(self) -> None:
        meet, join = self.meet_table, self.join_table
        for a, b, c in product(range(self.n), repeat=3):
            if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                raise NotDistributive(self.names[a], self.names[b], self.names[c])

    def _relative_pseudo_complement(self, a: int, b: int) -> int:
        # largest c with a & c <= b; the join works because the lattice
        # is finite and distributive
        return self.join_all(
            c for c in range(self.n) if self.leq[self.meet_table[a][c]][b]
        )

    def _pseudo_difference(self, a: int, b: int) -> int:
        return self.meet_all(
            c for c in range(self.n) if self.leq[a][self.join_table[b][c]]
        )

    def _check_residuation(self) -> None:
        for a, b, c in product(range(self.n), repeat=3):
            if self.leq[self.meet_table[a][b]][c] != self.leq[a][self.imp_table[b][c]]:
                raise InvalidAlgebra(
                    f"residuation fails on ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                )
            if self.leq[a][self.join_table[b][c]] != self.leq[self.coimp_table[a][b]][c]:
                raise InvalidAlgebra(
                    f"co-residuation fails on ({self.names[a]}, {self.names[b]}, {self.names[c]})"
                )

    def _irreducible_structure(self):
        n = self.n
        join_irr = tuple(
            c for c in range(n)
            if c != self.bot
            and self.join_all(u for u in range(n) if self.leq[u][c] and u != c) != c
        )
        meet_irr = tuple(
            c for c in range(n)
            if c != self.top
            and self.meet_all(u for u in range(n) if self.leq[c][u] and u != c) != c
        )
        for u in range(n):
            if self.join_all(j for j in join_irr if self.leq[j][u]) != u:
                raise InvalidAlgebra("join-irreducibles are not join-dense")
            if self.meet_all(m for m in meet_irr if self.leq[u][m]) != u:
                raise InvalidAlgebra("meet-irreducibles are not meet-dense")
        kappa = {
            j: self.join_all(u for u in range(n) if not self.leq[j][u])
            for j in join_irr
        }
        lam = {
            m: self.meet_all(u for u in range(n) if not self.leq[u][m])
            for m in meet_irr
        }
        for j, k in kappa.items():
            if k not in meet_irr:
                raise InvalidAlgebra("kappa image is not meet-irreducible")
            for u in range(n):
                if (not self.leq[j][u]) != self.leq[u][k]:
                    raise InvalidAlgebra("kappa characterization fails")
        for m, l in lam.items():
            if l not in join_irr:
                raise InvalidAlgebra("lam image is not join-irreducible")
            for u in range(n):
                if (not self.leq[u][m]) != self.leq[l][u]:
                    raise InvalidAlgebra("lam characterization fails")
        if any(lam[kappa[j]] != j for j in join_irr) or any(
            kappa[lam[m]] != m for m in meet_irr
        ):
            raise InvalidAlgebra("kappa and lam are not mutually inverse")
        return join_irr, meet_irr, kappa, lam


def irreducibles(alg: HeytingAlgebra):
    """Join-/meet-irreducible elements with the kappa and lam maps."""
    return alg.join_irreducibles, alg.meet_irreducibles, alg.kappa, alg.lam


# -- loading ----------------------------------------------------------------


def _transitive_reflexive_closure(n: int, pairs: set[tuple[int, int]]):
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        for a in range(n):
            if leq[a][k]:
                row_k = leq[k]
                row_a = leq[a]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    return leq


def load_algebra(spec: dict, name: str | None = None) -> HeytingAlgebra:
    """Build and validate an algebra from an `elements` / `leq` description.

    `leq` lists order pairs `[low, high]` by element name; the reflexive-
    transitive closure of the listed pairs is taken, so covering pairs
    suffice.  Element order is normalized so that index 0 is bottom and
    index 1 is top.
    """
    try:
        raw_names = [str(x) for x in spec["elements"]]
        raw_pairs = [(str(a), str(b)) for a, b in spec.get("leq", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidAlgebra(f"bad algebra description: {exc}")
    if len(raw_names) > MAX_ELEMENTS:
        raise InvalidAlgebra(f"{len(raw_names)} elements; at most {MAX_ELEMENTS} are "
                             "supported, one byte per element in evaluation tables")
    index = {nm: i for i, nm in enumerate(raw_names)}
    if len(index) != len(raw_names):
        raise InvalidAlgebra("duplicate element names")
    pairs = set()
    for a, b in raw_pairs:
        if a not in index or b not in index:
            raise InvalidAlgebra(f"order pair ({a}, {b}) names unknown elements")
        pairs.add((index[a], index[b]))
    leq = _transitive_reflexive_closure(len(raw_names), pairs)

    # probe bounds on the raw order, then renumber with bottom at 0, top at 1
    probe = object.__new__(HeytingAlgebra)
    probe.names = tuple(raw_names)
    probe.n = len(raw_names)
    probe.leq = tuple(tuple(row) for row in leq)
    probe._index = dict(index)
    probe._validate_order()
    bot, top = probe._find_bounds()
    order = [bot, top] + [i for i in range(len(raw_names)) if i not in (bot, top)]
    names = [raw_names[i] for i in order]
    new_leq = [
        [leq[order[a]][order[b]] for b in range(len(order))]
        for a in range(len(order))
    ]
    return HeytingAlgebra(names, new_leq, name=name)


def parse_algebra_text(text: str, name: str | None = None) -> HeytingAlgebra:
    """Parse an algebra file (YAML or JSON syntax) and load it."""
    try:
        spec = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidAlgebra(f"unparseable algebra file: {exc}")
    if not isinstance(spec, dict):
        raise InvalidAlgebra("algebra file must hold a mapping")
    return load_algebra(spec, name=name)


BUILTIN_SPECS = {
    "bool2": {
        "elements": ["0", "1"],
        "leq": [["0", "1"]],
    },
    # five-element algebra with two incomparable middle elements:
    # 0 < alpha, beta < gamma < 1
    "paper-P": {
        "elements": ["0", "alpha", "beta", "gamma", "1"],
        "leq": [
            ["0", "alpha"],
            ["0", "beta"],
            ["alpha", "gamma"],
            ["beta", "gamma"],
            ["gamma", "1"],
        ],
    },
}


def builtin_algebra(name: str) -> HeytingAlgebra:
    if name not in BUILTIN_SPECS:
        raise UnknownConstant(name)
    return load_algebra(BUILTIN_SPECS[name], name=name)


def resolve_algebra(source: str) -> HeytingAlgebra:
    """Resolve a CLI algebra argument: builtin name or path to a file."""
    if source in BUILTIN_SPECS:
        return builtin_algebra(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidAlgebra(f"cannot read algebra {source!r}: {exc}")
    return parse_algebra_text(text, name=source)
