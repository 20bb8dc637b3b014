"""Highest weights of gl(m|n), the integral rho shift, and weight diagrams.

A dominant weight chi = (lambda | mu) is translated into a pair of integer
sets (A, B) via chi + rho, and the pair is drawn as a diagram on the integer
line: a cross where A and B meet, '>' on A alone, '<' on B alone, and circles
everywhere else.  All downstream combinatorics (caps, forests, character
formulas) read the diagram, never the raw weight.
"""

from __future__ import annotations

from dataclasses import dataclass

CROSS = "x"
LESS = "<"
GREATER = ">"

_SYMBOLS = (CROSS, LESS, GREATER)


class InvariantError(RuntimeError):
    """An invariant the constructions guarantee failed to hold: a bug, never
    bad input.  Raised in place of an assert, which python -O would strip."""


@dataclass(frozen=True)
class HighestWeight:
    """Dominant integral weight of gl(m|n): lambda on the even block, mu on the odd one."""

    m: int
    n: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "mu", tuple(self.mu))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if len(self.lam) != self.m or len(self.mu) != self.n:
            raise ValueError("lambda must have length m and mu length n")
        if any(self.lam[i] < self.lam[i + 1] for i in range(self.m - 1)):
            raise ValueError(f"lambda {self.lam} is not non-increasing")
        if any(self.mu[j] < self.mu[j + 1] for j in range(self.n - 1)):
            raise ValueError(f"mu {self.mu} is not non-increasing")


@dataclass(frozen=True)
class RhoVector:
    eps_part: tuple[int, ...]
    delta_part: tuple[int, ...]


@dataclass(frozen=True)
class ABPair:
    """A strictly decreasing, B strictly increasing; both read off chi + rho."""

    A: tuple[int, ...]
    B: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.B)


def rho(m: int, n: int) -> RhoVector:
    """Integral rho: (1-i) on the i-th even coordinate, (m-j) on the j-th odd one."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return RhoVector(tuple(1 - i for i in range(1, m + 1)),
                     tuple(m - j for j in range(1, n + 1)))


def ab_sets(chi: HighestWeight) -> ABPair:
    """Pair chi with rho: A_i = lambda_i + 1 - i, B_j = -mu_j - (m - j).

    The sign on B is the one that makes sum(a_i eps_i) - sum(b_j delta_j)
    reproduce chi + rho with B read off in increasing order.
    """
    a = tuple(chi.lam[i - 1] + 1 - i for i in range(1, chi.m + 1))
    b = tuple(-chi.mu[j - 1] - (chi.m - j) for j in range(1, chi.n + 1))
    return ABPair(a, b)


def weight_from_ab(ab: ABPair) -> HighestWeight:
    """Invert ab_sets (A given decreasing, B increasing)."""
    m, n = ab.m, ab.n
    lam = tuple(ab.A[i - 1] - 1 + i for i in range(1, m + 1))
    mu = tuple(-ab.B[j - 1] - m + j for j in range(1, n + 1))
    return HighestWeight(m, n, lam, mu)


class WeightDiagram:
    """Finite map position -> symbol; positions not in the map are circles.

    Immutable and hashable.  The counts recover (m, n): every cross counts
    toward both blocks, '>' toward the even block, '<' toward the odd one.
    """

    __slots__ = ("_symbols", "_hash")

    def __init__(self, symbols: dict[int, str]):
        for pos, sym in symbols.items():
            if sym not in _SYMBOLS:
                raise ValueError(f"bad symbol {sym!r} at position {pos}")
        self._symbols = dict(sorted(symbols.items()))
        self._hash = hash(tuple(self._symbols.items()))

    @property
    def symbols(self) -> dict[int, str]:
        return dict(self._symbols)

    def symbol(self, pos: int) -> str | None:
        """Symbol at pos, or None for a circle."""
        return self._symbols.get(pos)

    def is_circle(self, pos: int) -> bool:
        return pos not in self._symbols

    @property
    def crosses(self) -> tuple[int, ...]:
        return tuple(p for p, s in self._symbols.items() if s == CROSS)

    @property
    def less_positions(self) -> tuple[int, ...]:
        return tuple(p for p, s in self._symbols.items() if s == LESS)

    @property
    def greater_positions(self) -> tuple[int, ...]:
        return tuple(p for p, s in self._symbols.items() if s == GREATER)

    @property
    def core_positions(self) -> tuple[int, ...]:
        return tuple(p for p, s in self._symbols.items() if s != CROSS)

    @property
    def m(self) -> int:
        return len(self.crosses) + len(self.greater_positions)

    @property
    def n(self) -> int:
        return len(self.crosses) + len(self.less_positions)

    @property
    def atypicality(self) -> int:
        return len(self.crosses)

    def positions(self) -> tuple[int, ...]:
        """All non-circle positions, ascending."""
        return tuple(self._symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightDiagram) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{p}: '{s}'" for p, s in self._symbols.items())
        return f"WeightDiagram({{{inside}}})"


def build_diagram(ab: ABPair) -> WeightDiagram:
    """Cross on A & B, '>' on A only, '<' on B only."""
    a_set, b_set = set(ab.A), set(ab.B)
    if len(a_set) != ab.m or len(b_set) != ab.n:
        raise ValueError("entries of A and of B must be distinct")
    symbols: dict[int, str] = {}
    for p in a_set & b_set:
        symbols[p] = CROSS
    for p in a_set - b_set:
        symbols[p] = GREATER
    for p in b_set - a_set:
        symbols[p] = LESS
    return WeightDiagram(symbols)


def ab_from_diagram(f: WeightDiagram) -> ABPair:
    """Read the (A, B) pair back off a diagram."""
    a = sorted(set(f.crosses) | set(f.greater_positions), reverse=True)
    b = sorted(set(f.crosses) | set(f.less_positions))
    return ABPair(tuple(a), tuple(b))


def position_exponents(f: WeightDiagram) -> dict[int, tuple[int, ...]]:
    """Exponent vector in Z^(m+n) of each non-circle position, ascending, read
    off ab_from_diagram(f): the i-th entry of A gives eps_i, the j-th entry of
    B gives -delta_j, and a cross, in both, gives eps_i - delta_j (an atypical
    root).  Summing p times the vector of p gives chi + rho."""
    ab = ab_from_diagram(f)
    m = ab.m
    vecs = {p: [0] * (m + ab.n) for p in f.positions()}
    for i, a in enumerate(ab.A):
        vecs[a][i] = 1
    for j, b in enumerate(ab.B):
        vecs[b][m + j] = -1
    return {p: tuple(v) for p, v in vecs.items()}


def diagram_of_weight(chi: HighestWeight) -> WeightDiagram:
    return build_diagram(ab_sets(chi))


def weight_from_diagram(f: WeightDiagram) -> HighestWeight:
    return weight_from_ab(ab_from_diagram(f))

