"""Boolean functions over Z_q and their graphs.

A generalized Boolean function maps m binary variables to Z_q (q even)
and is stored as a sparse map from monomials to integer coefficients.
Its truth table lists its values at every index r, with bit order fixed
as r = sum_a r_a * 2**a (x0 is the least significant bit), and its graph
has one edge per quadratic term, which one walk certifies as a path.
The paper's per-member sequences are built in :mod:`zccs.reference`.
A function's ``terms`` and a graph's ``edges`` are read-only, so each keeps
what it derives (:func:`per_instance`): a function its truth table and
graph, a graph its certificate per (deleted, q).  A refusal is not kept.
"""
from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import lcm
from types import MappingProxyType

import numpy as np

from .algebra import MAX_DELTA, is_prime
from .errors import ArityError, InvalidGamma, InvalidModulus, InvalidParams, NotAPath, NotSecondOrder, ParseError

Monomial = tuple[int, ...]

_ADDEND, _FACTOR = re.compile(r"(?=[+-])"), re.compile(r"(x?)([0-9]+)")


def per_instance(owner, key, compute, *args):
    """``compute(*args)``, kept in ``owner``'s ``__dict__`` under ``key`` once it
    returns (two racing threads both get the first kept); a refusal raises again."""
    kept = vars(owner).setdefault("_derived", {})
    return kept[key] if key in kept else kept.setdefault(key, compute(*args))


def check_modulus(q: int) -> None:
    """The one check of q, the alphabet of every function and set: even and >= 2."""
    if q < 2 or q % 2:
        raise InvalidModulus(f"q must be even and >= 2, got {q}")


@dataclass(frozen=True)
class GeneralizedBooleanFunction:
    """Sparse polynomial over binary variables with coefficients in Z_q.

    ``terms``, a read-only mapping, maps a sorted tuple of variable indices
    to a nonzero integer coefficient; the empty tuple is the constant term.
    A pickle or copy is a new function, which derives its values anew.
    """

    m: int
    q: int
    terms: Mapping[Monomial, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("m", "q"):  # TypeError unless integers
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        check_modulus(self.q)
        if self.m < 0:
            raise InvalidParams("m must be non-negative")
        canon: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            key = tuple(sorted(set(map(operator.index, mono))))  # TypeError unless integers
            if any(v < 0 or v >= self.m for v in key):
                raise InvalidParams(f"variable index out of range in {mono}")
            c = operator.index(c) % self.q  # TypeError unless an integer
            if c:
                canon[key] = (canon.get(key, 0) + c) % self.q
                if canon[key] == 0:
                    del canon[key]
        object.__setattr__(self, "terms", MappingProxyType(canon))

    def __reduce__(self):
        return type(self), (self.m, self.q, dict(self.terms))

    def degree(self) -> int:
        return max((len(mono) for mono in self.terms), default=0)

    def evaluate(self, x) -> int:
        """Value at a binary point, reduced mod q."""
        x = tuple(x)
        if len(x) != self.m:
            raise ArityError(f"expected {self.m} bits, got {len(x)}")
        if any(b not in (0, 1) for b in x):
            raise InvalidParams(f"bits must be 0 or 1, got {x}")
        total = 0
        for mono, c in self.terms.items():
            if all(x[v] for v in mono):
                total += c
        return total % self.q

    def truth_table(self) -> np.ndarray:
        """Read-only int64 values at every index r = sum_a x_a * 2**a, mod q,
        computed once per function by :meth:`_table`."""
        return per_instance(self, "table", self._table)

    def _table(self) -> np.ndarray:
        """f(x) is the sum of the coefficients of the monomials whose
        variables x sets, so one in-place subset-sum pass over the m bits,
        from each coefficient at its monomial's mask, gives every value.
        It refuses a function whose coefficients sum to 2**63 or more,
        since a value could then wrap in int64.
        """
        if sum(self.terms.values()) >= 1 << 63:
            raise InvalidParams(f"coefficients sum to 2**63 or more; q={self.q} is too large for an int64 table")
        acc = np.zeros(1 << self.m, dtype=np.int64)
        for mono, c in self.terms.items():
            acc[sum(1 << v for v in mono)] = c
        for v in range(self.m):
            halves = acc.reshape(-1, 2, 1 << v)
            halves[:, 1] += halves[:, 0]
        acc %= self.q
        acc.flags.writeable = False
        return acc

    def with_term(self, mono, coeff: int) -> GeneralizedBooleanFunction:
        """New function with ``coeff * prod(mono)`` added."""
        return self + GeneralizedBooleanFunction(self.m, self.q, {tuple(mono): coeff})

    def __add__(self, other: GeneralizedBooleanFunction) -> GeneralizedBooleanFunction:
        if (self.m, self.q) != (other.m, other.q):
            raise InvalidParams("functions live over different (m, q)")
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return GeneralizedBooleanFunction(self.m, self.q, terms)

    def restrict(self, assignments: dict[int, int]) -> GeneralizedBooleanFunction:
        """Substitute fixed bits for some variables (index space unchanged)."""
        terms: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            if any(assignments.get(v) == 0 for v in mono):
                continue
            rest = tuple(v for v in mono if v not in assignments)
            terms[rest] = terms.get(rest, 0) + c
        return GeneralizedBooleanFunction(self.m, self.q, terms)

    def complement_inputs(self) -> GeneralizedBooleanFunction:
        """Substitute 1 - x_i for every variable and expand."""
        terms: dict[Monomial, int] = {}
        for mono, c in self.terms.items():
            # prod(1 - x_v) expands over all subsets with alternating sign
            for subset in _subsets(mono):
                sign = -1 if len(subset) % 2 else 1
                terms[subset] = terms.get(subset, 0) + sign * c
        return GeneralizedBooleanFunction(self.m, self.q, terms)

    def to_text(self) -> str:
        """Canonical text form; terms sorted by degree then variables."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[mono]
            vars_txt = "*".join(f"x{v}" for v in mono)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(vars_txt)
            else:
                parts.append(f"{c}*{vars_txt}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GeneralizedBooleanFunction({self.to_text()!r}, m={self.m}, q={self.q})"


def _subsets(mono: Monomial):
    out = [()]
    for v in mono:
        out += [s + (v,) for s in out]
    return out


def parse_gbf(text: str, m: int, q: int) -> GeneralizedBooleanFunction:
    """Parse a sum of terms like ``2*x0*x1 + x1 + 1``.

    Each term is an optional integer coefficient and a ``*``-separated
    product of variables ``x<i>``, both written in ASCII digits; whitespace
    is ignored and coefficients are reduced mod q.  A bare integer is a
    constant term.  Any other text, such as an integer too long for
    ``int``, is a ParseError.
    """
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty expression")
    terms: dict[Monomial, int] = {}
    for addend in _ADDEND.split(compact):
        if not addend:
            continue
        sign, body = 1, addend
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = sign
        variables: list[int] = []
        for factor in body.split("*"):
            if not (match := _FACTOR.fullmatch(factor)):
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            try:
                value = int(match[2])
            except ValueError:  # more digits than int() converts
                raise ParseError(f"factor {factor[:20]}... has {len(factor)} characters, too many digits") from None
            if not match[1]:
                coeff *= value
            elif value >= m:
                raise ParseError(f"variable x{value} out of range for m={m}")
            else:
                variables.append(value)
        key = tuple(variables)
        terms[key] = terms.get(key, 0) + coeff
    return GeneralizedBooleanFunction(m, q, terms)


@dataclass(frozen=True)
class FunctionGraph:
    """Graph with one weighted edge per quadratic term, held as a read-only
    copy of the ``edges`` it is given."""

    m: int
    edges: Mapping[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))

    def __reduce__(self):
        return type(self), (self.m, dict(self.edges))


def graph_of(f: GeneralizedBooleanFunction) -> FunctionGraph:
    """Edges of the quadratic part, one graph per function; rejects
    functions of degree > 2."""
    return per_instance(f, "graph", _graph, f)


def _graph(f: GeneralizedBooleanFunction) -> FunctionGraph:
    if f.degree() > 2:
        raise NotSecondOrder(f"degree {f.degree()} function has no graph")
    edges = {mono: c for mono, c in f.terms.items() if len(mono) == 2}
    return FunctionGraph(f.m, edges)


@dataclass(frozen=True)
class PathCertificate:
    """Witness that deleting ``deleted`` leaves a weight-q/2 path.

    ``deleted`` keeps the caller's order: position i of the selector
    vectors d and t pairs with the i-th deleted variable.  Every vertex is
    an int, and :meth:`end` is the one rule for the vertex x_gamma.
    """

    deleted: tuple[int, ...]
    path_order: tuple[int, ...]
    end_vertices: tuple[int, int]

    def end(self, gamma=None) -> int:
        """x_gamma's vertex: the lower-indexed end if gamma is None, else gamma
        as an int (TypeError unless an integer) if it is an end, else InvalidGamma."""
        if gamma is None:
            return min(self.end_vertices)
        if (gamma := operator.index(gamma)) not in self.end_vertices:
            raise InvalidGamma(f"x{gamma} is not an end vertex of the path")
        return gamma


def check_path_after_deletion(graph: FunctionGraph, deleted, q: int) -> PathCertificate:
    """Verify the remaining vertices form a path whose edges all weigh q/2.

    Each deleted vertex is read as an int (a float is a TypeError, never
    the vertex it truncates to).  One walk decides the rest: from the
    lowest-indexed vertex of degree <= 1 (else the lowest-indexed), step
    to the one neighbour not just left.  A walk through all V vertices
    uses V - 1 distinct edges, so they form a path iff it reaches all V
    and there are V - 1 edges in all.  Returns the certificate, its order
    from the lower-indexed end, or raises NotAPath.  The certificate is
    kept on the graph, per (deleted, q).
    """
    deleted = tuple(map(operator.index, deleted))
    return per_instance(graph, ("path", deleted, q), _certify, graph, deleted, q)


def _certify(graph: FunctionGraph, deleted: tuple[int, ...], q: int) -> PathCertificate:
    if len(set(deleted)) != len(deleted):
        raise InvalidParams("deleted vertices must be distinct")
    if any(v < 0 or v >= graph.m for v in deleted):
        raise InvalidParams("deleted vertex out of range")
    remaining = [v for v in range(graph.m) if v not in deleted]
    if not remaining:
        raise NotAPath("all vertices deleted, no path vertex left")
    half = q // 2
    adj: dict[int, list[int]] = {v: [] for v in remaining}
    for (a, b), w in graph.edges.items():
        if a in adj and b in adj:
            if w != half:
                raise NotAPath(f"edge ({a},{b}) has weight {w}, expected q/2 = {half}")
            adj[a].append(b)
            adj[b].append(a)
    order, prev = [min(remaining, key=lambda v: len(adj[v]) > 1)], None
    while len(nxt := [u for u in adj[order[-1]] if u != prev]) == 1:
        prev = order[-1]
        order.append(nxt[0])
    n, n_edges = len(remaining), sum(map(len, adj.values())) // 2
    if len(order) < n or n_edges != n - 1:
        why = f"the walk stopped at vertex {order[-1]} after {len(order)}" if len(order) < n else f"{n_edges} edges among all"
        raise NotAPath(f"remaining graph is not a path: {why} of its {n} vertices")
    return PathCertificate(deleted, tuple(order), (order[0], order[-1]))


def min_blocks_exponent(p: int) -> int:
    """Smallest s >= 1 with 2**s >= p."""
    return max(1, (p - 1).bit_length())


def extension_exponent(p: int, q: int, s: int | None = None) -> tuple[int, int]:
    """The (p, s) of a rational extension by p over Z_q as ints, checked:
    s >= 1 with 2**s >= p (default: the smallest such s), delta = lcm(p, q)
    in [1, MAX_DELTA], and p prime.  s is compared with p's bit length
    before any shift, and delta bounds p before the primality test, so no
    hostile value makes either slow."""
    p = operator.index(p)
    s = min_blocks_exponent(p) if s is None else operator.index(s)
    if s < 1 or (s < p.bit_length() and 1 << s < p):
        raise InvalidParams(f"need s >= 1 and 2**s >= p, got p={p}, s={s}")
    if not 1 <= (delta := lcm(p, q)) <= MAX_DELTA:
        raise InvalidParams(f"delta = lcm(p, q) must lie in [1, {MAX_DELTA}], got {delta}")
    if not is_prime(p):
        raise InvalidParams(f"p must be prime, got {p}")
    return p, s
