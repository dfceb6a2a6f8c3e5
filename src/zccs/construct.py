"""Builders for complete complementary codes and Z-complementary code sets.

Both builders start from a second-order Boolean function whose graph,
after deleting k chosen vertices, is a path with every edge weighing q/2.
The base construction yields 2**(k+1) mutually complementary codes of
2**(k+1) sequences of length 2**m, read off one truth table of f plus
(q/2) times bit-planes of the deleted variables and of x_gamma.  The
prime extension multiplies the family by a prime p: s extra variables
carry a rational linear part, the members are read only at their p*2**m
kept entries (so s is recorded but costs nothing), and the p*2**(k+1)
codes have a zero-correlation zone of 2**m.  The builders work on
exponent arrays only; the paper's one function per member, which they
must reproduce, and its concatenation of p phase-rotated copies of the
base codes are :mod:`zccs.reference`.

:class:`CodeSetParams` holds the one rule of every set's params, checked
when they are made, so a :class:`CodeSet`, the builders and the file
reader all refuse a param that is not exactly an int, Z outside [1, N]
and delta or M*N past its limit.  :func:`family_params` holds the
family's rules, the one check of (q, m, k, p, s) that every builder runs
before the path check and that the file reader and writer run on a
set's params; :func:`family_labels` names the codes of such a set, for
the builders, the reader and the writer alike.

What depends only on a set's shape is cached, read-only, on every input
it reads and its type: the params (256 sets), the labels on (k, p) and
the builders' selector planes, the part of the members that does not
read f, on (m, deleted, gamma, q).  The last two count against the one
store of :func:`~zccs.algebra.shape_cache`, SHAPE_CACHE_BYTES in all, a
label at LABEL_BYTES (about 240 at most).  What depends on f is kept on
the function (see :mod:`zccs.boolfn`), the members' read-only base array
per certified (deleted, gamma) too, which each builder only broadcasts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .algebra import MAX_DELTA, MAX_TERMS, shape_cache
from .boolfn import GeneralizedBooleanFunction, check_modulus, check_path_after_deletion, extension_exponent, graph_of, per_instance
from .errors import InvalidParams, ShapeError

LABEL_BYTES = 320  # the bytes a cached label counts


@dataclass(frozen=True)
class CodeLabel:
    """Identifies a code: family "C"/"Cbar" (base) or "U"/"V" (extended),
    the code index t, and for extended families the phase index lam."""

    family: str
    t: int
    lam: int | None = None


@dataclass(frozen=True)
class CodeSetParams:
    """A set's shape (K, M, N), zone width Z, root order delta and (q, m, k,
    p, s), made only valid: each field exactly an int (p, s may be None; no
    bool), delta in [1, MAX_DELTA], M*N in [1, MAX_TERMS], 1 <= Z <= N."""

    K: int
    M: int
    N: int
    Z: int
    q: int
    m: int
    k: int
    delta: int
    p: int | None = None
    s: int | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int and not (value is None and name in ("p", "s")):
                raise InvalidParams(f"params.{name} must be an integer, got {value!r}")
        if not 1 <= self.delta <= MAX_DELTA:
            raise InvalidParams(f"delta must lie in [1, {MAX_DELTA}], got {self.delta}")
        if not (self.M >= 1 and self.N >= 1 and self.M * self.N <= MAX_TERMS):
            raise InvalidParams(f"M*N must lie in [1, {MAX_TERMS}], got M={self.M} N={self.N}")
        if not 1 <= self.Z <= self.N:
            raise InvalidParams(f"params.Z={self.Z} outside [1, N={self.N}]")


def family_params(q: int, m: int, k: int, p: int | None = None, s: int | None = None) -> CodeSetParams:
    """The params of the base set of a (q, m, k) function (p None) or of
    its prime extension by p with s extension variables, checked before
    anything is built: q even, then m and k bounded before any shift, then
    (p, s) by :func:`~zccs.boolfn.extension_exponent`, which fills in the
    default s and bounds delta before p's primality test.  The cache is
    keyed on each argument's type too, so 5.0 or True is refused as ever."""
    return _family_params(q, m, k, p, s)


@lru_cache(maxsize=256, typed=True)
def _family_params(q, m, k, p, s) -> CodeSetParams:
    check_modulus(q)
    if m < 0 or k < 0 or k + 1 + m >= MAX_TERMS.bit_length():
        raise InvalidParams(f"need m, k >= 0 and 2**(k+1+m) <= {MAX_TERMS}, got m={m}, k={k}")
    if p is None:
        if s is not None:
            raise InvalidParams("s needs a prime p")
        return CodeSetParams(K=2 << k, M=2 << k, N=1 << m, Z=1 << m, q=q, m=m, k=k, delta=q)
    p, s = extension_exponent(p, q, s)
    return CodeSetParams(K=p * (2 << k), M=2 << k, N=p << m, Z=1 << m, q=q, m=m, k=k, delta=lcm(p, q), p=p, s=s)


def family_labels(pp: CodeSetParams) -> tuple[CodeLabel, ...]:
    """The labels of a family set's K codes in code order: "C", then "Cbar",
    by t for a base set; "U", then "V", by lam and t for an extended set."""
    return _labels(pp.k, pp.p)


@shape_cache(size=lambda labels: LABEL_BYTES * len(labels))
def _labels(k: int, p: int | None) -> tuple[CodeLabel, ...]:
    ts = range(1 << k)
    if p is None:
        return tuple(CodeLabel(family, t) for family in ("C", "Cbar") for t in ts)
    return tuple(CodeLabel(family, t, lam) for family in ("U", "V") for lam in range(p) for t in ts)


@dataclass(frozen=True, eq=False)
class CodeSet:
    """K codes of M sequences of length N over delta-th roots of unity,
    held as one read-only int64 (K, M, N) array ``exponents`` reduced mod
    delta: entry [mu, nu, i] is the exponent of entry i of sequence nu of
    code mu, whose label is ``labels[mu]``.  Integers that already lie in
    [0, delta), as the file reader's do, are copied without the modulo.
    A set has a code at least: params with K < 1 raise InvalidParams."""

    exponents: np.ndarray = field(repr=False)
    labels: tuple[CodeLabel, ...]
    params: CodeSetParams

    def __post_init__(self):
        pp = self.params
        if pp.K < 1:
            raise InvalidParams(f"params.K={pp.K}: a set needs at least one code")
        exps = np.asarray(self.exponents)
        reduced = exps.dtype.kind in "iu" and exps.size and exps.min() >= 0 and exps.max() < pp.delta
        exps = exps.astype(np.int64) if reduced else np.mod(exps, pp.delta, dtype=np.int64)
        if exps.shape != (pp.K, pp.M, pp.N) or len(self.labels) != pp.K:
            raise ShapeError(f"{len(self.labels)} labels and {exps.shape} exponents are not K={pp.K} codes")
        exps.flags.writeable = False
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "labels", tuple(self.labels))

    @cached_property
    def codes(self) -> tuple:
        """The codes as reference ``Code`` objects (see :mod:`zccs.reference`),
        each sequence a read-only view of a row of ``exponents``."""
        from .reference import Code, RootSequence

        delta = self.params.delta
        return tuple(
            Code(tuple(RootSequence(delta, row) for row in code), label)
            for code, label in zip(self.exponents, self.labels)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeSet):
            return NotImplemented
        same = self.params == other.params and self.labels == other.labels
        return same and np.array_equal(self.exponents, other.exponents)


def _prepare(f: GeneralizedBooleanFunction, deleted, gamma: int | None, p: int | None = None, s: int | None = None):
    """The set's params, and the read-only (family, t, nu, 2**m) exponents
    over Z_q of its base members, kept on f per certified (deleted, gamma),
    the only vertices a builder reads.  The params come first, so no huge m
    or k reaches the path check."""
    deleted = tuple(deleted)
    pp = family_params(f.q, f.m, len(deleted), p, s)
    cert = check_path_after_deletion(graph_of(f), deleted, f.q)
    deleted, gamma = cert.deleted, cert.end(gamma)
    return pp, per_instance(f, ("members", deleted, gamma), _base_members, f, deleted, gamma)


def _base_members(f: GeneralizedBooleanFunction, deleted: tuple[int, ...], gamma: int) -> np.ndarray:
    """f's truth table, read forwards for family "F" and backwards and
    negated for "G", plus the :func:`_selectors` of its shape."""
    table = f.truth_table()
    out = (_selectors(f.m, deleted, gamma, f.q) + np.stack([table, -table[::-1]])[:, None, None]) % f.q
    out.flags.writeable = False
    return out


@shape_cache()
def _selectors(m: int, deleted: tuple[int, ...], gamma: int, q: int) -> np.ndarray:
    """The part of :func:`_base_members` that does not read f.

    Member nu = d*2**k + sum(d_i * 2**i) of code t of family "F" is
    f + (q/2)*((d_vec + t_vec) . x_deleted + d*x_gamma).  Family "G" reads
    f at 2**m - 1 - r, which is f(1 - x) at r, adds
    (q/2)*((d_vec + t_vec) . (1 - x_deleted) + (1 - d)*x_gamma) and is
    conjugated (negated).  These are the (q/2)-multiples, "G"'s negated.
    """
    k, n, half = len(deleted), 1 << m, q // 2
    r = np.arange(n, dtype=np.int64)
    planes = (r >> np.array(deleted, dtype=np.int64).reshape(k, 1)) & 1
    x_gamma = (r >> gamma) & 1
    nu, shifts = np.arange(2 << k, dtype=np.int64), np.arange(k, dtype=np.int64)
    # selector bits d_vec + t_vec, axes (t, nu, deleted variable)
    select = ((nu[: 1 << k, None] >> shifts) & 1)[:, None] + ((nu[:, None] >> shifts) & 1)
    d = (nu >> k)[:, None]
    out = np.stack([half * (select @ planes + d * x_gamma), -half * (select @ (1 - planes) + (1 - d) * x_gamma)])
    out.flags.writeable = False
    return out


def build_ccc(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
) -> CodeSet:
    """Base family: a (2**(k+1), 2**(k+1), 2**m) complete complementary set.

    Codes 0..2**k-1 come from the function itself (family "C"); the next
    2**k codes are the conjugated complement family ("Cbar").
    """
    pp, base = _prepare(f, deleted, gamma)
    return CodeSet(base.reshape(pp.K, pp.M, pp.N), family_labels(pp), pp)


def build_zccs(
    f: GeneralizedBooleanFunction,
    deleted,
    gamma: int | None = None,
    p: int = 2,
    s: int | None = None,
) -> CodeSet:
    """Prime-extension family: an optimal (p*2**(k+1), 2**m) Z-complementary
    code set of 2**(k+1) sequences per code, length p*2**m.

    Member nu of code (lam, t) is (delta/q)*g(r) + (delta/p)*lam*w, g the
    base member, read at the p*2**m kept indices r + 2**m*w, w < p.  s,
    which must give 2**s >= p and defaults to the smallest such value, is
    recorded in the params; neither the output nor the cost depends on it.
    Code mu = lam*2**k + t is the "U" family; the "V" family follows in the
    same order, conjugated.
    """
    pp, base = _prepare(f, deleted, gamma, p, s)
    # axes (family, lam, t, nu, w, r): kept entry r + 2**m*w, w < p, reads
    # g at r; "V" takes the conjugate phase ramp
    sign = np.array([1, -1]).reshape(2, 1, 1, 1, 1, 1)
    lam, w = np.arange(p).reshape(1, p, 1, 1, 1, 1), np.arange(p).reshape(p, 1)
    exps = (pp.delta // f.q) * base[:, None, :, :, None, :] + sign * (pp.delta // p) * lam * w
    return CodeSet(exps.reshape(pp.K, pp.M, pp.N), family_labels(pp), pp)


def __getattr__(name: str):
    # Kept only for benchmarks/, which calls the concatenation builder under
    # this module's name, until ROADMAP item 1 lets the benchmark change.
    if name == "build_zccs_by_concatenation":
        from .reference import build_zccs_by_concatenation

        return build_zccs_by_concatenation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
