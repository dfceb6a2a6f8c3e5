"""Independent reference implementations used to cross-check the library.

Everything here works on plain complex doubles or brute-force search and
never calls into the exact group-ring code paths it is checking; the one
helper that builds library objects, :func:`corrupt_seeded`, only makes
inputs for the checks.
"""
from itertools import permutations

import numpy as np

from zccs.construct import CodeSet

TOL = 1e-6


def naive_accf(a: np.ndarray, b: np.ndarray, tau: int) -> complex:
    """Definitional aperiodic cross-correlation of complex arrays."""
    n = len(a)
    if tau >= n or tau <= -n:
        return 0j
    if tau >= 0:
        return complex(np.sum(a[tau:] * np.conj(b[: n - tau])))
    return complex(np.sum(a[: n + tau] * np.conj(b[-tau:])))


def naive_code_accf(code_a, code_b, tau: int) -> complex:
    return sum(naive_accf(sa, sb, tau) for sa, sb in zip(code_a, code_b))


def to_complex_code(code) -> list[np.ndarray]:
    return [s.to_complex() for s in code.sequences]


def float_zcz_width(cs) -> int:
    """Largest zone width by exhaustive floating-point scan (0 if none)."""
    codes = [to_complex_code(c) for c in cs.codes]
    n = cs.params.N
    peak = cs.params.M * cs.params.N
    for code in codes:
        if abs(naive_code_accf(code, code, 0) - peak) > TOL:
            return -1
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j and abs(naive_code_accf(a, b, 0)) > TOL:
                return 0
    for tau in range(1, n):
        for a in codes:
            for b in codes:
                if abs(naive_code_accf(a, b, tau)) > TOL:
                    return tau
    return n


def first_violation(cs, z: int):
    """First (mu1, mu2, tau) with 0 <= tau < z, in lexicographic order,
    whose float correlation is not ideal (M*N at a code's own zero shift,
    zero elsewhere); None when the zone holds."""
    codes = [to_complex_code(c) for c in cs.codes]
    peak = cs.params.M * cs.params.N
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            for tau in range(z):
                ideal = peak if i == j and tau == 0 else 0
                if abs(naive_code_accf(a, b, tau) - ideal) > TOL:
                    return (i, j, tau)
    return None


def float_is_zccs(cs, z: int) -> bool:
    width = float_zcz_width(cs)
    return width >= z


def brute_force_path(edges: dict, vertices: list[int], half: int):
    """Search all vertex orderings for a valid half-weight Hamiltonian path
    that uses exactly the edges present among ``vertices``.

    Returns an ordering or None.  Exponential; only for small graphs.
    """
    present = {pair for pair in edges if pair[0] in vertices and pair[1] in vertices}
    if len(vertices) == 1:
        return tuple(vertices)
    for order in permutations(vertices):
        wanted = {tuple(sorted(pair)) for pair in zip(order, order[1:])}
        if present == wanted and all(edges[pair] == half for pair in wanted):
            return order
    return None


def poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_divmod(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    """Exact long division over the integers; divisor must be monic."""
    rem = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(rem) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, dc in enumerate(den):
            rem[i - deg_d + j] -= c * dc
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def corrupt_seeded(cs: CodeSet, seed: int) -> CodeSet:
    """Shift one seeded exponent by a seeded nonzero amount."""
    rng = np.random.default_rng(seed)
    pp = cs.params
    mu, nu, pos = rng.integers(pp.K), rng.integers(pp.M), rng.integers(pp.N)
    exps = cs.exponents.copy()
    exps[mu, nu, pos] = (exps[mu, nu, pos] + rng.integers(1, pp.delta)) % pp.delta
    return CodeSet(exps, cs.labels, pp)
