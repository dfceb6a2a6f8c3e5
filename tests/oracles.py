"""Independent reference implementations used to cross-check the library.

Everything here works on plain complex doubles or brute-force search and
never calls into the exact group-ring code paths it is checking.  Two
helpers build library objects: :func:`corrupt_seeded` only makes inputs
for the checks, and the per-member builders :func:`reference_ccc` and
:func:`reference_zccs` assemble a set one member function at a time with
:func:`~zccs.reference.codeword_function`, :func:`~zccs.reference.sequence_of`
and :func:`~zccs.reference.pbf_sequence`, the definitions the broadcast
builders of :mod:`zccs.construct` must reproduce.
"""
from itertools import permutations
from math import lcm

import numpy as np

from zccs.boolfn import check_path_after_deletion, graph_of
from zccs.construct import CodeLabel, CodeSet, CodeSetParams
from zccs.reference import PbfSpec, codeword_function, pbf_sequence, sequence_of

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
    """Largest zone width by exhaustive floating-point scan (0 if none).

    At each shift tau, corr[i, j] is the definitional sum of
    a_i[x + tau] * conj(a_j[x]) over the members and entries x of codes i
    and j, taken for every code pair at once."""
    pp = cs.params
    n, peak = pp.N, pp.M * pp.N
    codes = np.exp(2j * np.pi * cs.exponents / pp.delta)
    for tau in range(n):
        corr = codes[:, :, tau:].reshape(pp.K, -1) @ np.conj(codes[:, :, : n - tau]).reshape(pp.K, -1).T
        if tau == 0:
            if np.any(np.abs(np.diagonal(corr) - peak) > TOL):
                return -1
            corr -= peak * np.eye(pp.K)
        if np.any(np.abs(corr) > TOL):
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


def corrupt_later_rows(cs: CodeSet, seed: int) -> CodeSet:
    """Shift one to four seeded exponents of codes 1..K-1."""
    pp = cs.params
    rng = np.random.default_rng(seed)
    exps = cs.exponents.copy()
    for _ in range(rng.integers(1, 5)):
        mu, nu, pos = rng.integers(1, pp.K), rng.integers(pp.M), rng.integers(pp.N)
        exps[mu, nu, pos] = (exps[mu, nu, pos] + rng.integers(1, pp.delta)) % pp.delta
    return CodeSet(exps, cs.labels, pp)


def monomial_truth_table(f) -> np.ndarray:
    """f at every index r = sum_a x_a * 2**a, mod q: each monomial's
    coefficient added where all its variables' bit-planes are set."""
    n = 1 << f.m
    r = np.arange(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for mono, c in f.terms.items():
        bits = np.ones(n, dtype=np.int64)
        for v in mono:
            bits &= (r >> v) & 1
        acc += c * bits
    return acc % f.q


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


def _member_order(k: int):
    """Yield (d_vec, d) with member index nu = d*2**k + sum(d_i * 2**i)."""
    for nu in range(1 << (k + 1)):
        yield _bits(nu & ((1 << k) - 1), k), nu >> k


def _certified(f, deleted, gamma):
    cert = check_path_after_deletion(graph_of(f), deleted, f.q)
    return cert, cert.end(gamma)


def reference_ccc(f, deleted, gamma=None) -> CodeSet:
    """The set of ``build_ccc``, one ``codeword_function`` and one
    ``sequence_of`` per member."""
    cert, gamma = _certified(f, deleted, gamma)
    k = len(cert.deleted)
    half, n = 1 << k, 1 << f.m
    exps = np.empty((2 * half, 2 * half, n), dtype=np.int64)
    for t in range(half):
        t_vec = _bits(t, k)
        for nu, (d_vec, d) in enumerate(_member_order(k)):
            for mu, family, sign in ((t, "F", 1), (half + t, "G", -1)):
                g = codeword_function(f, cert.deleted, d_vec, t_vec, d, gamma, family)
                exps[mu, nu] = sign * sequence_of(g).exponents
    labels = [CodeLabel(family, t) for family in ("C", "Cbar") for t in range(half)]
    return CodeSet(exps, labels, CodeSetParams(K=2 * half, M=2 * half, N=n, Z=n, q=f.q, m=f.m, k=k, delta=f.q))


def reference_zccs(f, deleted, gamma=None, p=2, s=None) -> CodeSet:
    """The set of ``build_zccs``: per member, the ``pbf_sequence`` of
    length 2**(m+s) truncated to its first p*2**m entries."""
    cert, gamma = _certified(f, deleted, gamma)
    if s is None:
        s = 1
        while (1 << s) < p:
            s += 1
    k = len(cert.deleted)
    keep, half = p << f.m, p << k
    exps = np.empty((2 * half, 2 << k, keep), dtype=np.int64)
    for lam in range(p):
        u_spec, v_spec = PbfSpec(f, p, s, lam, "F"), PbfSpec(f, p, s, lam, "G")
        for t in range(1 << k):
            t_vec = _bits(t, k)
            mu = (lam << k) + t
            for nu, (d_vec, d) in enumerate(_member_order(k)):
                exps[mu, nu] = pbf_sequence(u_spec, d_vec, t_vec, d, cert, gamma).exponents[:keep]
                exps[half + mu, nu] = -pbf_sequence(v_spec, d_vec, t_vec, d, cert, gamma).exponents[:keep]
    labels = [CodeLabel(family, t, lam) for family in ("U", "V") for lam in range(p) for t in range(1 << k)]
    params = CodeSetParams(
        K=2 * half, M=2 << k, N=keep, Z=1 << f.m, q=f.q, m=f.m, k=k, delta=lcm(p, f.q), p=p, s=s,
    )
    return CodeSet(exps, labels, params)
