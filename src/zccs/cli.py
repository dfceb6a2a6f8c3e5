"""Command-line front end: generate, verify, and export code sets.

Code sets are stored as a single JSON document (format_version 1):

    {
      "format_version": 1,
      "delta": 6,
      "params": {"K":..,"M":..,"N":..,"Z":..,"q":..,"m":..,"k":..,
                 "delta":..,"p":..|null,"s":..|null},
      "codes": [{"label": {"family":"U","t":0,"lam":0},
                 "sequences": [[e0, e1, ...], ...]}, ...]
    }

Sequences are stored as integer exponent vectors, never as floats, so a
set survives serialization bit-exactly.

The reader treats a document as hostile: ``code_set_from_dict`` makes
its :class:`~zccs.construct.CodeSetParams`, which refuse a param that is
not exactly an int, Z outside [1, N] and delta or M*N past its limit;
the family rules it leaves to :func:`~zccs.construct.family_params`,
which the builders call too, and it refuses params other than those it
gives for (q, m, k, p, s), Z aside.  The K codes' labels must be the
builders' own, :func:`~zccs.construct.family_labels`, field by field
and type.  The writer runs these two family checks too, so it writes
only documents the reader reads.  The reader then checks the counts of
sequences against M, that each holds integers, and their lengths
against N, before it converts an exponent.  ``code_set_from_dict``
takes only lists of ints, since bytes, tuples, ranges, dicts, bools,
numpy ints and int subclasses would pass the conversion, then converts
them all with numpy, which refuses ints outside int64.

``read_code_set`` reads a file as bytes and hands ``json.loads`` only a
skeleton of it.  With numpy it finds the quotes that open and close
strings and every '[' outside them whose next byte other than ASCII
digits, '-', ',' and JSON whitespace is ']'.  Such a body must follow
JSON's grammar of integer lists, or the file is refused; its numbers
are decoded in a few whole-array passes (see :func:`_int_arrays`) and
it is replaced by a placeholder ``[j]``.  Every other body (floats,
``true``, strings, nested arrays, ``[]``) stays in the skeleton, which
is decoded as UTF-8 and parsed by ``json.loads``.  So the skeleton is
valid JSON exactly when the file is, and its one-element lists of an
int are exactly the placeholders: each sequence slot must hold one
whose array has N numbers, and one gather of row views (a sliding
window over the numbers) takes the K*M arrays into the (K, M, N)
exponents.  Numbers are exact up to four digits, which hold every
exponent below MAX_DELTA; longer ones read as outside [0, delta), or as
outside int64 past it.  So a file is accepted, refused and read as
``code_set_from_dict(json.loads(text))`` reads its text.

``main`` builds its argument parser once per process.  Variables and
code indices on the command line, like Boolean-function text, are read
in ASCII digits only.  It exits 1 only
when ``verify`` finds that the zone fails, and 2 with one ``error:`` line
on any other failure, out of memory too.  ``generate`` writes the bytes
of ``json.dumps(code_set_to_dict(cs))`` and a newline, each row joined
from a table of the exponents' decimal strings.  ``corr`` writes a pair's
CSV rows ``tau,re,im,abs,exact_zero`` from its exact reduced forms: each
run of zero ones as ``tau,0,0,0,true`` in one format call, any other as
:func:`~zccs.algebra.form_values` gives it.

``generate --out`` and ``corr --csv`` write their whole output to a new
sibling file, ``<path>.<random hex>.tmp``, created exclusively, then move
the old file aside, rename the new one onto the path and unlink the old
one.  Truncating and rewriting a file that exists makes ext4 (with its
default ``auto_da_alloc``) start writeback of the data on close, and
``os.replace`` over an existing file does the same: on a 2-core VM's
ext4 root a rewrite of 8-220 KB took 39-56 ms, the swap 0.02-0.06 ms.  A
failed write removes the new file and leaves the old one byte-identical.
Neither way calls ``fsync``, so durability is as before.  An existing
file keeps its permission bits, a new one gets ``0o666 & ~umask``, a
symlink stays a symlink to the rewritten target, and an existing target
that is not a regular file, such as ``/dev/null`` or a FIFO, is written
in place.
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import replace
from functools import cache
from itertools import chain

import numpy as np

from .algebra import form_values
from .boolfn import parse_gbf
from .construct import CodeLabel, CodeSet, CodeSetParams, build_ccc, build_zccs, family_labels, family_params
from .correlate import code_pair_reductions
from .errors import FileFormatError, InvalidParams, ShapeError, ZccsError
from .verify import verify_code_set

FORMAT_VERSION = 1

_PARAM_FIELDS = ("K", "M", "N", "Z", "q", "m", "k", "delta", "p", "s")


def _header(cs: CodeSet) -> tuple[dict, list]:
    """The document of ``cs`` without its codes, and its K label dicts,
    refused as :func:`code_set_to_dict` refuses a set."""
    labels = [{"family": label.family, "t": label.t, "lam": label.lam} for label in cs.labels]
    try:
        _check_params(cs.params)
    except InvalidParams as exc:
        raise FileFormatError(f"malformed code-set document: {exc}") from None
    _check_labels(labels, cs.params)
    params = {name: getattr(cs.params, name) for name in _PARAM_FIELDS}
    return {"format_version": FORMAT_VERSION, "delta": cs.params.delta, "params": params}, labels


def code_set_to_dict(cs: CodeSet) -> dict:
    """The document of ``cs``, refused with FileFormatError, as the reader
    would refuse it, unless its params and labels are the family's own."""
    doc, labels = _header(cs)
    doc["codes"] = [{"label": label, "sequences": rows} for label, rows in zip(labels, cs.exponents.tolist())]
    return doc


def write_code_set(cs: CodeSet, path: str) -> None:
    # The bytes of json.dumps(code_set_to_dict(cs)) and a newline: header
    # and labels by json.dumps, each row joined from a table of the decimal
    # strings of 0..delta-1, read by a numpy take of one code at a time.
    doc, labels = _header(cs)
    digits = np.array([str(e) for e in range(cs.params.delta)], dtype=object)
    codes = (
        '{"label": %s, "sequences": [[%s]]}' % (json.dumps(label), "], [".join(map(", ".join, digits[rows].tolist())))
        for label, rows in zip(labels, cs.exponents)
    )
    _write_output(path, json.dumps(doc)[:-1] + ', "codes": [' + ", ".join(codes) + "]}\n")


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` by swapping in a new file (see the module
    docstring); on any error the new file is removed and the old one kept."""
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    if mode is not None:
        # Refuses, as open(path, "w") did, a file the caller may not write.
        os.close(os.open(path, os.O_WRONLY))
    stem = f"{path}.{os.urandom(4).hex()}"
    tmp, old = stem + ".tmp", stem + ".old.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(text)
        if mode is not None:
            os.rename(path, old)
        try:
            os.rename(tmp, path)
        except BaseException:
            if mode is not None:
                os.rename(old, path)
            raise
    except BaseException:
        os.unlink(tmp)
        raise
    if mode is not None:
        os.unlink(old)


def _check_params(pp: CodeSetParams) -> None:
    family = replace(family_params(pp.q, pp.m, pp.k, pp.p, pp.s), Z=pp.Z)
    if pp != family:
        differ = [f"{name}={getattr(pp, name)}" for name in _PARAM_FIELDS if getattr(pp, name) != getattr(family, name)]
        raise FileFormatError(f"params {', '.join(differ)} disagree with (q, m, k, p, s)")


def _check_labels(labels: list, pp: CodeSetParams) -> tuple[CodeLabel, ...]:
    """The builders' labels of a set of params ``pp``, which the K label
    dicts ``labels`` must be, field by field and type: True and 0.0 equal
    1 and 0."""
    want = family_labels(pp)
    for mu, (got, label) in enumerate(zip(labels, want)):
        if any(type(got[name]) is not type(value) or got[name] != value for name, value in vars(label).items()):
            raise FileFormatError(f"code {mu} label {got} is not the builders' {label}")
    return want


def _members(codes, pp: CodeSetParams) -> list:
    """The K*M sequence slots of the K code entries, in order, each entry's
    count checked against M."""
    seqs = []
    for entry in codes:
        members = entry["sequences"]
        if len(members) != pp.M:
            raise FileFormatError(f"a code of {len(members)} sequences, params.M={pp.M}")
        seqs += members
    return seqs


def _exponents(codes, pp: CodeSetParams) -> np.ndarray:
    """The (K, M, N) exponents of the K code entries of a dict, checked in
    the file reader's order: the entries' counts, that each sequence is a
    list of ints (a bytes, tuple, range or dict is not), the lengths, then
    one ``np.fromiter`` over them all, which refuses any outside int64."""
    seqs = _members(codes, pp)
    if any(type(seq) is not list or set(map(type, seq)) != {int} for seq in seqs):
        raise FileFormatError("exponents must be integers")
    if any(len(seq) != pp.N for seq in seqs):
        raise FileFormatError(f"a sequence whose length is not params.N={pp.N}")
    try:
        return np.fromiter(chain.from_iterable(seqs), np.int64, pp.K * pp.M * pp.N).reshape(pp.K, pp.M, pp.N)
    except OverflowError:
        raise FileFormatError("exponents must be integers in int64") from None


def _code_set(doc: dict, exponents) -> CodeSet:
    """The code set of a document, its exponents read by
    ``exponents(codes, params)`` once every other field has passed."""
    try:
        # type() first: True, 1.0 and 6.0 compare equal to the integers.
        if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format_version {doc['format_version']}")
        params = CodeSetParams(**{name: doc["params"][name] for name in _PARAM_FIELDS})
        _check_params(params)
        delta = doc["delta"]
        if type(delta) is not int or delta != params.delta:
            raise FileFormatError("top-level delta disagrees with params")
        codes = doc["codes"]
        if len(codes) != params.K:
            raise FileFormatError(f"{len(codes)} codes, params.K={params.K}")
        labels = _check_labels([entry["label"] for entry in codes], params)
        exps = exponents(codes, params)
        if exps.min() < 0 or exps.max() >= delta:
            raise FileFormatError("exponent outside [0, delta)")
        return CodeSet(exps, labels, params)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParams, ShapeError) as exc:
        raise FileFormatError(f"malformed code-set document: {exc}") from None


def code_set_from_dict(doc: dict) -> CodeSet:
    """The code set of a document, refusing any exponent that is not
    exactly an int: a bool, a numpy int or an int subclass."""
    return _code_set(doc, _exponents)


# How the file reader reads a number of an integer array: exactly up to
# four digits, which hold every exponent below MAX_DELTA = 1024; any other
# integer in int64 as _OUTSIDE and any past it as _PAST_INT64, both at or
# above every delta, so the range check refuses them.
_EXACT_DIGITS = 4
_OUTSIDE, _PAST_INT64 = np.uint16(65534), np.uint16(65535)


def _past_int64(b: np.ndarray, digit: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of the numbers whose last digits are at ``ends`` lie outside
    int64: 20 digits or more, or 19 past 2**63 - 1 (2**63 after '-')."""
    at = np.maximum(ends[:, None] - np.arange(19, -1, -1), 0)  # 20 bytes to each end
    run = digit[at]
    text = b[at[:, 1:]].view("S19").ravel()
    limit = np.where(b[at[:, 0]] == 45, b"9223372036854775808", b"9223372036854775807")
    return run.all(axis=1) | (run[:, 1:].all(axis=1) & (text > limit))


def _int_arrays(data: bytes):
    """The non-empty arrays of integers of a JSON text, outside strings,
    decoded: ``(lo, hi, first, count, values)``, where array j's body is
    ``data[lo[j]:hi[j]]`` and its ``count[j]`` numbers are read (see
    _EXACT_DIGITS) as ``values[first[j]:first[j] + count[j]]``.

    Such an array is a '[' outside strings whose next byte other than
    ASCII digits, '-', ',' and JSON whitespace is ']'.  A body of those
    bytes that breaks JSON's grammar of integer lists is refused with
    FileFormatError.  Each step is a numpy pass over the text, or over
    the span of its bodies, into a few reused buffers, or works on the
    positions of rarer bytes: one pass finds every bracket and quote,
    and the passes for '-', tab, LF and CR run only if ``data.find``
    finds such a byte in the span.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    none = (np.zeros(0, dtype=np.intp),) * 5
    if b"[" not in data:
        return none
    # A body opens after a '[' whose next byte is no bracket, and ends at
    # the next ']' unless the next body opens first.  A text with no body
    # outside strings, such as one nested too deep, leaves at the string
    # filter below and goes to json.loads whole.
    found = np.flatnonzero((b == 91) | (b == 93) | (b == 34))
    mark = b[found]
    opens, closes, quotes = found[mark == 91], found[mark == 93], found[mark == 34]
    after = b[np.minimum(opens + 1, b.size - 1)]  # a last '[' sees itself
    lo = opens[(after != 91) & (after != 93)] + 1
    at = np.searchsorted(closes, lo)
    lo, hi = lo[at < closes.size], closes[at[at < closes.size]]
    hi[:-1] = np.minimum(hi[:-1], lo[1:] - 1)
    # Strings open and close at the quotes after an even run of
    # backslashes; a body lies outside them after an even count of those.
    if quotes.size and b"\\" in data:
        plain = np.flatnonzero(b != 92)
        k = np.searchsorted(plain, quotes)
        quotes = quotes[(quotes - np.where(k > 0, plain[k - 1], -1)) % 2 == 1]
    outside = np.searchsorted(quotes, lo) % 2 == 0
    lo, hi = lo[outside], hi[outside]
    if not lo.size:
        return none

    # Only the bytes from the first body's '[' to the last one's ']'
    # matter from here on.
    base, stop = lo[0] - 1, hi[-1] + 1
    b = b[base:stop]
    lo, hi = lo - base, hi - base
    signed = data.find(b"-", base, stop) >= 0
    digit, minus, ws, lead, gap, tmp = np.empty((6, b.size), dtype=bool)
    np.greater_equal(b, 48, out=digit)
    digit &= np.less_equal(b, 57, out=tmp)
    np.equal(b, 32, out=ws)
    for space in b"\t\n\r":
        if data.find(space, base, stop) >= 0:
            ws |= np.equal(b, space, out=tmp)
    np.copyto(lead, digit)
    if signed:
        lead |= np.equal(b, 45, out=minus)
    np.logical_or(lead, ws, out=gap)
    gap |= np.equal(b, 44, out=tmp)
    # A body of integers holds only those bytes and ends at a ']'.
    ints = np.logical_and.reduceat(gap, np.stack((lo, hi), axis=1).ravel())[::2] & (b[hi] == 93)
    lo, hi = lo[ints], hi[ints]

    # lead[i]: the first byte from i on that is not whitespace is a digit
    # or '-', found by doubling the runs of whitespace looked across.
    np.copyto(gap, ws)
    step = 1
    while gap.any():
        np.logical_and(gap[:-step], lead[step:], out=tmp[:-step])
        lead[:-step] |= tmp[:-step]
        np.logical_and(gap[:-step], gap[step:], out=tmp[:-step])
        gap[:-step] = tmp[:-step]
        gap[-step:] = False
        step *= 2
    # bad: a byte that JSON's grammar of integer lists forbids before what
    # follows it.  A body is valid when it holds no bad byte and, if it
    # holds a digit, its first byte that is not whitespace leads a number.
    bad = gap
    np.logical_and(digit[:-1], ws[1:], out=bad[:-1])
    bad[:-1] &= lead[1:]  # "1 2", "1 -2"
    np.equal(b[:-1], 44, out=tmp[:-1])
    bad[:-1] |= np.greater(tmp[:-1], lead[1:], out=tmp[:-1])  # ",]", ",,"
    np.equal(b[1:-1], 48, out=tmp[1:-1])
    tmp[1:-1] &= digit[2:]
    bad[1:-1] |= np.greater(tmp[1:-1], digit[:-2], out=tmp[1:-1])  # "01"
    if signed:
        bad[:-1] |= np.logical_and(digit[:-1], minus[1:], out=tmp[:-1])  # "1-"
        bad[:-1] |= np.greater(minus[:-1], digit[1:], out=tmp[:-1])  # "- 1", "-]"
    bad[-1] = False
    wrong = np.flatnonzero(bad)

    end = ws  # the last digit of each number
    np.greater(digit[:-1], digit[1:], out=end[:-1])
    end[-1] = digit[-1]
    ends = np.flatnonzero(end)
    first = np.searchsorted(ends, lo)
    count = np.searchsorted(ends, hi) - first
    if (np.searchsorted(wrong, lo) < np.searchsorted(wrong, hi)).any() or (~lead[lo] & (count > 0)).any():
        raise FileFormatError("not valid JSON: an array of integers breaks JSON's grammar")
    kept = count > 0
    lo, hi, first, count = lo[kept], hi[kept], first[kept], count[kept]

    # Horner's rule on whole arrays, read only at the ends: value[i] is
    # 48 more than the digits of the run ending at i, run[i] marking a run
    # of k + 1 digits there.
    value = b
    run = tmp
    np.copyto(run, digit)
    for k in range(1, _EXACT_DIGITS + 1):
        run[k:] &= digit[:-k]
        run[:k] = False
        if not run.any():
            break
        if k == 1:
            value, term = b.astype(np.uint16), np.empty(b.size, dtype=np.uint16)
        if k < _EXACT_DIGITS:
            np.subtract(b[:-k], 48, out=term[k:], dtype=np.uint16)
            term[k:] *= run[k:]
            value[k:] += np.multiply(term[k:], 10**k, out=term[k:])
    values = value.take(ends) - np.uint16(48)
    if run.any():
        long = np.flatnonzero(run & end)
        at = np.searchsorted(ends, long)
        values[at] = np.where(_past_int64(b, digit, long), _PAST_INT64, _OUTSIDE)
    if signed:
        at = np.searchsorted(ends, np.flatnonzero(np.logical_and(minus[:-1], digit[1:], out=tmp[:-1])) + 1)
        negated = values[at]
        values[at] = np.where(negated == 0, negated, np.maximum(negated, _OUTSIDE))
    return lo + base, hi + base, first, count, values


def _skeleton(data: bytes, lo: np.ndarray, hi: np.ndarray) -> bytes:
    """``data`` with each body ``data[lo[j]:hi[j]]`` replaced by j in
    decimal, assembled by two masks: where the kept bytes come from and
    where they go."""
    if not lo.size:
        return data
    marks = np.frombuffer("".join(map(str, range(lo.size))).encode(), dtype=np.uint8)
    size = np.empty(2 * lo.size + 1, dtype=np.intp)  # kept piece, body, kept piece, ...
    size[0::2] = np.concatenate((lo, [len(data)])) - np.concatenate(([0], hi))
    size[1::2] = hi - lo
    kept = np.arange(size.size) % 2 == 0
    pieces = np.frombuffer(data, dtype=np.uint8)[np.repeat(kept, size)]
    size[1::2] = np.searchsorted(10 ** np.arange(1, 19), np.arange(lo.size), side="right") + 1
    to = np.repeat(kept, size)
    out = np.empty(to.size, dtype=np.uint8)
    out[to] = pieces
    out[~to] = marks
    return out.tobytes()


def read_code_set(path: str) -> CodeSet:
    """The code set of a file (see the module docstring): its integer
    arrays decoded by :func:`_int_arrays`, each replaced by ``[j]`` in a
    skeleton that ``json.loads`` reads."""
    with open(path, "rb") as fh:
        data = fh.read()
    lo, hi, first, count, values = _int_arrays(data)
    # UnicodeDecodeError (a ValueError) comes from bytes that are not
    # UTF-8, RecursionError from arrays or objects nested too deep.
    try:
        doc = json.loads(_skeleton(data, lo, hi).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    del data  # freed before the exponents are gathered

    def exponents(codes, pp: CodeSetParams) -> np.ndarray:
        seqs = _members(codes, pp)
        # the skeleton's one-element lists of an int are its placeholders
        if any(type(seq) is not list or len(seq) != 1 or type(seq[0]) is not int for seq in seqs):
            raise FileFormatError("exponents must be integers")
        ids = [seq[0] for seq in seqs]
        if (count[ids] != pp.N).any():
            raise FileFormatError(f"a sequence whose length is not params.N={pp.N}")
        exps = np.lib.stride_tricks.sliding_window_view(values, pp.N)[first[ids]]
        if (exps == _PAST_INT64).any():
            raise FileFormatError("exponents must be integers in int64")
        return exps.reshape(pp.K, pp.M, pp.N)

    return _code_set(doc, exponents)


def _ascii_digits(token: str) -> bool:
    # isdecimal() alone passes other scripts' digits such as "٠", which
    # int() reads, and int() also takes "_" and signs.
    return token.isascii() and token.isdecimal()


def _parse_var(token: str) -> int:
    token = token.strip()
    if token.startswith("x"):
        token = token[1:]
    if not _ascii_digits(token):
        raise ZccsError(f"expected a variable like x0, got {token!r}")
    return int(token)


def cmd_generate(args) -> int:
    f = parse_gbf(args.f, args.m, args.q)
    deleted = [_parse_var(tok) for tok in args.delete.split(",")] if args.delete else []
    gamma = _parse_var(args.gamma) if args.gamma is not None else None
    if args.kind == "ccc":
        if args.p is not None or args.s is not None:
            raise ZccsError("--p/--s only apply to --kind zccs")
        cs = build_ccc(f, deleted, gamma)
    else:
        if args.p is None:
            raise ZccsError("--kind zccs requires --p")
        cs = build_zccs(f, deleted, gamma, p=args.p, s=args.s)
    write_code_set(cs, args.out)
    pp = cs.params
    print(f"K={pp.K} M={pp.M} N={pp.N} Z={pp.Z} delta={pp.delta} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    cs = read_code_set(getattr(args, "in"))
    report = verify_code_set(cs, args.zcz, compute_max=args.max_zcz)
    print(f"is_zccs@Z={report.claimed_z}: {str(report.is_zccs_at_claimed_z).lower()}")
    print(f"peak: {report.peak} (expected {cs.params.M * cs.params.N})")
    print(f"optimal: {str(report.optimal).lower()}")
    print(f"is_ccc: {str(report.is_ccc).lower()}")
    if report.max_zcz is not None:
        print(f"max_zcz: {report.max_zcz}")
    if report.witness is not None:
        mu1, mu2, tau = report.witness
        print(f"witness: mu1={mu1} mu2={mu2} tau={tau}")
    return 0 if report.is_zccs_at_claimed_z else 1


def cmd_corr(args) -> int:
    cs = read_code_set(getattr(args, "in"))
    tokens = [tok.strip() for tok in args.pair.split(",")]
    if len(tokens) != 2 or not all(map(_ascii_digits, tokens)):
        raise ZccsError(f"--pair expects 'mu1,mu2', got {args.pair!r}")
    mu1, mu2 = map(int, tokens)
    if not (0 <= mu1 < cs.params.K and 0 <= mu2 < cs.params.K):
        raise IndexError(f"pair ({mu1},{mu2}) out of range for K={cs.params.K}")
    delta, n = cs.params.delta, cs.params.N
    c = code_pair_reductions(cs.exponents, delta, mu1, mu2)
    nonzero = np.flatnonzero(c.any(axis=1)).tolist()
    # The rows csv.writer would write: no field needs quoting, and lines
    # end in CRLF.  Each run of rows whose reduced form is zero is one
    # format call of "tau,0,0,0,true" rows; only the other rows are
    # evaluated, one by one.  abs is Python's: np.abs differs from it in
    # the last bit of some values.
    taus, start, parts = range(-n + 1, n), 0, ["tau,re,im,abs,exact_zero\r\n"]
    for row, z in zip(nonzero, form_values(c[nonzero], delta).tolist()):
        parts.append("%d,0,0,0,true\r\n" * (row - start) % tuple(taus[start:row]))
        parts.append("%d,%.12g,%.12g,%.12g,false\r\n" % (taus[row], z.real, z.imag, abs(z)))
        start = row + 1
    text = "".join(parts) + "%d,0,0,0,true\r\n" * (len(taus) - start) % tuple(taus[start:])
    if args.csv:
        _write_output(args.csv, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zccs",
        description="Construct and verify (Z-)complementary code sets from Boolean functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a code set and write it to a file")
    gen.add_argument("--kind", choices=("ccc", "zccs"), required=True)
    gen.add_argument("--q", type=int, required=True, help="sequence alphabet modulus (even)")
    gen.add_argument("--m", type=int, required=True, help="number of base variables")
    gen.add_argument("--f", required=True, help="Boolean function text, e.g. 'x1*x2'")
    gen.add_argument("--delete", default="", help="comma-separated variables to delete, e.g. x0,x1")
    gen.add_argument("--gamma", default=None, help="end vertex to use (default: lower index)")
    gen.add_argument("--p", type=int, default=None, help="prime length multiplier (zccs only)")
    gen.add_argument("--s", type=int, default=None, help="extension variables (default: minimal)")
    gen.add_argument("--out", required=True, help="output path")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a code-set file")
    ver.add_argument("--in", required=True, help="code-set file")
    ver.add_argument("--zcz", type=int, default=None, help="zone width to test (default: claimed)")
    ver.add_argument("--max-zcz", action="store_true", help="also compute the exact maximal width")
    ver.set_defaults(func=cmd_verify)

    corr = sub.add_parser("corr", help="export a correlation profile as CSV")
    corr.add_argument("--in", required=True, help="code-set file")
    corr.add_argument("--pair", required=True, help="code indices 'mu1,mu2'")
    corr.add_argument("--csv", default=None, help="output CSV path (default: stdout)")
    corr.set_defaults(func=cmd_corr)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args fills a new namespace each call, so one parser serves
    # every call in a process.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 1 is only the verdict "fails the zone"
        why = "out of memory" + (f": {exc}" if str(exc) else "") if isinstance(exc, MemoryError) else exc
        print(f"error: {why}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
