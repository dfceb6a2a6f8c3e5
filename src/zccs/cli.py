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
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from math import lcm

import numpy as np

from .boolfn import RootSequence, parse_gbf
from .construct import Code, CodeLabel, CodeSet, CodeSetParams, build_ccc, build_zccs
from .correlate import profile
from .errors import FileFormatError, InvalidParams, ShapeError, ZccsError
from .verify import verify_code_set

FORMAT_VERSION = 1

_PARAM_FIELDS = ("K", "M", "N", "Z", "q", "m", "k", "delta", "p", "s")


def code_set_to_dict(cs: CodeSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "delta": cs.params.delta,
        "params": {name: getattr(cs.params, name) for name in _PARAM_FIELDS},
        "codes": [
            {
                "label": {"family": c.label.family, "t": c.label.t, "lam": c.label.lam},
                "sequences": [s.exponents.tolist() for s in c.sequences],
            }
            for c in cs.codes
        ],
    }


def write_code_set(cs: CodeSet, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(code_set_to_dict(cs), fh)
        fh.write("\n")


def _check_params(pp: CodeSetParams) -> None:
    for name in _PARAM_FIELDS:
        value = getattr(pp, name)
        if type(value) is not int and not (value is None and name in ("p", "s")):
            raise FileFormatError(f"params.{name} must be an integer, got {value!r}")
    if pp.K < 1 or pp.M < 1:
        raise FileFormatError("params.K and params.M must be positive")
    if pp.delta != (pp.q if pp.p is None else lcm(pp.p, pp.q)):
        raise FileFormatError("params.delta is neither lcm(p, q) nor q with p null")
    if not 1 <= pp.Z <= pp.N:
        raise FileFormatError(f"params.Z={pp.Z} outside [1, N={pp.N}]")


def _label_from_dict(entry: dict, p: int | None) -> CodeLabel:
    label = CodeLabel(entry["family"], entry["t"], entry["lam"])
    if label.family in ("C", "Cbar"):
        ok = label.lam is None
    else:
        ok = label.family in ("U", "V") and p is not None and type(label.lam) is int and 0 <= label.lam < p
    if not ok or type(label.t) is not int:
        raise FileFormatError(f"invalid code label {entry}")
    return label


def code_set_from_dict(doc: dict) -> CodeSet:
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format_version {doc['format_version']}")
        params = CodeSetParams(**{name: doc["params"][name] for name in _PARAM_FIELDS})
        _check_params(params)
        delta = doc["delta"]
        if delta != params.delta:
            raise FileFormatError("top-level delta disagrees with params")
        codes = []
        for entry in doc["codes"]:
            label = _label_from_dict(entry["label"], params.p)
            sequences = []
            for exps in entry["sequences"]:
                if set(map(type, exps)) != {int}:
                    raise FileFormatError("exponents must be integers")
                arr = np.asarray(exps, dtype=np.int64)
                if arr.min() < 0 or arr.max() >= delta:
                    raise FileFormatError("exponent outside [0, delta)")
                sequences.append(RootSequence(delta, arr))
            codes.append(Code(tuple(sequences), label))
        return CodeSet(tuple(codes), params)
    except (KeyError, TypeError, ValueError, OverflowError, InvalidParams, ShapeError) as exc:
        raise FileFormatError(f"malformed code-set document: {exc}") from None


def read_code_set(path: str) -> CodeSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    return code_set_from_dict(doc)


def _parse_var(token: str) -> int:
    token = token.strip()
    if token.startswith("x"):
        token = token[1:]
    if not token.isdigit():
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
    try:
        mu1, mu2 = (int(tok) for tok in args.pair.split(","))
    except ValueError:
        raise ZccsError(f"--pair expects 'mu1,mu2', got {args.pair!r}") from None
    if not (0 <= mu1 < cs.params.K and 0 <= mu2 < cs.params.K):
        raise IndexError(f"pair ({mu1},{mu2}) out of range for K={cs.params.K}")
    prof = profile(cs.codes[mu1], cs.codes[mu2])
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["tau", "re", "im", "abs", "exact_zero"])
        for tau in sorted(prof.values):
            value = prof.values[tau]
            z = value.to_complex()
            writer.writerow([
                tau,
                f"{z.real:.12g}",
                f"{z.imag:.12g}",
                f"{abs(z):.12g}",
                str(value.is_zero()).lower(),
            ])
    finally:
        if args.csv:
            out.close()
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ZccsError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
