"""Command-line front end.

Subcommands:

* ``qrset P``: print the residue structure of a prime.
* ``build``: construct a code, optionally analyze distances, and write it
  as JSON, alist, or Pauli text.
* ``tables``: rebuild a reference table and diff it cell by cell; exits
  nonzero if any cell mismatches.
* ``bounds``: evaluate finite-length bounds or emit asymptotic curve CSV.

Row indices on the command line are 1-based throughout.  ``--seed`` seeds
the information-set search, which ``--distance bound`` always runs and the
default mode runs whenever the proof does not fit the budget.
"""

from __future__ import annotations

import argparse
import sys

from . import alist as alist_mod
from .analysis import DEFAULT_BUDGET, classify_degeneracy, d_dagger, d_min
from .bounds import curves_csv, evaluate_bounds
from .errors import QrstabError
from .numtheory import classify_prime
from .records import make_record, pauli_text
from .tables import check_table
from .type1 import Type1Spec, Type1Variant, build_type1, default_variant
from .type2 import Layout, QcsSpec, QcsVariant, build_qcs


def _parse_rows(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad row list {text!r}") from None


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qrstab",
                                 description="quadratic-residue stabilizer code toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qrset", help="print the residue structure of a prime")
    q.add_argument("p", type=int)

    b = sub.add_parser("build", help="construct and optionally analyze a code")
    b.add_argument("--type", dest="code_type", type=int, choices=(1, 2), required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--variant",
                   choices=[v.value for v in Type1Variant] + [v.value for v in QcsVariant])
    b.add_argument("--layout", choices=[l.value for l in Layout],
                   default=Layout.H1_ADJ2.value)
    b.add_argument("--remove", type=_parse_rows, default=None,
                   help="1-based rows to remove (type 2); omit for the stock policy")
    b.add_argument("--rows", type=_parse_rows, default=None,
                   help="1-based generator row override (type 1)")
    b.add_argument("--distance", choices=("exact", "bound", "none"), default="none")
    b.add_argument("--force", action="store_true",
                   help="allow unproven type-1 variants (a SIP check still applies)")
    b.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)
    b.add_argument("--format", dest="fmt", choices=("json", "alist", "pauli"),
                   default="json")
    b.add_argument("--name", default=None)

    t = sub.add_parser("tables", help="rebuild a reference table and diff it")
    t.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)

    c = sub.add_parser("bounds", help="finite bounds or asymptotic curve CSV")
    c.add_argument("--check", type=_parse_rows, default=None, metavar="N,K,D")
    c.add_argument("--resolution", type=int, default=101)
    c.add_argument("--out", default=None)
    return ap


def cmd_qrset(args) -> int:
    ctx = classify_prime(args.p)
    print(f"p = {ctx.p} = 4*{ctx.n} {'-' if ctx.form.value == '4n-1' else '+'} 1, "
          f"k = {ctx.k}, alpha = {ctx.alpha}, beta = {ctx.beta}")
    print("QR:", " ".join(map(str, ctx.qr)))
    print("QNR:", " ".join(map(str, ctx.qnr)))
    print("QR as beta powers:", " ".join(map(str, ctx.beta_powers)))
    return 0


def _build_code(args):
    ctx = classify_prime(args.p)
    valid = [v.value for v in (Type1Variant if args.code_type == 1 else QcsVariant)]
    if args.variant and args.variant not in valid:
        raise QrstabError(f"--type {args.code_type} variants are {', '.join(valid)}")
    if args.code_type == 1:
        if args.remove:
            raise QrstabError("--remove applies to --type 2 only (use --rows)")
        variant = (Type1Variant(args.variant) if args.variant
                   else default_variant(ctx))
        return build_type1(Type1Spec(ctx, variant, row_subset=args.rows,
                                     force=args.force))
    if args.rows:
        raise QrstabError("--rows applies to --type 1 only (use --remove)")
    variant = (QcsVariant(args.variant) if args.variant
               else (QcsVariant.A if ctx.p % 4 == 3 else QcsVariant.B))
    return build_qcs(QcsSpec(ctx, variant, Layout(args.layout), args.remove))


def _write(payload: str, out: str | None) -> int:
    """Write ``payload`` to the file ``out``, or to stdout when it is None."""
    if not out:
        sys.stdout.write(payload)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise QrstabError(f"cannot write {out}: {exc.strerror or exc}") from None
    print(f"wrote {out}")
    return 0


def cmd_build(args) -> int:
    code = _build_code(args)
    ddag = dmin = degenerate = None
    if args.distance != "none" and not code.trivial:
        search = {"budget": args.budget, "seed": args.seed}
        bound = args.distance == "bound"  # else analysis decides what it can prove
        if code.m:  # with no generators there is no nontrivial stabilizer element
            ddag = d_dagger(code, exact_max_m=-1 if bound else None, **search)
        dmin = d_min(code, exact_max_dual=-1 if bound else None, **search)
        if ddag is not None and ddag.is_exact and dmin.is_exact:
            degenerate = classify_degeneracy(ddag, dmin)
    if args.fmt == "alist":
        payload = alist_mod.export_alist(code.h)
    else:  # only records carry the standard-form logicals
        name = args.name or f"{code.family} p={args.p} {code.params()}"
        record = make_record(code, name, ddag, dmin, degenerate)
        payload = record.to_json() if args.fmt == "json" else pauli_text(record)
    return _write(payload, args.out)


def cmd_tables(args) -> int:
    diffs = check_table(args.which)
    if not diffs:
        print(f"table {args.which}: all checked cells match")
        return 0
    for d in diffs:
        print(f"MISMATCH {d}")
    print(f"table {args.which}: {len(diffs)} mismatching cell(s)")
    return 1


def cmd_bounds(args) -> int:
    if args.check is not None:
        if len(args.check) != 3:
            raise QrstabError("--check takes three numbers N,K,D")
        n, k, d = args.check
        rep = evaluate_bounds(n, k, d)
        print(f"[[{n},{k},{d}]]: t = {rep.t}")
        print(f"hamming: {'ok' if rep.hamming_ok else 'violated'}"
              f"{' (tight)' if rep.hamming_tight else ''}")
        print(f"gv (finite inequality): {'satisfied' if rep.gv_ok else 'not satisfied'}")
        print(f"css-gv rate: {'satisfied' if rep.css_gv_rate_ok else 'not satisfied'}")
        print(f"singleton: {'ok' if rep.singleton_ok else 'violated'}"
              f"{' (tight)' if rep.singleton_tight else ''}")
        return 0
    return _write(curves_csv(args.resolution), args.out)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {"qrset": cmd_qrset, "build": cmd_build,
                "tables": cmd_tables, "bounds": cmd_bounds}
    try:
        return handlers[args.command](args)
    except QrstabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
