"""Command-line front end.

Exit codes: 0 success (or "equal"/"valid"), 1 negative answer (unequal
expressions, invalid certificate, selftest disagreement), 2 error (bad
input, malformed files, context violations).

Context files are JSON objects such as {"case": "cm", "disc": -20}; see
make_context for the accepted cases and fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .arith import TorsionSubgroup, count_subgroups, det, matrix_isogeny_degree
from .contexts import CM, IsogenyContext, make_context
from .errors import K0Error, ParseError, excerpt
from .expr import eval_expression, parse_basis, parse_expression, parse_kernel, parse_rational
from .k0 import Derivation, derive_same_degree, k0_class, validate_derivation
from .kernels import int_literal
from .quadforms import class_group, square_classes


def _json_int(text: str) -> int:
    """`parse_int` hook: an optional '-', then ASCII digits within the
    literal digit limit."""
    negative = text.startswith("-")
    try:
        value = int_literal(text[negative:], 0)
    except ParseError as exc:
        raise K0Error(exc.message) from None
    return -value if negative else value


def _int_option(option: str):
    """argparse `type` for an integer option, read as a JSON integer.  Its
    K0Error is not one argparse catches, so `main` reports it."""

    def read(text: str) -> int:
        try:
            return _json_int(text)
        except K0Error as exc:
            raise K0Error(f"argument {option}: {exc}") from None

    return read


def _literal(parse, text: str, what: str):
    """`parse(text)`, its ParseError reported as a bad `what`."""
    try:
        return parse(text)
    except ParseError as exc:
        raise K0Error(f"bad {what} {excerpt(text)}: {exc}") from None


def _load_json(path: str, what: str):
    """A JSON file's value.  Every way the file can fail to be JSON within
    the interpreter's limits becomes a K0Error naming the file kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise K0Error(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise K0Error(f"{what} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise K0Error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise K0Error(f"{what} nests JSON arrays or objects too deeply") from None
    except K0Error as exc:
        raise K0Error(f"{what}: {exc}") from None


def _load_context(path: str) -> IsogenyContext:
    data = _load_json(path, "context file")
    if not isinstance(data, dict):
        raise K0Error("context file must hold a JSON object")
    return make_context(data)


def _emit(args, payload: dict, human: str) -> None:
    print(json.dumps(payload, indent=2) if args.json else human)


def _cmd_classgroup(args) -> int:
    cg = class_group(args.disc)
    sq = square_classes(args.disc)
    payload = {
        "disc": args.disc,
        "h": cg.h,
        "forms": [list(f.triple()) for f in cg.elements],
        "square_subgroup": [list(f.triple()) for f in sq.squares],
        "coset_reps": [list(f.triple()) for f in sq.coset_reps],
        "index": sq.index,
    }
    lines = [f"discriminant {args.disc}: h = {cg.h}", "reduced forms:"]
    lines += [f"  {f}" for f in cg.elements]
    lines.append(f"square subgroup (order {len(sq.squares)}), coset index {sq.index}:")
    lines += [f"  coset of {f}" for f in sq.coset_reps]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_structure(args) -> int:
    ctx = _load_context(args.ctx)
    st = ctx.structure()
    payload = {"context": ctx.to_json(), "structure": st.to_json()}
    _emit(args, payload, f"{ctx.describe()}: {st.describe()}")
    return 0


def _cmd_dist(args) -> int:
    ctx = _load_context(args.ctx)
    if args.kernel is not None:
        cls = k0_class(ctx, 1, _literal(parse_kernel, args.kernel, "kernel")).deg
    else:
        cls = ctx.degree_class(_literal(parse_rational, args.degree, "degree"))
    payload = {"context": ctx.to_json(), "class": cls.to_json()}
    _emit(args, payload, cls.describe())
    return 0


def _cmd_eval(args) -> int:
    ctx = _load_context(args.ctx)
    left = eval_expression(ctx, parse_expression(args.expr))
    payload = {"context": ctx.to_json(), "value": left.to_json()}
    if args.equals is None:
        _emit(args, payload, left.describe())
        return 0
    right = eval_expression(ctx, parse_expression(args.equals))
    equal = left == right
    payload.update({"other": right.to_json(), "equal": equal})
    _emit(
        args,
        payload,
        f"{left.describe()} {'=' if equal else '!='} {right.describe()}",
    )
    return 0 if equal else 1


def _parse_hnf(text: str, level: int) -> TorsionSubgroup:
    """A subgroup basis 'a,b,0,d' by the `basis` rule: four entries of ASCII
    digits, separated by whitespace or at most one comma."""
    x = _literal(parse_basis, text, "subgroup basis")
    if len(x) != 4:
        raise K0Error(f"subgroup basis needs 4 integers (row-major), got {excerpt(text)}")
    return TorsionSubgroup(level, ((x[0], x[1]), (x[2], x[3])))


def _cmd_derive(args) -> int:
    c1 = _parse_hnf(args.c1, args.n)
    c2 = _parse_hnf(args.c2, args.n)
    cert = derive_same_degree(args.n, c1, c2).to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise K0Error(f"cannot write certificate: {exc}") from exc
        steps, degree = len(cert["steps"]), cert["degree"]
        _emit(
            args,
            {"ok": True, "steps": steps, "degree": degree, "out": args.out},
            f"wrote certificate ({steps} steps, degree {degree}) to {args.out}",
        )
    else:
        print(json.dumps(cert, indent=2))
    return 0


def _cmd_check(args) -> int:
    derivation = Derivation.from_json(_load_json(args.cert, "certificate"))
    result = validate_derivation(derivation)
    payload = {
        "valid": result.ok,
        "level": derivation.level,
        "steps": len(derivation.steps),
        "failures": list(result.failures),
    }
    if result.ok:
        _emit(args, payload, f"certificate valid ({len(derivation.steps)} steps)")
        return 0
    _emit(args, payload, "certificate INVALID:\n" + "\n".join(f"  {f}" for f in result.failures))
    return 1


# Bounds of `selftest --max-disc` and `--max-level`: each suite walks every
# discriminant or level up to its bound through the package and the oracle,
# so the largest bounds cap its time, and below the least (|d| = 3, level 1)
# a suite would check nothing and still report ok.
MIN_SELFTEST_DISC = 3
MAX_SELFTEST_DISC = 20_000
MIN_SELFTEST_LEVEL = 1
MAX_SELFTEST_LEVEL = 16


def _selftest_suites(max_disc: int, max_level: int):
    # Only selftest needs the oracle; other subcommands skip its import.
    import random

    from . import oracle
    from .quadforms import is_fundamental_discriminant

    def fundamental(limit):

        return [d for d in range(-3, -limit - 1, -1) if d % 4 in (0, 1) and is_fundamental_discriminant(d)]

    def suite_forms():
        for d in fundamental(max_disc):
            main = sorted(f.triple() for f in class_group(d).elements)
            ora = sorted(f.triple() for f in oracle.enumerate_reduced_forms(d))
            if main != ora:
                return f"form lists differ at disc {d}"
        return None

    def suite_squares():
        for d in fundamental(min(max_disc, 200)):
            main = {f.triple() for f in square_classes(d).squares}
            if main != oracle.square_class_triples(d):
                return f"square subgroups differ at disc {d}"
        return None

    def suite_norms():
        for d in (-4, -8, -20):
            ctx = CM(d)
            sq = oracle.square_class_triples(d)
            for ell in range(2, 100):
                if any(ell % f == 0 for f in range(2, ell)):
                    continue
                main = ctx.is_norm(ell)
                witness = oracle.norm_witness_search(ell, d)
                if main and (witness is None or not oracle.check_witness(ell, d, witness)):
                    return f"norm claim without witness: {ell} at disc {d}"
                if not main and witness is not None:
                    return f"witness against non-norm claim: {ell} at disc {d}"
        return None

    def suite_degrees():
        rng = random.Random(20260815)
        for _ in range(50):
            n = rng.randint(1, 4)
            g = rng.randint(1, 3)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det(rows) == 0:
                continue
            if matrix_isogeny_degree(rows, g).as_fraction() != oracle.lattice_degree_oracle(rows, g):
                return f"degree mismatch for {rows} at g={g}"
        return None

    def suite_subgroup_counts():
        for n in range(1, max_level + 1):
            if count_subgroups(n) != len(oracle.exhaustive_subgroups(n)):
                return f"subgroup count differs at level {n}"
        return None

    def suite_derivations():
        for n in range(1, max_level + 1):
            subs = oracle.exhaustive_subgroups(n)
            by_order: dict[int, list[TorsionSubgroup]] = {}
            for s in subs:
                by_order.setdefault(s.order, []).append(s)
            for order, group in by_order.items():
                for c1 in group:
                    for c2 in group:
                        d = derive_same_degree(order, c1, c2)
                        if not validate_derivation(d) or oracle.check_certificate(d.to_json()):
                            return f"derivation failed for order {order} at level {n}"
        return None

    return [
        ("reduced forms vs enumeration", suite_forms),
        ("square subgroup vs ideal squaring", suite_squares),
        ("norm decisions vs witness search", suite_norms),
        ("matrix degrees vs lattice index", suite_degrees),
        ("subgroup counts vs enumeration", suite_subgroup_counts),
        ("derivations validate exhaustively", suite_derivations),
    ]


def _cmd_selftest(args) -> int:
    for option, value, least, limit in (
        ("--max-disc", args.max_disc, MIN_SELFTEST_DISC, MAX_SELFTEST_DISC),
        ("--max-level", args.max_level, MIN_SELFTEST_LEVEL, MAX_SELFTEST_LEVEL),
    ):
        if value < least:
            raise K0Error(f"argument {option}: {value} is under the selftest minimum of {least}")
        if value > limit:
            raise K0Error(f"argument {option}: {value} is over the selftest limit of {limit}")
    results = []
    ok = True
    for name, fn in _selftest_suites(args.max_disc, args.max_level):
        failure = fn()
        results.append({"suite": name, "ok": failure is None, "detail": failure})
        ok = ok and failure is None
        if not args.json:
            status = "ok" if failure is None else f"FAIL: {failure}"
            print(f"{name}: {status}")
    if args.json:
        print(json.dumps({"ok": ok, "suites": results}, indent=2))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k0",
        description="Grothendieck-group invariants of isogeny categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=fn)
        return p

    p = add("classgroup", _cmd_classgroup, "reduced forms, class number, square classes")
    p.add_argument("--disc", type=_int_option("--disc"), required=True, help="fundamental discriminant (negative)")

    p = add("structure", _cmd_structure, "structure of the degree-class group")
    p.add_argument("--ctx", required=True, help="context file (JSON)")

    p = add("dist", _cmd_dist, "canonical degree class of a rational or kernel")
    p.add_argument("--ctx", required=True, help="context file (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", help="positive rational, e.g. 15 or 3/4")
    group.add_argument("--kernel", help="kernel literal, e.g. '{mup:1, coprime:12}'")

    p = add("eval", _cmd_eval, "evaluate an expression to canonical form")
    p.add_argument("--ctx", required=True, help="context file (JSON)")
    p.add_argument("expr", help="expression, e.g. '[1; 15] - [1; 3]'")
    p.add_argument("--equals", help="second expression; exit 0 iff equal")

    p = add("derive", _cmd_derive, "produce a same-degree certificate")
    p.add_argument("--n", type=_int_option("--n"), required=True, help="common subgroup order (and torsion level)")
    p.add_argument("--c1", required=True, help="subgroup basis, row-major 'a,b,0,d' (commas or spaces)")
    p.add_argument("--c2", required=True, help="subgroup basis, row-major 'a,b,0,d' (commas or spaces)")
    p.add_argument("--out", help="write the certificate to this file")

    p = add("check", _cmd_check, "validate a certificate")
    p.add_argument("--cert", required=True, help="certificate file (JSON)")

    p = add("selftest", _cmd_selftest, "run oracle agreement suites")
    p.add_argument(
        "--max-disc",
        type=_int_option("--max-disc"),
        default=300,
        help=f"bound on |disc| (default 300, from {MIN_SELFTEST_DISC} to {MAX_SELFTEST_DISC})",
    )
    p.add_argument(
        "--max-level",
        type=_int_option("--max-level"),
        default=8,
        help=f"torsion level bound (default 8, from {MIN_SELFTEST_LEVEL} to {MAX_SELFTEST_LEVEL})",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # Inside the try: the integer options' `type` raises K0Error.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except K0Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
