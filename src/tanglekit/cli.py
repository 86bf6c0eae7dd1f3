"""Command-line interface.

Thin adapters over the library: no domain logic lives here.  Output is
deterministic; ``--format json`` emits stable machine-readable structures
(schema tag ``tanglekit-report/1`` for the reproduction report).  Exit
codes: 0 success, 1 domain-level mismatch (reproduce diff), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import catalog as cat
from .bracket import CrossingBudgetExceeded, jones, linking_number
from .diagram import (
    DiagramError,
    TangleDiagram,
    close_numerator,
    from_expression,
    orient,
    parse_diagram,
    validate,
)
from .expr import (
    CatalogHint,
    EmbedVerdict,
    ExprSyntaxError,
    evaluate,
    parse_expr,
    referenced_names,
)
from .fraction import (
    continued_fraction,
    frac_add_integral,
    frac_mirror,
    frac_rotate,
    numerator_two_bridge,
    parse_fraction,
    rational_closure_verdict,
)
from .quandle import NotInvariant, coloring_fraction, color_solve_dihedral, determinant


class UsageError(ValueError):
    pass


def _load_diagram_arg(value: str):
    """Resolve a file path, or an inline expression whose @name references
    (a bare @name included) are catalog entries; either is validated, a
    file as it is parsed and an expression once realized."""
    try:
        with open(value) as fh:
            return parse_diagram(fh.read())
    except OSError:
        pass
    try:
        expr = parse_expr(value)
    except ExprSyntaxError as ex:
        raise UsageError(f"not a catalog name, diagram file or expression: "
                         f"{value!r} ({ex})")
    entries = cat.load_catalog() if referenced_names(expr) else []
    d = from_expression(expr, lambda name: cat.get_entry(name, entries).diagram)
    err = validate(d)
    if err:
        raise DiagramError(err)
    return d


def _emit(args, text: str, data):
    if args.format == "json":
        print(json.dumps(data, indent=1, sort_keys=True))
    else:
        print(text)


def _verdict_data(v: EmbedVerdict) -> dict:
    return {
        key: cat._verdict_json(getattr(v, key))
        for key in ("unknottable", "unlinkable", "splittable")
    }


def cmd_frac(args) -> int:
    f = parse_fraction(args.fraction)
    op = args.op
    if op == "normalize":
        out = f
    elif op == "rotate":
        out = frac_rotate(f)
    elif op == "mirror":
        out = frac_mirror(f)
    elif op == "add":
        if args.n is None:
            raise UsageError("frac add needs an integer argument")
        out = frac_add_integral(f, args.n)
    elif op == "twist-vector":
        entries = continued_fraction(f)
        _emit(args, " ".join(str(c) for c in entries), {"twist_vector": entries})
        return 0
    elif op == "two-bridge":
        tb = numerator_two_bridge(f)
        _emit(args, f"{tb} components={tb.components}"
                    f"{' unknot' if tb.is_unknot else ''}"
                    f"{' two-unlink' if tb.is_two_unlink else ''}",
              {"alpha": tb.alpha, "beta": tb.beta, "components": tb.components})
        return 0
    elif op == "closure-verdict":
        if args.other is None:
            raise UsageError("closure-verdict needs a second fraction")
        v = rational_closure_verdict(f, parse_fraction(args.other))
        _emit(args, f"unknot={v.unknot} unlink={v.unlink} split={v.split}",
              {"unknot": v.unknot, "unlink": v.unlink, "split": v.split})
        return 0
    _emit(args, str(out), {"fraction": str(out)})
    return 0


def cmd_verdict(args) -> int:
    expr = parse_expr(args.expression)
    names = referenced_names(expr)
    entries = cat.load_catalog() if names else []
    hints = {}
    for name in sorted(names):
        entry = cat.get_entry(name, entries)
        hints[name] = CatalogHint(verdict=cat.classify(entry).verdict,
                                  essential=entry.essential)
    result = evaluate(expr, hints)
    text = [str(result.verdict)]
    text += ["evidence:"] + ["  " + line for line in result.log]
    _emit(args, "\n".join(text),
          {"verdict": _verdict_data(result.verdict), "evidence": result.log})
    return 0


def cmd_color(args) -> int:
    d = _load_diagram_arg(args.diagram)
    n = args.modulus
    if n < 0:
        raise UsageError("modulus must be >= 0")
    smith = color_solve_dihedral(d)
    if n > 0:
        count = smith.solutions_mod(n)
        data = {"modulus": n, "count": count, "generators": smith.kernel_basis_mod(n)}
        text = f"{count} colorings mod {n}"
    else:
        basis = smith.kernel_basis()
        data = {"modulus": 0, "basis": basis, "invariant_factors": smith.factors}
        text = f"integer lattice rank {len(basis)}, invariant factors {smith.factors}"
    _emit(args, text, data)
    return 0


def cmd_fraction_invariant(args) -> int:
    d = _load_diagram_arg(args.diagram)
    if not isinstance(d, TangleDiagram):
        raise UsageError("the coloring fraction needs a tangle diagram")
    cf = coloring_fraction(d)
    if isinstance(cf, NotInvariant):
        _emit(args, str(cf), {"fraction": None, "rank": cf.rank})
    else:
        _emit(args, str(cf), {"fraction": str(cf)})
    return 0


def _closed(args):
    d = _load_diagram_arg(args.diagram)
    if isinstance(d, TangleDiagram):
        d = close_numerator(d)
    return d


def cmd_jones(args) -> int:
    L = _closed(args)
    poly = jones(L)
    if args.at is not None:
        try:
            vr, vi = poly.substitute_gaussian(*_parse_point(args.at))
        except ZeroDivisionError:
            raise UsageError(f"cannot evaluate at {args.at}: division by zero")
        text = _gauss_str(vr, vi)
        _emit(args, text, {"value": text})
        return 0
    _emit(args, str(poly), {"jones": str(poly),
                            "coefficients": {str(e): c for e, c in poly.coeffs}})
    return 0


def _parse_point(text: str):
    """Rational or Gaussian-integer point: '3', '-1/2', '2+3i', 'i'.

    Returns the real and imaginary parts as ``fractions.Fraction``,
    imported here so that only ``jones --at`` loads the module.
    """
    from fractions import Fraction as QQ

    text = text.replace(" ", "")
    if text.endswith("i"):
        body = text[:-1]
        for k in range(1, len(body)):
            if body[k] in "+-" and body[k - 1] not in "+-":
                return QQ(body[:k]), QQ(body[k:] or "1")
        if body in ("", "+", "-"):
            return QQ(0), QQ(body + "1")
        return QQ(0), QQ(body)
    return QQ(text), QQ(0)


def _gauss_str(re, im) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def cmd_det(args) -> int:
    det = determinant(_closed(args))
    _emit(args, str(det), {"determinant": det})
    return 0


def cmd_linking(args) -> int:
    L = _closed(args)
    lk = linking_number(orient(L))
    _emit(args, str(lk), {"linking_number": lk})
    return 0


def cmd_classify(args) -> int:
    entries = cat.load_catalog()
    entry = cat.get_entry(args.name.lstrip("@"), entries)
    result = cat.classify(entry)
    lines = [f"{entry.name}: {result.verdict}", "evidence:"]
    lines += ["  " + x for x in result.evidence]
    _emit(args, "\n".join(lines),
          {"name": entry.name, "verdict": _verdict_data(result.verdict),
           "evidence": result.evidence})
    return 0


def cmd_reproduce(args) -> int:
    report = cat.reproduce_tables()
    if args.format == "json":
        print(json.dumps(report.data, indent=1, sort_keys=True))
    else:
        print(report.text(), end="")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report.data, fh, indent=1, sort_keys=True)
        except OSError as ex:
            raise UsageError(f"cannot write {args.out}: {ex.strerror}") from None
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tanglekit",
        description="decide when 2-string tangles embed into the unknot, "
                    "the unlink or a split link")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("frac", help="rational tangle fraction arithmetic")
    f.add_argument("op", choices=("normalize", "rotate", "mirror", "add",
                                  "twist-vector", "two-bridge",
                                  "closure-verdict"))
    f.add_argument("fraction")
    f.add_argument("other", nargs="?")
    f.add_argument("-n", type=int, default=None, help="integer summand for add")
    f.set_defaults(fn=cmd_frac)

    v = sub.add_parser("verdict", help="evaluate a tangle expression")
    v.add_argument("expression")
    v.set_defaults(fn=cmd_verdict)

    c = sub.add_parser("color", help="dihedral coloring lattice of a diagram")
    c.add_argument("diagram", help="@name, diagram file, or expression")
    c.add_argument("-n", "--modulus", type=int, default=0)
    c.set_defaults(fn=cmd_color)

    fi = sub.add_parser("fraction-invariant", help="coloring fraction")
    fi.add_argument("diagram")
    fi.set_defaults(fn=cmd_fraction_invariant)

    j = sub.add_parser("jones", help="Jones polynomial (numerator closure "
                                     "for tangles)")
    j.add_argument("diagram")
    j.add_argument("--at", default=None,
                   help="evaluate with t^(1/2) set to a rational or "
                        "Gaussian-integer point (i gives |V| at t = -1)")
    j.set_defaults(fn=cmd_jones)

    dt = sub.add_parser("det", help="link determinant")
    dt.add_argument("diagram")
    dt.set_defaults(fn=cmd_det)

    lk = sub.add_parser("linking", help="linking number of a 2-component link")
    lk.add_argument("diagram")
    lk.set_defaults(fn=cmd_linking)

    cl = sub.add_parser("classify", help="classify a catalog entry")
    cl.add_argument("name")
    cl.set_defaults(fn=cmd_classify)

    r = sub.add_parser("reproduce", help="reproduce the classification tables")
    r.add_argument("--out", default=None, help="write the JSON report here")
    r.set_defaults(fn=cmd_reproduce)

    # argparse lets only plain negative numbers through as positionals; no
    # option here starts with "-" and a digit, so "-2/5" is a value too
    negative = re.compile(r"-\d")
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = negative
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed early", file=sys.stderr)
        return 2
    except (UsageError, ExprSyntaxError, cat.CatalogError, DiagramError,
            CrossingBudgetExceeded, ValueError, RecursionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
