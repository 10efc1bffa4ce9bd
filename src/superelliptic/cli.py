"""Command-line front end.

Every command reads a domain declaration (``--char``, repeated ``--ext
name:minpoly-in-t``, repeated ``--param``), parses its polynomial payload,
dispatches to the library, and prints a single canonical JSON report:

    {"schema": 1, "command": ..., "ok": ..., "result": ..., "warnings":
     [...], "error": null | {"kind": ..., "message": ...}}

Field values are canonical strings, never floats, so repeated runs are
byte-identical.  Exit codes: 0 success, 2 domain or validation problems,
3 violated mathematical preconditions (shared branch points, excluded
parameters, zero divisors, ...), 4 syntax errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import gcd

from . import catalog as catalog_mod
from .covers import (
    BlowUpNeededError,
    CoverError,
    CyclicCover,
    SharedBranchPointError,
    _check_cover_order,
    delta_form,
    admissible_deltas,
    merge,
    normalize,
)
from .groups import (
    DecompositionError,
    GroupError,
    classify,
    is_invariant,
    orbit_decomposition,
    orbit_points,
    points_polynomial,
)
from .invariants import (
    InvariantError,
    InvariantVector,
    invariants_general,
    invariants_of,
    locus_test,
    shifted_invariants,
)
from .moduli import reconstruct, verify_roundtrip
from .parser import ParseError, domain_with_sugar, parse_constant, parse_expression
from .rings import DomainMismatchError
from .unipoly import (
    DegreeCapError,
    INF,
    Mobius,
    degree_cap,
    discriminant,
    mobius_transport,
    resultant,
    set_degree_cap,
)

SCHEMA = 1

_VALIDATION_ERRORS = (
    DomainMismatchError,
    DegreeCapError,
    KeyError,
    ValueError,
    OSError,
)
_MATH_ERRORS = (
    SharedBranchPointError,
    BlowUpNeededError,
    GroupError,
    InvariantError,
    CoverError,
    ArithmeticError,
)


def _report(command: str, result=None, warnings=(), error=None, exit_status=0) -> str:
    payload = {
        "schema": SCHEMA,
        "command": command,
        "ok": error is None,
        "exit": exit_status,
        "result": result,
        "warnings": list(warnings),
        "error": error,
    }
    return json.dumps(payload, sort_keys=True)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime)")
    p.add_argument(
        "--ext",
        action="append",
        default=[],
        metavar="NAME:MINPOLY",
        help="extension step, e.g. s3:t^2-3 (repeatable, applied in order)",
    )
    p.add_argument("--param", action="append", default=[], help="symbolic parameter (repeatable)")
    p.add_argument("--max-degree", type=int, default=None, help="degree cap for expansions")


def _split_exts(exts: list[str]) -> list[tuple[str, str]]:
    out = []
    for item in exts:
        if ":" not in item:
            raise ValueError(f"--ext needs NAME:MINPOLY, got {item!r}")
        name, mp = item.split(":", 1)
        out.append((name.strip(), mp.strip()))
    return out


def _domain_for(args, texts: list[str]):
    return domain_with_sugar(args.char, _split_exts(args.ext), tuple(args.param), texts)


def _invariant_payload(u: InvariantVector) -> dict:
    return {
        "delta": u.delta,
        "r": u.r,
        "convention": u.convention,
        "u": u.fmt(),
    }


def _fixture(args):
    for path in (args.catalog, os.environ.get("SUPERELLIPTIC_CATALOG")):
        if path:
            loaded = catalog_mod.load_catalog(path)
            if args.fixture in loaded:
                return loaded[args.fixture]
    return catalog_mod.fixture_by_name(args.fixture)


# -- command handlers ---------------------------------------------------


def _cmd_genus(args) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    if args.factor:
        factors = []
        dom = _domain_for(args, [spec.rsplit(":", 1)[0] for spec in args.factor])
        for spec in args.factor:
            text, _, mult = spec.rpartition(":")
            factors.append((parse_expression(text, dom), int(mult)))
        cover = CyclicCover(args.n, tuple(factors))
    else:
        dom = _domain_for(args, [args.poly])
        cover = CyclicCover.from_polynomial(args.n, parse_expression(args.poly, dom))
    genus, warns = cover.genus_report()
    warnings.extend(warns)
    result = {"n": cover.n, "s": cover.s, "d": cover.d, "genus": genus}
    if all(d == 1 for _, d in cover.factors):
        result["normality_guaranteed"] = cover.normality_hint()
    return result, warnings


def _cmd_deltas(args):
    dom = _domain_for(args, [args.poly])
    f = parse_expression(args.poly, dom)
    return {"deltas": admissible_deltas(f)}, []


def _cmd_invariants(args):
    dom = _domain_for(args, [args.poly])
    if args.n is not None:
        _check_cover_order(args.n)
        if dom.char and gcd(dom.char, args.n) != 1:
            raise CoverError(f"characteristic {dom.char} divides the cover order {args.n}")
        if args.delta > 1 and args.n % args.delta:
            raise CoverError(f"delta = {args.delta} must divide n = {args.n}")
    f = parse_expression(args.poly, dom)
    nf, record = normalize(delta_form(f, args.delta))
    warnings = []
    if args.shift:
        if record.root_free:
            raise InvariantError("shifted invariants need an exact normal form")
        u = shifted_invariants(nf, args.shift, args.convention)
    else:
        u = invariants_general(nf)
        if record.root_free:
            warnings.append("no exact rescaling root in the domain; corrected invariants used")
    warnings.extend(u.warnings)
    payload = _invariant_payload(u)
    payload["path"] = "corrected" if record.root_free else "normal-form"
    return payload, warnings


def _cmd_locus(args):
    dom = _domain_for(args, [args.poly])
    if args.n is not None:
        _check_cover_order(args.n)
    u = invariants_of(parse_expression(args.poly, dom), args.delta)
    rep = locus_test(u)
    result = {
        "higher_cyclic": rep.higher_cyclic,
        "dihedral": rep.dihedral,
        "component": rep.component,
        "invariants": u.fmt(),
    }
    if args.n is not None and rep.component != "none":
        result["component_group"] = rep.component_group(args.n, args.delta)
    warnings = ["degenerate r = 2"] if rep.degenerate_r2 else []
    return result, warnings


def _cmd_classify(args):
    fx = _fixture(args)
    dom = fx.domain
    f = None
    if not (args.ext or args.param or args.char):
        try:
            f = parse_expression(args.poly, dom)
        except ParseError:
            f = None  # identifiers outside the fixture tower: parse separately
    if f is None:
        f = parse_expression(args.poly, _domain_for(args, [args.poly]))
    if f.domain == dom and not is_invariant(f, fx):
        raise DecompositionError("polynomial is not invariant under the fixture generators")
    rep = orbit_decomposition(f, fx)
    aut = classify(fx, rep, args.n)
    result = {
        "fixture": fx.name,
        "counts": rep.counts,
        "generic_orbits": rep.t_generic,
        "generic_parameters": None
        if rep.generic_params is None
        else [rep.domain.fmt(p) for p in rep.generic_params],
        "cofactor": str(rep.cofactor),
        "matched_by": rep.matched_by,
        "reduced_group": aut.reduced,
        "full_group": aut.full_group,
        "dimension": aut.dimension,
        "caveats": list(aut.caveats),
    }
    return result, list(rep.warnings)


def _cmd_orbit(args):
    fx = _fixture(args)
    dom = fx.domain
    if args.seed.strip() == "inf":
        seed = INF
    else:
        seed = parse_constant(args.seed, dom)
    elements = fx.elements()
    pts = orbit_points(elements, seed)
    poly = points_polynomial(dom, pts)
    return {
        "fixture": fx.name,
        "orbit_polynomial": str(poly),
        "degree": int(poly.degree()),
        "orbit_size": len(pts),
        "includes_infinity": any(p is INF for p in pts),
    }, []


def _cmd_transport(args):
    dom = _domain_for(args, list(args.entry) + [args.poly])
    a, b, c, d = (parse_constant(t, dom) for t in args.entry)
    f = parse_expression(args.poly, dom)
    out = mobius_transport(f, Mobius(dom, a, b, c, d))
    return {"polynomial": str(out), "degree_drop": int(f.degree()) - int(out.degree())}, []


def _cmd_merge(args):
    dom = _domain_for(args, [args.poly_a, args.poly_b])
    fa = parse_expression(args.poly_a, dom)
    fb = parse_expression(args.poly_b, dom)
    out = merge(delta_form(fa, args.delta), delta_form(fb, args.delta))
    return {"polynomial": str(out.to_unipoly()), "delta": out.delta, "r": out.r}, []


def _cmd_reconstruct(args):
    dom = _domain_for(args, list(args.u))
    values = tuple(parse_constant(t, dom) for t in args.u)
    u = InvariantVector(dom, args.delta, len(values), values)
    model = reconstruct(u)
    ok = verify_roundtrip(model)
    ring = model.ring
    result = {
        "modulus": f"t^{model.r} = {dom.fmt(dom.div(u[1], dom.from_int(2)))}",
        "coefficients": [ring.fmt(c) for c in model.coeffs],
        "roundtrip": ok,
    }
    warnings = [] if ok else ["invariants are not dihedrally symmetric: model does not round-trip"]
    return result, warnings


def _cmd_discriminant(args):
    dom = _domain_for(args, [args.poly])
    f = parse_expression(args.poly, dom)
    return {"discriminant": dom.fmt(discriminant(f))}, []


def _cmd_resultant(args):
    dom = _domain_for(args, [args.poly_a, args.poly_b])
    fa = parse_expression(args.poly_a, dom)
    fb = parse_expression(args.poly_b, dom)
    return {"resultant": dom.fmt(resultant(fa, fb))}, []


def _cmd_catalog(args):
    if args.out:
        # opened first, so a bad path fails before the catalog is built
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(catalog_mod.catalog_to_json() + "\n")
        return {"written": args.out}, []
    return {"catalog": json.loads(catalog_mod.catalog_to_json())}, []


def _batch_usage(message: str) -> str:
    return _report("batch", error={"kind": "usage", "message": message}, exit_status=2)


def _run_batch_line(line: str) -> str:
    """The report of one JSONL request; a usage report for a malformed one
    or for a nested ``batch``, which would print outside its slot."""
    try:
        req = json.loads(line)
        argv = [str(req["command"])] + [str(a) for a in req.get("args", [])]
    except (ValueError, KeyError, TypeError, AttributeError):
        return _batch_usage('request is not a JSON object with a "command"')
    if argv[0] == "batch":
        return _batch_usage("a batch request cannot run batch")
    return run(argv)[1]


def _cmd_batch(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be positive")
    with open(args.requests, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    for line in lines:
        print(_run_batch_line(line))


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token that starts with a single '-', such as ``-49/6`` or
    ``-a``, as a value unless it is one of the parser's option strings
    (argparse admits only ``-49`` and ``-4.9``), so ``--u -49/6`` parses
    like ``--u=-49/6`` and ``--entry -a 0 0 1`` takes four values.  Tokens
    that start with '--' are left to argparse, so a misspelt long option is
    still a usage error.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if (
            arg_string[:1] == "-"
            and arg_string[1:2] not in ("", "-")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="superelliptic",
        description="Exact arithmetic for cyclic covers of the line with extra automorphisms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="genus of y^n = f(x) by tame Riemann-Hurwitz")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("poly", nargs="?", help="squarefree branch polynomial")
    p.add_argument("--factor", action="append", default=[], metavar="POLY:MULT")
    _common_flags(p)

    p = sub.add_parser("deltas", help="admissible delta values of a branch polynomial")
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("invariants", help="dihedral invariants of a delta-form")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="cover order, validated when given")
    p.add_argument("--shift", type=int, default=0, help="use shifted invariants u^(e)")
    p.add_argument("--convention", choices=("r-1", "r-i"), default="r-1")
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("locus", help="higher-cyclic / dihedral locus predicates")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("classify", help="orbit decomposition and automorphism group")
    p.add_argument("--fixture", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--catalog", default=None, help="extra fixture catalog (JSON)")
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("orbit", help="orbit polynomial of a seed point")
    p.add_argument("--fixture", required=True)
    p.add_argument("--seed", required=True, help="a constant expression, or 'inf'")
    p.add_argument("--catalog", default=None)
    _common_flags(p)

    p = sub.add_parser("transport", help="Mobius transport of a branch polynomial")
    p.add_argument("--entry", nargs=4, required=True, metavar=("A", "B", "C", "D"))
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("merge", help="merge two normal forms (disjoint branch loci)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    _common_flags(p)

    p = sub.add_parser("reconstruct", help="field-of-moduli model from invariants")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--u", action="append", required=True, help="invariant (repeat in order)")
    _common_flags(p)

    p = sub.add_parser("discriminant", help="discriminant of a polynomial")
    p.add_argument("poly")
    _common_flags(p)

    p = sub.add_parser("resultant", help="resultant of two polynomials")
    p.add_argument("poly_a")
    p.add_argument("poly_b")
    _common_flags(p)

    p = sub.add_parser("catalog", help="emit the standard fixture catalog as JSON")
    p.add_argument("--out", default=None)

    p = sub.add_parser("batch", help="run JSONL requests in order, one report per line")
    p.add_argument("requests")
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; ignored")

    return ap


_HANDLERS = {
    "genus": _cmd_genus,
    "deltas": _cmd_deltas,
    "invariants": _cmd_invariants,
    "locus": _cmd_locus,
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "transport": _cmd_transport,
    "merge": _cmd_merge,
    "reconstruct": _cmd_reconstruct,
    "discriminant": _cmd_discriminant,
    "resultant": _cmd_resultant,
    "catalog": _cmd_catalog,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Execute one command line; returns (exit code, JSON report)."""
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            return 0, ""
        return 2, _report(
            argv[0] if argv else "?",
            error={"kind": "usage", "message": "bad arguments"},
            exit_status=2,
        )
    command = args.command
    previous_cap = degree_cap()
    try:
        if getattr(args, "max_degree", None) is not None:
            set_degree_cap(args.max_degree)
        if command == "batch":
            _cmd_batch(args)
            return 0, ""
        result, warnings = _HANDLERS[command](args)
        return 0, _report(command, result=result, warnings=warnings)
    except ParseError as exc:
        return 4, _report(command, error={"kind": "parse", "message": str(exc)}, exit_status=4)
    except _MATH_ERRORS as exc:
        return 3, _report(
            command, error={"kind": type(exc).__name__, "message": str(exc)}, exit_status=3
        )
    except _VALIDATION_ERRORS as exc:
        return 2, _report(
            command, error={"kind": type(exc).__name__, "message": str(exc)}, exit_status=2
        )
    finally:
        set_degree_cap(previous_cap)


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
