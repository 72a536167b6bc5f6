"""Command-line surface: parse expressions, run the symbolic operations,
and drive the numeric lab, with text or schema-conforming JSON output.

Exit codes: 0 on success; 1 on domain errors (poles, bad q, stuck words,
sizes over a documented limit, float overflow); 2 on syntax errors,
reported with a 1-based column, and on usage errors such as an unknown
option.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import partial

from . import algebra, expr, rewrite
from .ratfun import RatFun

# lie and spectral are imported by the handlers that run them, and json in
# JSON mode only, so that a command loads and compiles only what it uses


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric output: {value!r}")
    return float(value)


def _text_result(payload, x):
    """(payload, render) with the text of x as the payload's "text" field
    and as the one line, each rendered only by the mode that prints it."""
    payload["text"] = text = partial(expr.element_text, x)
    return payload, lambda: [text()]


def _reports_result(reports):
    """(payload, render) of identity reports; a report's text label is its
    identity name followed by its parameters, if it has any."""
    fields = ("identity", "params", "verdict", "difference", "lhs", "rhs")
    payload = {"reports": [{f: getattr(r, f) for f in fields} for r in reports]}

    def render():
        for r in reports:
            label = f"{r.identity} {r.params}" if r.params else r.identity
            yield f"{label}: " + ("ok" if r.verdict else f"DIFFERS: {expr.element_text(r.difference)}")

    return payload, render


def _parse_q(text: str):
    from . import spectral

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"q must be a rational literal like 1/2: {e}") from e
    return spectral.NumericQ(value)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError("complex value must be RE or RE,IM")


# -- per-command handlers -------------------------------------------------------
#
# Each returns (payload, render), where render() gives the text lines, any
# iterable of str, which main renders in text mode only.  Payload values may
# be RatFun, Element, FreeElement, range, or a callable that renders a text
# field; main encodes them, in JSON mode only, by expr.json_text.


def _cmd_normalize(args):
    # the completed rules give every word one normal form, so the expression
    # is reduced as it is evaluated; the printed rules reduce its expanded
    # free word sum (capped by expr.MAX_FREE_PAIRS), so irreducible
    # non-basis words are reported, not coerced
    rules = rewrite.RuleSet.by_name(args.rules)
    if rules is algebra.COMPLETED:
        x = expr.evaluate(args.expr)
    else:
        x = algebra.normalize(expr.eval_ast_free(expr.parse(args.expr)), rules)
    return _text_result({"element": x}, x)


def _cmd_bracket(args):
    x = algebra.bracket(expr.evaluate(args.left), expr.evaluate(args.right))
    return _text_result({"element": x}, x)


def _cmd_adjoint(args):
    x = algebra.adjoint(expr.evaluate(args.expr))
    return _text_result({"element": x}, x)


def _cmd_decompose(args):
    from . import lie

    d = lie.decompose(expr.evaluate(args.expr))
    payload = {
        "linear_A": d.coeff_a,
        "linear_B": d.coeff_b,
        "derived": d.derived,
        "e_part": d.e_part,
    }
    return payload, lambda: [
        f"coefficient of A: {expr.element_text(d.coeff_a)}",
        f"coefficient of B: {expr.element_text(d.coeff_b)}",
        f"derived part:     {expr.element_text(d.derived)}",
        f"remainder part:   {expr.element_text(d.e_part)}",
    ]


def _cmd_predicate(args):
    from . import lie

    test = {"is-lie": lie.is_lie_polynomial, "is-compact": lie.is_compact}[args.command]
    value = test(expr.evaluate(args.expr))
    return {"value": value}, lambda: ["true" if value else "false"]


def _cmd_calkin(args):
    from . import lie

    lp = lie.calkin_image(expr.evaluate(args.expr))
    return _text_result({"terms": [{"power": e, "coeff": c} for e, c in lp.sorted_terms()]}, lp)


def _cmd_apply(args):
    x = expr.evaluate(args.expr)
    if args.q is None:
        from . import lie

        ki = lie.apply_symbolic(x, args.n)
        entries = [
            {"target": target, "scalars": [s._asdict() for s in ki.scalars(target)]}
            for target in ki.targets()
        ]
        return {"entries": entries, "zero": ki.is_zero()}, lambda: [expr.ket_text(ki)]
    from . import spectral

    q0 = _parse_q(args.q)
    vec = spectral.apply_numeric(x, args.n, q0)
    payload = {
        "entries": [
            {"index": idx, "value": _finite(v)} for idx, v in sorted(vec.items())
        ],
        "q": str(q0.value),
    }
    return payload, lambda: [f"{idx}: {v!r}" for idx, v in sorted(vec.items())] or ["0"]


def _cmd_verify_identities(args):
    from . import lie

    return _reports_result(lie.verify_identity_suite(args.kmax, args.lmax))


def _cmd_verify_fredholm(args):
    from . import lie

    return _reports_result(lie.verify_fredholm_relations())


def _cmd_verify_confluence(args):
    rules = rewrite.RuleSet.by_name(args.rules)
    summary = rewrite.check_confluence(rules, args.maxlen)
    payload = {
        "rules": summary.rules_name,
        "max_len": summary.max_len,
        "confluent": summary.confluent_up_to_length,
        "ambiguities": [
            {
                "word": r.word_text,
                "kind": r.kind,
                "resolvable": r.resolvable,
                "outcomes": r.outcomes,
            }
            for r in summary.reports
        ],
        "unresolvable": [r.word_text for r in summary.unresolvable],
    }

    def render():
        yield (
            f"{summary.rules_name} rules, ambiguity words up to length {summary.max_len}: "
            f"{len(summary.reports)} ambiguities, {len(summary.unresolvable)} unresolvable"
        )
        for r in summary.reports:
            yield f"  {r.word_text} ({r.kind}): " + ("resolvable" if r.resolvable else "UNRESOLVABLE")
            if not r.resolvable:
                yield from (f"    -> {expr.element_text(o)}" for o in r.outcomes)

    return payload, render


def _cmd_spectrum(args):
    from . import spectral

    q0 = _parse_q(args.q) if args.q is not None else None
    facts = spectral.spectrum_facts(args.op, k=args.k, q0=q0)
    payload = {
        "operator": facts.operator,
        "k": facts.k,
        "radius_sq": facts.radius_sq,
        "point_spectrum": facts.point_spectrum,
        "approx_point_spectrum": facts.approx_point_spectrum,
        "compression_spectrum": facts.compression_spectrum,
    }
    if facts.eigenvalue_formula is not None:
        payload["eigenvalue_formula"] = facts.eigenvalue_formula
    if facts.eigenspace is not None:
        payload["eigenspace"] = facts.eigenspace
    if facts.radius_numeric is not None:
        payload["radius"] = _finite(facts.radius_numeric)
    if facts.eigenvalues is not None:
        payload["eigenvalues"] = [_finite(v) for v in facts.eigenvalues]

    def render():
        yield f"operator:                {facts.operator if facts.operator != 'C' else f'C^{facts.k}'}"
        yield f"squared radius:          {facts.radius_sq}"
        yield f"point spectrum:          {facts.point_spectrum}"
        yield f"approx point spectrum:   {facts.approx_point_spectrum}"
        yield f"compression spectrum:    {facts.compression_spectrum}"
        if facts.eigenvalue_formula:
            yield f"eigenvalues:             {facts.eigenvalue_formula}"

    return payload, render


def _cmd_norm(args):
    from . import spectral

    q0 = _parse_q(args.q)
    value = spectral.op_norm(expr.evaluate(args.expr), q0, args.dim)
    payload = {"value": _finite(value), "q": str(q0.value), "dim": args.dim}
    return payload, lambda: [repr(value)]


def _cmd_estimate(args):
    from . import spectral

    estimate = {
        "radius": spectral.spectral_radius_est,
        "lower-index": spectral.lower_index_est,
    }[args.command]
    q0 = _parse_q(args.q)
    est = estimate(q0, args.kmax, args.dim)
    payload = {
        "estimates": [_finite(v) for v in est],
        "final": _finite(est[-1]),
        "q": str(q0.value),
        "kmax": args.kmax,
        "dim": args.dim,
    }
    return payload, lambda: [repr(est[-1])]


def _cmd_coherent(args):
    from . import spectral

    q0 = _parse_q(args.q)
    c = _parse_complex(args.c)
    witness = spectral.coherent_vector(c, q0, args.dim)
    payload = {
        "eigenvalue": {"re": _finite(c.real), "im": _finite(c.imag)},
        "residual": _finite(witness.residual),
        "radius": _finite(witness.radius),
        "outside_disk": witness.outside_disk,
        "vector": [
            {"index": n, "re": _finite(z.real), "im": _finite(z.imag)}
            for n, z in sorted(witness.entries.items())
        ],
    }
    warning = "warning: |c| is not inside the open spectral disk; the residual is not expected to vanish"
    return payload, lambda: [f"residual: {witness.residual!r}"] + ([warning] if witness.outside_disk else [])


def _cmd_surrogate(args):
    from . import lie

    coeff = expr.parse_ratfun(args.coeff) if args.coeff else RatFun.one()
    y = lie.lie_surrogate(coeff, args.side, args.l, args.n, args.k)
    residual = lie.surrogate_residual(coeff, args.side, args.l, args.n, args.k)
    payload, render = _text_result({"element": y}, y)
    payload["residual_zero"] = residual.is_zero()
    return payload, lambda: [*render(), f"residual on basis vector {args.n}: {expr.ket_text(residual)}"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="Symbolic normal forms and numeric spectra for the "
        "q-deformed Heisenberg algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, parent=sub, **kwargs):
        p = parent.add_parser(name, **kwargs)
        # the verify suites list --json without a description
        json_help = "emit the JSON output document" if parent is sub else None
        p.add_argument("--json", action="store_true", help=json_help)
        p.set_defaults(handler=handler)
        return p

    p = add("normalize", _cmd_normalize, help="normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--rules", choices=("printed", "completed"), default="completed")

    p = add("bracket", _cmd_bracket, help="commutator of two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = add("adjoint", _cmd_adjoint, help="adjoint of an expression")
    p.add_argument("expr")

    p = add("decompose", _cmd_decompose, help="A/B-linear, derived, and remainder parts")
    p.add_argument("expr")

    p = add("is-lie", _cmd_predicate, help="membership in the commutator Lie algebra")
    p.add_argument("expr")

    p = add("is-compact", _cmd_predicate, help="compactness of the represented operator")
    p.add_argument("expr")

    p = add("calkin", _cmd_calkin, help="Laurent-polynomial image modulo compacts")
    p.add_argument("expr")

    p = add("apply", _cmd_apply, help="apply to a basis vector (exact, or numeric with --q)")
    p.add_argument("expr")
    p.add_argument("--n", type=int, required=True, help="basis vector index")
    p.add_argument("--q", help="rational q in (0,1) for a numeric result")

    verify = sub.add_parser("verify", help="built-in verification suites")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    p = add("identities", _cmd_verify_identities, vsub, help="nested-commutator rebuild identities")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)

    add("fredholm", _cmd_verify_fredholm, vsub, help="invertibility-modulo-compacts relations")

    p = add("confluence", _cmd_verify_confluence, vsub, help="ambiguity resolution report")
    p.add_argument("--rules", choices=("printed", "completed"), required=True)
    p.add_argument("--maxlen", type=int, required=True)

    p = add("spectrum", _cmd_spectrum, help="exact spectral descriptors")
    p.add_argument("--op", choices=("A", "B", "C"), required=True)
    p.add_argument("--k", type=int, default=1, help="power for the diagonal operator")
    p.add_argument("--q")

    p = add("norm", _cmd_norm, help="operator norm on a truncation")
    p.add_argument("expr")
    p.add_argument("--q", required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add("radius", _cmd_estimate, help="spectral radius estimates from weight windows")
    p.add_argument("--q", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add("lower-index", _cmd_estimate, help="lower index estimates from weight windows")
    p.add_argument("--q", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add("coherent", _cmd_coherent, help="eigenvector witness for the lowering operator")
    p.add_argument("--c", required=True, help="eigenvalue as RE or RE,IM")
    p.add_argument("--q", required=True)
    p.add_argument("--dim", type=int, required=True)

    p = add("surrogate", _cmd_surrogate, help="commutator-algebra surrogate for a generator power")
    p.add_argument("--side", choices=("A", "B"), required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coeff", help="scalar coefficient (rational function of q)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    if command == "verify":
        command = f"verify {args.verify_command}"
    # the output is rendered whole, in the one mode it is printed in, before
    # any of it is printed, so an error while rendering prints nothing
    try:
        payload, render = args.handler(args)
        if args.json:
            out = expr.json_text({"command": command, "format_version": 1, "result": payload})
        else:
            out = "\n".join(render())
    except expr.ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    # domain errors are ArithmeticErrors (poles, zero divisors, overflow)
    # or ValueErrors (stuck words, bad q, sizes over a limit); a
    # RuntimeError, such as RecursionError, is not one
    except (ArithmeticError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(out + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
