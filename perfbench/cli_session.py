"""Workload ``cli-session``: seeded ``python -m qheis.cli`` processes, one
at a time.  The deck covers every subcommand, text and ``--json`` output,
``normalize "(A+B)^n"`` for n <= 6 (the free-expansion path), and the
documented errors: exit 1 for a stuck word under the printed rules and for
q outside (0, 1), exit 2 for a syntax error.

Start-up, parsing and rendering dominate here and nowhere else.

Reference answers are computed in the benchmark's own process by routes
the command does not take: products through ``multiply_cascade``,
structural facts (adjoint, decomposition, Lie and compactness tests, the
Laurent image, surrogates) from the term lists, numbers from the float
realization and closed forms.  Every JSON document is validated against
``qheis.schemas.OUTPUT_SCHEMA``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema

from qheis import algebra, expr, lie
from qheis.algebra import BasisWord, Element
from qheis.ratfun import RF_ONE, RF_ONE_MINUS_Q, QPolynomial, RatFun
from qheis.schemas import OUTPUT_SCHEMA

import products
import spectral_lab
from realize import Realization, coeff_value, qint
from taskdeck import Task, WrongOutput, expect

Q_TEXT = "1/2"
Q = Fraction(1, 2)
REL = 1e-10
CHILD_TIMEOUT_S = 120
RF_Q = RatFun.q_power(1)
#: coefficient spellings accepted by the expression grammar, with values
COEFF_TEXTS = [
    ("1", RF_ONE),
    ("2", RatFun.from_fraction(2)),
    ("1/2", RatFun.from_fraction(Fraction(1, 2))),
    ("q", RF_Q),
    ("3*q^2", RatFun.q_power(2) * 3),
    ("1/(1-q)", RF_ONE / RF_ONE_MINUS_Q),
]
LETTER_SHAPE = {"B": (1, 0, 0), "C": (0, 1, 0), "A": (0, 0, 1)}
#: inputs that must fail with exit code 2
SYNTAX_ERRORS = ["A @ B", "A*(B", "B^", "A**B", "C^-1", "2*/A", "ad(A", "[A,B", "A+"]
VALIDATOR = jsonschema.Draft202012Validator(OUTPUT_SCHEMA)
#: JSON sixth powers, the costliest command, per deck of 22 + SIXTH_POWERS:
#: about a fifth of the deck, so that the 90th percentile falls in the
#: middle of this one kind of task; four decks give the 100 samples a run
#: needs
SIXTH_POWERS = 6


# -- reading command output ------------------------------------------------------


def ratfun_of(doc) -> RatFun:
    return RatFun(QPolynomial([Fraction(v) for v in doc["num"]]), QPolynomial([Fraction(v) for v in doc["den"]]))


def element_of(doc) -> Element:
    return Element({BasisWord(t["b"], t["k"], t["a"]): ratfun_of(t["coeff"]) for t in doc["terms"]})


def monomial(letter: str, e: int) -> Element:
    b, k, a = LETTER_SHAPE[letter]
    return Element.monomial(b * e, k * e, a * e)


def cascade(factors) -> Element:
    """Product of the factors, folded right to left with the closed-form
    generator actions."""
    acc = algebra.I
    for f in reversed(factors):
        acc = algebra.multiply_cascade(f, acc)
    return acc


class Outcome:
    """A finished command: exit code and both streams."""

    def __init__(self, proc: subprocess.CompletedProcess):
        self.code = proc.returncode
        self.out = proc.stdout
        self.err = proc.stderr

    def document(self, command: str) -> dict:
        """The validated JSON document of a successful --json command."""
        try:
            doc = json.loads(self.out)
        except json.JSONDecodeError as e:
            raise WrongOutput(f"stdout is not one JSON document: {e}") from e
        try:
            VALIDATOR.validate(doc)
        except jsonschema.ValidationError as e:
            raise WrongOutput(f"document violates OUTPUT_SCHEMA: {e.message}") from e
        expect(doc["command"] == command, f"document command {doc['command']!r}, expected {command!r}")
        return doc["result"]

    def lines(self) -> list:
        return self.out.strip().splitlines()


# -- the workload -----------------------------------------------------------------


class Workload:
    def __init__(self, root: str, env: dict):
        self.root = root
        self.env = env
        #: set by the runner for a traced task: the child runs under the
        #: benchmark's launcher and writes its layer trace to this file
        self.trace_file = None
        self._power_refs = {}
        self._deck = 0
        self._powers = None

    def command_line(self, argv) -> list:
        if self.trace_file is None:
            return [sys.executable, "-m", "qheis.cli", *argv]
        return [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"), self.trace_file, *argv]

    def task(self, kind: str, argv: list, code: int, check) -> Task:
        """A command expected to exit with ``code``; ``check`` gets the
        Outcome of a successful command."""

        def run():
            proc = subprocess.run(
                self.command_line(argv),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.root,
                timeout=CHILD_TIMEOUT_S,
            )
            return Outcome(proc)

        def verify(o: Outcome):
            expect(o.code == code, f"exit code {o.code}, expected {code}; stderr: {o.err.strip()[:200]}")
            if code == 0:
                expect(o.err == "", f"unexpected stderr: {o.err.strip()[:200]}")
            else:
                expect(o.out == "", "an error printed to stdout")
            check(o)

        return Task(kind, {"argv": " ".join(argv)}, run, verify)

    # each builder returns one task with seeded arguments

    def element_task(self, kind, argv, ref: Element, json_mode: bool) -> Task:
        """Commands whose result is one element."""

        def check(o):
            if json_mode:
                res = o.document(argv[0])
                expect(element_of(res["element"]) == ref, f"element differs from the reference {ref}")
                expect(res["text"] == expr.element_text(ref), "text field differs from the reference")
            else:
                expect(o.lines() == [expr.element_text(ref)], f"output {o.out.strip()[:200]!r}")

        return self.task(kind, argv + (["--json"] if json_mode else []), 0, check)

    def normalize_expr(self, rng, json_mode):
        parts = []
        ref = Element.zero()
        for i in range(rng.randint(1, 3)):
            ctext, cval = rng.choice(COEFF_TEXTS)
            factors = [(rng.choice("ABC"), rng.randint(1, 2)) for _ in range(rng.randint(2, 4))]
            sign = rng.choice((1, -1)) if i else 1
            parts.append(("" if i == 0 else (" + " if sign > 0 else " - ")) + ctext + "*" + "*".join(f"{l}^{e}" for l, e in factors))
            ref = ref + cascade([monomial(l, e) for l, e in factors]).scale(cval * sign)
        return self.element_task("normalize", ["normalize", "".join(parts)], ref, json_mode)

    def normalize_power(self, rng, json_mode):
        n = next(self._powers)
        ref = self._power_refs.get(n)
        if ref is None:
            ref = self._power_refs[n] = cascade([algebra.A + algebra.B] * n)
        return self.element_task("normalize-power", ["normalize", f"(A+B)^{n}"], ref, json_mode)

    def bracket(self, rng, json_mode):
        xs = [[(rng.choice("ABC"), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))] for _ in range(2)]
        x, y = (cascade([monomial(l, e) for l, e in f]) for f in xs)
        ref = algebra.multiply_cascade(x, y) - algebra.multiply_cascade(y, x)
        texts = ["*".join(f"{l}^{e}" for l, e in f) for f in xs]
        return self.element_task("bracket", ["bracket", *texts], ref, json_mode)

    def adjoint(self, rng, json_mode):
        x = products.random_element(rng, rng.randint(1, 3), 3, rng.randrange(8 * 3))
        ref = Element({BasisWord(bw.a, bw.k, bw.b): c for bw, c in x.terms.items()})
        return self.element_task("adjoint", ["adjoint", expr.element_text(x)], ref, json_mode)

    def decompose(self, rng, json_mode):
        x = products.random_element(rng, rng.randint(2, 4), 2, rng.randrange(8 * 2))
        lin_a, lin_b = x.coeff((0, 0, 1)), x.coeff((1, 0, 0))
        derived = Element({bw: c for bw, c in x.terms.items() if bw.k >= 1})
        rest = Element({bw: c for bw, c in x.terms.items() if bw.k == 0 and bw.degree != 1})

        def check(o):
            if json_mode:
                res = o.document("decompose")
                expect(ratfun_of(res["linear_A"]) == lin_a and ratfun_of(res["linear_B"]) == lin_b, "linear part")
                expect(element_of(res["derived"]) == derived, "derived part")
                expect(element_of(res["e_part"]) == rest, "remainder part")
            else:
                want = [
                    f"coefficient of A: {lin_a}",
                    f"coefficient of B: {lin_b}",
                    f"derived part:     {expr.element_text(derived)}",
                    f"remainder part:   {expr.element_text(rest)}",
                ]
                expect(o.lines() == want, f"output {o.out.strip()[:200]!r}")

        argv = ["decompose", expr.element_text(x)] + (["--json"] if json_mode else [])
        return self.task("decompose", argv, 0, check)

    def predicate(self, rng, json_mode):
        x = products.random_element(rng, rng.randint(1, 3), 2, rng.randrange(8 * 2))
        if rng.random() < 0.5:
            command, value = "is-lie", all(bw.k >= 1 or bw.degree == 1 for bw in x.terms)
        else:
            command, value = "is-compact", all(bw.k >= 1 for bw in x.terms)

        def check(o):
            if json_mode:
                expect(o.document(command)["value"] is value, f"{command} should be {value}")
            else:
                expect(o.lines() == ["true" if value else "false"], f"{command} should be {value}")

        argv = [command, expr.element_text(x)] + (["--json"] if json_mode else [])
        return self.task(command, argv, 0, check)

    def calkin(self, rng, json_mode):
        x = products.random_element(rng, rng.randint(1, 3), 2, rng.randrange(8 * 2))
        ref = {}
        for bw, c in x.terms.items():
            if bw.k == 0:
                power = bw.b - bw.a
                ref[power] = ref.get(power, RatFun.zero()) + c / RF_ONE_MINUS_Q**bw.a
        ref = {p: c for p, c in ref.items() if not c.is_zero()}

        def check(o):
            if json_mode:
                res = o.document("calkin")
                got = {t["power"]: ratfun_of(t["coeff"]) for t in res["terms"]}
                expect(got == ref, f"Laurent image {res['text']}")
            else:
                expect(o.lines() == [str(lie.LaurentPoly(ref))], f"output {o.out.strip()[:200]!r}")

        argv = ["calkin", expr.element_text(x)] + (["--json"] if json_mode else [])
        return self.task("calkin", argv, 0, check)

    def apply(self, rng, json_mode):
        x = products.random_element(rng, rng.randint(1, 3), 3, rng.randrange(8 * 3))
        n = rng.randint(0, 6)
        want = Realization(Q).column(x, n)
        numeric = not json_mode or rng.random() < 0.5
        argv = ["apply", expr.element_text(x), "--n", str(n)] + (["--q", Q_TEXT] if numeric else [])

        def close_to_want(got: dict, what: str):
            scale = Realization(Q).apply(x, {n: 1.0}, absolute=True)
            for i in set(got) | set(want):
                g, w = got.get(i, 0.0), want.get(i, 0.0)
                expect(abs(g - w) <= REL * max(scale.get(i, 0.0), 1e-300), f"{what} entry {i}: {g!r}, reference {w!r}")

        def check(o):
            if not json_mode:
                got = {} if o.lines() == ["0"] else {int(i): float(v) for i, v in (ln.split(": ") for ln in o.lines())}
                close_to_want(got, "numeric")
            elif numeric:
                got = {e["index"]: e["value"] for e in o.document("apply")["entries"]}
                close_to_want(got, "numeric")
            else:
                got = {}
                for e in o.document("apply")["entries"]:
                    total = 0.0
                    for s in e["scalars"]:
                        rad = math.prod(qint(m, float(Q)) for m in s["radicand"])
                        total += coeff_value(ratfun_of(s["coeff"]), Q) * math.sqrt(rad)
                    got[e["target"]] = total
                close_to_want(got, "exact")

        return self.task("apply", argv + (["--json"] if json_mode else []), 0, check)

    def verify_identities(self, rng, json_mode):
        kmax, lmax = ((1, 1), (1, 2), (2, 1), (2, 2))[self._deck % 4]
        count = 2 * (kmax + 1) * lmax + 2 * (kmax + 1)

        def check(o):
            if not json_mode:
                lines = o.lines()
                expect(len(lines) == count, f"{len(lines)} report lines, expected {count}")
                expect(all(ln.endswith(": ok") for ln in lines if "bracket-build" in ln), "a rebuild line is not ok")
                return
            reports = o.document("verify identities")["reports"]
            expect(len(reports) == count, f"{len(reports)} reports, expected {count}")
            for r in reports:
                lhs, rhs, diff = (element_of(r[key]) for key in ("lhs", "rhs", "difference"))
                expect(diff == lhs - rhs, f"{r['identity']} {r['params']}: difference is not lhs - rhs")
                expect(r["verdict"] == diff.is_zero(), f"{r['identity']}: verdict disagrees with the difference")
                k, l = r["params"]["k"], r["params"].get("l")
                if r["identity"] == "ck-al-bracket-build":
                    expect(lhs == Element.monomial(0, k + 1, l), f"C^{k + 1} A^{l} rebuild")
                if r["identity"] == "bl-ck-bracket-build":
                    expect(lhs == Element.monomial(l, k + 1, 0), f"B^{l} C^{k + 1} rebuild")

        argv = ["verify", "identities", "--kmax", str(kmax), "--lmax", str(lmax)]
        return self.task("verify-identities", argv + (["--json"] if json_mode else []), 0, check)

    def verify_fredholm(self, rng, json_mode):
        refs = {
            "fredholm-left": algebra.I - algebra.C,
            "fredholm-right": algebra.I - algebra.C.scale(RF_Q),
        }
        lhs_refs = {
            "fredholm-left": algebra.multiply_cascade(algebra.B, algebra.A).scale(RF_ONE_MINUS_Q),
            "fredholm-right": algebra.multiply_cascade(algebra.A, algebra.B).scale(RF_ONE_MINUS_Q),
        }

        def check(o):
            if not json_mode:
                expect(o.lines() == ["fredholm-left: ok", "fredholm-right: ok"], f"output {o.out.strip()!r}")
                return
            reports = o.document("verify fredholm")["reports"]
            expect([r["identity"] for r in reports] == list(refs), "report names")
            for r in reports:
                expect(element_of(r["lhs"]) == lhs_refs[r["identity"]], f"{r['identity']} lhs")
                expect(element_of(r["rhs"]) == refs[r["identity"]], f"{r['identity']} rhs")

        return self.task("verify-fredholm", ["verify", "fredholm"] + (["--json"] if json_mode else []), 0, check)

    def verify_confluence(self, rng, json_mode):
        printed = rng.random() < 0.5
        rules, maxlen = ("printed", 3) if printed else ("completed", 3 + self._deck % 3)
        stuck = ["BAC", "CBA"] if printed else []

        def check(o):
            if json_mode:
                res = o.document("verify confluence")
                expect(res["unresolvable"] == stuck, f"unresolvable words {res['unresolvable']}")
                expect(res["confluent"] is (not stuck), "confluence flag")
                expect(res["rules"] == rules and res["max_len"] == maxlen, "rule set or length")
            else:
                expect(o.lines()[0].endswith(f"{len(stuck)} unresolvable"), f"summary {o.lines()[0]!r}")
                for w in stuck:
                    expect(f"  {w} (overlap): UNRESOLVABLE" in o.lines(), f"{w} not reported unresolvable")

        argv = ["verify", "confluence", "--rules", rules, "--maxlen", str(maxlen)]
        return self.task("verify-confluence", argv + (["--json"] if json_mode else []), 0, check)

    def spectrum(self, rng, json_mode):
        op = rng.choice("ABC")
        k = rng.randint(1, 3) if op == "C" else 1
        with_q = rng.random() < 0.5
        facts = {
            "B": ("empty", "circle", "open-disk"),
            "A": ("open-disk", "closed-disk", "empty"),
            "C": ("eigenvalue-list", "closure-of-eigenvalues", "eigenvalue-list"),
        }[op]
        radius_sq = RF_ONE if op == "C" else RF_ONE / RF_ONE_MINUS_Q

        def check(o):
            if not json_mode:
                lines = o.lines()
                expect(lines[0].split() == ["operator:", op if op != "C" else f"C^{k}"], "operator line")
                expect([ln.split()[-1] for ln in lines[2:5]] == list(facts), "spectrum lines")
                return
            res = o.document("spectrum")
            got = (res["point_spectrum"], res["approx_point_spectrum"], res["compression_spectrum"])
            expect(got == facts, f"spectrum {got}")
            expect(ratfun_of(res["radius_sq"]) == radius_sq, "squared radius")
            if with_q and op == "C":
                want = [0.5 ** (k * n) for n in range(len(res["eigenvalues"]))]
                expect(res["eigenvalues"] == want, "eigenvalues")
            if with_q:
                want = 1.0 if op == "C" else 1 / math.sqrt(1 - float(Q))
                expect(spectral_lab.rel_close(res["radius"], want), f"radius {res['radius']!r}")

        argv = ["spectrum", "--op", op] + (["--k", str(k)] if op == "C" else []) + (["--q", Q_TEXT] if with_q else [])
        return self.task("spectrum", argv + (["--json"] if json_mode else []), 0, check)

    def norm(self, rng, json_mode):
        shapes = spectral_lab.LIGHT + spectral_lab.HEAVY
        bw = BasisWord(*shapes[self._deck % len(shapes)])
        dim = 20 + 15 * (self._deck % 5) + rng.randint(0, 4)
        want = spectral_lab.monomial_norm(bw, RF_ONE, dim, Realization(Q))

        def check(o):
            got = o.document("norm")["value"] if json_mode else float(o.out)
            expect(spectral_lab.rel_close(got, want), f"norm {got!r}, largest weight {want!r}")

        argv = ["norm", expr.word_text(bw), "--q", Q_TEXT, "--dim", str(dim)]
        return self.task("norm", argv + (["--json"] if json_mode else []), 0, check)

    def estimate(self, rng, json_mode):
        command = rng.choice(("radius", "lower-index"))
        kmax = rng.randint(5, 40)
        dim = rng.randint(kmax + 50, 300)
        if command == "radius":
            want = spectral_lab.radius_closed_form(kmax, dim)
        else:
            want = spectral_lab.lower_closed_form(kmax)

        def check(o):
            got = o.document(command)["estimates"] if json_mode else [float(o.out)]
            tail = want if json_mode else want[-1:]
            expect(len(got) == len(tail), f"{len(got)} estimates")
            expect(all(spectral_lab.rel_close(g, w) for g, w in zip(got, tail)), f"{command} estimates differ")

        argv = [command, "--q", Q_TEXT, "--kmax", str(kmax), "--dim", str(dim)]
        return self.task(command, argv + (["--json"] if json_mode else []), 0, check)

    def coherent(self, rng, json_mode):
        re_, im = round(rng.uniform(-0.9, 0.9), 3), round(rng.uniform(-0.9, 0.9), 3)
        dim = rng.randint(100, 300)
        residual = spectral_lab.coherent_residual(complex(re_, im), dim)

        def check(o):
            if not json_mode:
                line = o.lines()[0]
                expect(line.startswith("residual: "), f"output {line!r}")
                expect(spectral_lab.residual_close(float(line[10:]), residual), f"{line}, closed form {residual!r}")
                return
            res = o.document("coherent")
            expect(spectral_lab.residual_close(res["residual"], residual), f"residual {res['residual']!r}, closed form {residual!r}")
            expect(res["outside_disk"] is False, "eigenvalue flagged outside the disk")
            c, want = complex(re_, im), 1 + 0j
            for e in res["vector"][:10]:
                got = complex(e["re"], e["im"])
                expect(abs(got - want) <= REL * abs(want), f"vector entry {e['index']}")
                want = want * c / math.sqrt(qint(e["index"] + 1, float(Q)))

        # one token, so that a negative real part is not read as an option
        argv = ["coherent", f"--c={re_},{im}", "--q", Q_TEXT, "--dim", str(dim)]
        return self.task("coherent", argv + (["--json"] if json_mode else []), 0, check)

    def surrogate(self, rng, json_mode):
        side, l, n, k = rng.choice("AB"), rng.randint(2, 4), rng.randint(0, 6), rng.randint(1, 3)
        ctext, c = rng.choice(COEFF_TEXTS)
        if side == "B":
            ref = Element.monomial(l, k, 0, c * RatFun.q_power(-k * n))
        else:
            ref = Element.monomial(0, k, l, c * RatFun.q_power(k * (l - n)))

        def check(o):
            if json_mode:
                res = o.document("surrogate")
                expect(element_of(res["element"]) == ref and res["residual_zero"] is True, "surrogate")
            else:
                expect(o.lines() == [expr.element_text(ref), f"residual on basis vector {n}: 0"], "surrogate output")

        argv = ["surrogate", "--side", side, "--l", str(l), "--n", str(n), "--k", str(k), "--coeff", ctext]
        return self.task("surrogate", argv + (["--json"] if json_mode else []), 0, check)

    def domain_error(self, rng, json_mode):
        """Exit 1: a stuck word under the printed rules, or q outside (0, 1)."""
        if rng.random() < 0.5:
            j = rng.randint(1, 3)
            word = "B" + "C" * j + "A"
            argv = ["normalize", "B*" + "C*" * j + "A", "--rules", "printed"]

            def check(o):
                expect(f"non-basis words: {word}" in o.err, f"stderr {o.err.strip()!r}")

        else:
            argv = ["norm", "B", "--q", rng.choice(("3/2", "0", "1", "7/5")), "--dim", "10"]

            def check(o):
                expect("q must lie strictly between 0 and 1" in o.err, f"stderr {o.err.strip()!r}")

        return self.task("exit-1", argv + (["--json"] if json_mode else []), 1, check)

    def syntax_error(self, rng, json_mode):
        command = rng.choice(("normalize", "is-lie", "decompose", "calkin"))

        def check(o):
            expect(o.err.startswith("syntax error: ") and "at column " in o.err, f"stderr {o.err.strip()!r}")

        argv = [command, rng.choice(SYNTAX_ERRORS)] + (["--json"] if json_mode else [])
        return self.task("exit-2", argv, 2, check)

    def deck(self, rng, index: int) -> list:
        """The costly arguments (the power exponents, the identity-suite and
        confluence sizes, the norm's shape and dimension) follow the deck
        number, not the seed, so runs of the same length hold the same
        costly commands; the seed draws everything else."""
        self._deck = index
        self._powers = iter((2 + self._deck % 4,) + (6,) * SIXTH_POWERS)
        builders = [
            self.normalize_expr,
            self.normalize_expr,
            self.normalize_power,
            self.bracket,
            self.adjoint,
            self.decompose,
            self.predicate,
            self.predicate,
            self.calkin,
            self.apply,
            self.apply,
            self.verify_identities,
            self.verify_fredholm,
            self.verify_confluence,
            self.spectrum,
            self.spectrum,
            self.norm,
            self.estimate,
            self.coherent,
            self.surrogate,
            self.domain_error,
            self.syntax_error,
        ]
        # text and JSON output alternate through the deck, from a seeded start
        start = rng.randrange(2)
        tasks = [build(rng, (i + start) % 2 == 0) for i, build in enumerate(builders)]
        return tasks + [self.normalize_power(rng, True) for _ in range(SIXTH_POWERS)]
