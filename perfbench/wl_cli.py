"""``cli_requests``: a seeded mix of the CLI commands through in-process
``cli.run``.

Small inputs (degree <= 12, <= 3 parameters, cheap fixtures only) keep the
time in per-request overhead of ``cli``/``parser``/``covers``/
``invariants`` rather than in heavy arithmetic.  Every pass holds the 8
golden requests, a fixed number of seeded requests per command, and
deliberate exit-2/3/4 requests.

``catalog`` is drawn only in its exit-2 form: a successful ``catalog``
serialises every standard fixture, which would put the ~14 s ``a5_b``
build into this workload's set-up.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from fractions import Fraction

from harness import Request, first_of_each_kind
import oracle

GOLDEN_ARGV = {
    "invariants_s6": ["invariants", "--delta", "3", "--param", "a", "x^6 + a*x^3 + 1"],
    "invariants_s9": ["invariants", "--delta", "3", "--param", "a", "--param", "b",
                      "x^9 + a*x^6 + b*x^3 + 1"],
    "invariants_s12": ["invariants", "--delta", "3", "--param", "a", "--param", "b",
                       "--param", "c", "x^12 + a*x^9 + b*x^6 + c*x^3 + 1"],
    "genus_s6": ["genus", "--n", "3", "--param", "a", "x^6 + a*x^3 + 1"],
    "invariants_bridge": ["invariants", "--delta", "3", "x^6 + 5*I*sqrt(2)*x^3 + 1"],
    "reconstruct_16_8_2": ["reconstruct", "--delta", "1", "--u", "16", "--u", "8", "--u", "2"],
    "discriminant_s6": ["discriminant", "--param", "a", "x^6 + a*x^3 + 1"],
    "merge_shared": ["merge", "--delta", "1", "x^3 - 1", "x^3 - 1"],
}

FIXTURES = ("s4", "a4", "dihedral(2)", "dihedral(3)", "dihedral(4)", "dihedral(5)", "dihedral(6)",
            "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(5)", "elem_abelian(3,1,2)")


def _int(rng, lo=-9, hi=9, avoid=(0,)):
    while True:
        v = rng.randint(lo, hi)
        if v not in avoid:
            return v


def _lin(c: int) -> str:
    return f"(x - {c})" if c >= 0 else f"(x + {-c})"


def _poly(coeffs: dict[int, object]) -> str:
    """``{exponent: coefficient}`` as parser input, highest term first."""
    parts = []
    for e in sorted(coeffs, reverse=True):
        mono = "1" if e == 0 else ("x" if e == 1 else f"x^{e}")
        parts.append(f"({coeffs[e]})*{mono}")
    return " + ".join(parts)


def _report(out):
    code, text = out
    return code, json.loads(text)


def _expect_ok(check_result):
    """Wrap a result check: exit 0, ok report, then the command's own check."""
    def check(out):
        code, rep = _report(out)
        if code != 0 or not rep["ok"] or rep["exit"] != 0:
            return f"exit {code}, error {rep['error']}"
        return check_result(rep["result"])
    return check


def _expect_error(code_wanted: int, kind: str):
    def check(out):
        code, rep = _report(out)
        if code != code_wanted or rep["exit"] != code_wanted or rep["ok"]:
            return f"exit {code}, wanted {code_wanted}"
        if rep["error"]["kind"] != kind:
            return f"error kind {rep['error']['kind']}, wanted {kind}"
        return None
    return check


def _sym_equal(got_texts, want_exprs) -> str | None:
    if len(got_texts) != len(want_exprs):
        return f"{len(got_texts)} values, wanted {len(want_exprs)}"
    for i, (g, w) in enumerate(zip(got_texts, want_exprs)):
        if not oracle.same(oracle.parse(g), w):
            return f"value {i}: {g} != {w}"
    return None


class Deck:
    def __init__(self, run, root: pathlib.Path, rng: random.Random):
        self.run = run
        self.root = root
        self.rng = rng
        self.requests: list[Request] = []

    def add(self, kind: str, argv: list[str], check) -> None:
        argv = [str(a) for a in argv]
        run = self.run
        self.requests.append(
            Request(kind, " ".join(argv)[:120], lambda: run(argv), check, tuple(argv)))

    # -- the eight golden reports -----------------------------------------

    def golden(self) -> None:
        for name, argv in GOLDEN_ARGV.items():
            stored = (self.root / "tests" / "golden" / f"{name}.json").read_text()

            def check(out, stored=stored, name=name):
                code, text = out
                if text + "\n" != stored:
                    return f"report differs from golden {name}"
                if (code == 0) != json.loads(stored)["ok"]:
                    return f"exit {code} disagrees with golden {name}"
                return None

            self.add(argv[0], argv, check)

    # -- seeded requests, one method per command --------------------------

    def genus(self) -> None:
        rng = self.rng
        n = rng.randint(2, 6)
        roots = rng.sample(range(-9, 10), rng.randint(3, 12))
        d = len(roots)
        # tame Riemann-Hurwitz, squarefree f: every finite root ramifies
        # fully, infinity with index n / gcd(n, d)
        genus = (d * (n - 1) + n - math.gcd(n, d)) // 2 - n + 1

        def check(res):
            got = (res["genus"], res["n"], res["d"])
            return None if got == (genus, n, d) else f"(genus, n, d) = {got}, wanted {(genus, n, d)}"

        self.add("genus", ["genus", "--n", n, "*".join(_lin(c) for c in roots)], _expect_ok(check))

    def deltas(self) -> None:
        rng = self.rng
        k = rng.randint(1, 4)
        m = rng.randint(1, 12 // k)
        text = _poly({k * i: _int(rng) for i in range(m + 1)})
        want = [j for j in range(1, k + 1) if k % j == 0]
        self.add("deltas", ["deltas", text],
                 _expect_ok(lambda res: None if res["deltas"] == want else f"{res['deltas']} != {want}"))

    def invariants(self, r: int) -> None:
        """The s6/s9/s12 families x^(3r) + A x^(3r-3) + ... + 1, each
        coefficient a parameter or a seeded integer; closed forms from the
        acceptance criteria (u9 = [a^3 + b^3, 2ab, 2], ...)."""
        rng = self.rng
        names = ("a", "b", "c")[: r - 1]
        vals: list[object] = []
        params = []
        for name in names:
            if rng.random() < 0.5:
                vals.append(name)
                params.append(name)
            else:
                vals.append(_int(rng))
        coeffs = {3 * r: 1, 0: 1}
        for i, v in enumerate(vals, start=1):
            coeffs[3 * (r - i)] = v
        argv = ["invariants", "--delta", "3"]
        for p in params:
            argv += ["--param", p]
        argv.append(_poly(coeffs))

        def check(res):
            s = oracle.symbols()
            vs = [s[v] if isinstance(v, str) else v for v in vals]
            form = [1, *reversed(vs), 1]  # a_0 .. a_r of the delta-form
            if res["r"] != r or res["delta"] != 3:
                return f"r, delta = {res['r']}, {res['delta']}"
            return _sym_equal(res["u"], oracle.dihedral_invariants(form))

        self.add("invariants", argv, _expect_ok(check))

    def locus(self, symmetric: bool) -> None:
        rng = self.rng
        a = _int(rng)
        c = a if symmetric else _int(rng, avoid=(0, a, -a))
        argv = ["locus", "--delta", "3", "--n", "3", "--param", "b",
                _poly({12: 1, 9: a, 6: "b", 3: c, 0: 1})]
        # u_3^4 = 4 u_1^2 reads 16 a^4 c^4 = 4 (a^4 + c^4)^2, i.e. a^4 = c^4
        dihedral = a**4 == c**4

        def check(res):
            want = (False, dihedral, "plus" if dihedral else "none")
            got = (res["higher_cyclic"], res["dihedral"], res["component"])
            if got != want:
                return f"{got} != {want}"
            if dihedral and res.get("component_group") != "Z/3Z x| D_3":
                return f"component_group {res.get('component_group')}"
            b = oracle.symbols()["b"]
            return _sym_equal(res["invariants"], oracle.dihedral_invariants([1, c, b, a, 1]))

        self.add("locus", argv, _expect_ok(check))

    def classify(self, family: str) -> None:
        """Generic templates with a seeded parameter; the expected group is
        the structure-table entry for that family and cover order."""
        rng = self.rng
        if family == "s4":
            k = _int(rng, -30, 30, avoid=(0, 108))
            n = 4 * rng.randint(1, 3)
            fixture, text, group = "s4", f"(x^8+14*x^4+1)^3 - ({k})*(x^5-x)^4", f"C_{n} x S_4"
            params, counts = [str(k)], {"B0": 0, "B1": 0, "B2": 0}
        elif family == "dihedral":
            d = rng.randint(3, 6)
            k = _int(rng, -20, 20, avoid=(2, -2))
            n = d * rng.randint(1, 3)
            fixture, group = f"dihedral({d})", f"Z/{n}Z x| D_{d}"
            text = _poly({2 * d: 1, d: k, 0: 1})
            params, counts = [str(k)], {"B+": 0, "B-": 0, "Binf": 0}
        elif family == "cyclic":
            d = rng.randint(2, 5)
            k = _int(rng, -20, 20)
            n = d * rng.randint(1, 3)
            fixture, text = f"cyclic({d})", f"x^{d} - ({k})"
            group = f"Z/{n}Z with a cyclic reduced group C_{d}; no structure table applies"
            params, counts = [str(k)], {"B0": 0, "Binf": 0}
        elif family == "elem_abelian":
            k = rng.randint(1, 2)
            n = 2 * rng.choice((1, 2, 4))
            fixture, text = "elem_abelian(3,1,2)", f"(x^3 - x)^2 - {k}"
            group = f"((Z/3Z)^1 x| Z/2Z) x Z/{n}Z"
            params, counts = [str(k)], {"B0": 0, "Binf": 0}
        else:  # a4: the two 4-point orbits, B1 * B2 = x^8 + 14 x^4 + 1
            n = 2 * rng.randint(1, 3)
            fixture, text, group = "a4", "x^8 + 14*x^4 + 1", f"Z/{3 * n}Z x V_4"
            params, counts = None, {"B0": 0, "B1": 1, "B2": 1}

        def check(res):
            got = (res["full_group"], res["generic_parameters"], res["counts"], res["cofactor"])
            want = (group, params, counts, "1")
            return None if got == want else f"{got} != {want}"

        self.add("classify", ["classify", "--fixture", fixture, "--n", n, text], _expect_ok(check))

    def orbit(self, family: str) -> None:
        rng = self.rng
        d = rng.randint(2, 5)
        while True:
            c = Fraction(_int(rng, -6, 6), rng.randint(1, 4))
            if abs(c) != 1:
                break
        seed = oracle.fmt_rational(c)
        if family == "cyclic":
            # orbit {zeta^k c}: x^d - c^d
            fixture, coeffs, size = f"cyclic({d})", {d: 1, 0: -(c**d)}, d
        else:
            # orbit {zeta^k c, zeta^k / c}: x^2d - (c^d + c^-d) x^d + 1
            fixture, coeffs, size = f"dihedral({d})", {2 * d: 1, d: -(c**d + c**-d), 0: 1}, 2 * d

        def check(res):
            if (res["orbit_size"], res["includes_infinity"]) != (size, False):
                return f"orbit size {res['orbit_size']}"
            want = oracle.parse(_poly({e: oracle.fmt_rational(q) for e, q in coeffs.items()}))
            return _sym_equal([res["orbit_polynomial"]], [want])

        self.add("orbit", ["orbit", "--fixture", fixture, f"--seed={seed}"], _expect_ok(check))

    def transport(self) -> None:
        rng = self.rng
        while True:
            a, b, c, d = (_int(rng, -5, 5, avoid=()) for _ in range(4))
            if a * d - b * c:
                break
        deg = rng.randint(2, 4)
        coeffs = {deg: 1}
        for e in range(deg):
            coeffs[e] = rng.choice(("a", _int(rng)))
        coeffs[0] = _int(rng)  # the parameter appears only in the middle
        text = _poly(coeffs)

        def check(res):
            want = oracle.transport(text, a, b, c, d)
            x = oracle.symbols()["x"]
            drop = deg - oracle.sp().Poly(want, x).degree()
            if res["degree_drop"] != drop:
                return f"degree_drop {res['degree_drop']}, wanted {drop}"
            return _sym_equal([res["polynomial"]], [want])

        self.add("transport", ["transport", "--entry", a, b, c, d, "--param", "a", text],
                 _expect_ok(check))

    def _normal_form(self, deg: int) -> str:
        coeffs = {deg: 1, 0: 1}
        for e in range(1, deg):
            coeffs[e] = _int(self.rng, -6, 6, avoid=())
        return _poly(coeffs)

    def merge(self, shared: bool) -> None:
        pa = self._normal_form(self.rng.randint(2, 4))
        if shared:
            self.add("merge", ["merge", "--delta", "1", pa, pa],
                     _expect_error(3, "SharedBranchPointError"))
            return
        pb = self._normal_form(self.rng.randint(2, 4))

        def check(out):
            code, rep = _report(out)
            if oracle.resultant(pa, pb) == 0:  # a drawn pair may share a root
                return _expect_error(3, "SharedBranchPointError")(out)
            if code != 0:
                return f"exit {code}, error {rep['error']}"
            return _sym_equal([rep["result"]["polynomial"]],
                              [oracle.sp().expand(oracle.parse(pa) * oracle.parse(pb))])

        self.add("merge", ["merge", "--delta", "1", pa, pb], check)

    def reconstruct(self, blow_up: bool) -> None:
        rng = self.rng
        r = rng.randint(3, 5)
        if blow_up:
            argv = ["reconstruct", "--delta", "1", "--u=0"] + \
                   [f"--u={_int(rng)}" for _ in range(r - 2)] + ["--u=2"]
            self.add("reconstruct", argv, _expect_error(3, "BlowUpNeededError"))
            return
        half = [Fraction(_int(rng), rng.randint(1, 4)) for _ in range(r // 2)]
        form = [Fraction(1)] + [half[min(i, r - i) - 1] for i in range(1, r)] + [Fraction(1)]
        u = oracle.dihedral_invariants(form)
        argv = ["reconstruct", "--delta", "1"]
        argv += [f"--u={oracle.fmt_rational(v)}" for v in u]
        modulus = f"t^{r} = {oracle.fmt_rational(u[0] / 2)}"

        def check(res):
            got = (res["modulus"], res["roundtrip"], len(res["coefficients"]))
            want = (modulus, True, r + 1)
            return None if got == want else f"{got} != {want}"

        self.add("reconstruct", argv, _expect_ok(check))

    def discriminant(self, r: int) -> None:
        rng = self.rng
        names = ("a", "b", "c")[: r - 1]
        coeffs = {3 * r: 1, 0: _int(rng, -5, 5)}
        for i, name in enumerate(names, start=1):
            coeffs[3 * (r - i)] = name
        if r == 2 and rng.random() < 0.5:  # break the x^3 symmetry with one more term
            coeffs[1] = _int(rng, -5, 5)
        text = _poly(coeffs)
        argv = ["discriminant"] + sum((["--param", n] for n in names), []) + [text]
        self.add("discriminant", argv,
                 _expect_ok(lambda res: _sym_equal([res["discriminant"]], [oracle.discriminant(text)])))

    def resultant(self, deg_a: int, deg_b: int) -> None:
        rng = self.rng

        def poly(deg):
            coeffs = {deg: 1}
            for e in rng.sample(range(deg), rng.randint(1, deg)):
                coeffs[e] = rng.choice(("a", "b", _int(rng)))
            return _poly(coeffs)

        pa, pb = poly(deg_a), poly(deg_b)
        argv = ["resultant", "--param", "a", "--param", "b", pa, pb]
        self.add("resultant", argv,
                 _expect_ok(lambda res: _sym_equal([res["resultant"]], [oracle.resultant(pa, pb)])))

    def deliberate_errors(self) -> None:
        rng = self.rng
        self.add("catalog", ["catalog", "--bogus"], _expect_error(2, "usage"))
        self.add("genus", ["genus", self._normal_form(3)], _expect_error(2, "usage"))
        self.add("orbit", ["orbit", "--fixture", f"nonsense({rng.randint(1, 9)})", "--seed", "1"],
                 _expect_error(2, "KeyError"))
        bad = rng.choice(("x^^2", "x^3 + * 2", "(x + 1", "x^2 + 3)"))
        self.add("deltas", ["deltas", bad], _expect_error(4, "parse"))


def build(seed: int, root: pathlib.Path):
    """Build the deck and warm the fixtures it uses."""
    from superelliptic import catalog, cli

    for name in FIXTURES:
        catalog.fixture_by_name(name).elements()
    deck = Deck(cli.run, root, random.Random(seed))
    deck.golden()
    for _ in range(2):
        deck.genus()
        deck.deltas()
        deck.transport()
        deck.merge(shared=False)
    deck.resultant(3, 5)
    deck.resultant(4, 4)
    for r in (2, 3, 4, 4):
        deck.invariants(r)
    deck.locus(True)
    deck.locus(False)
    # s4 classify requests (~25 ms each) make up the top decile of every
    # deck, so that latency_p90 falls among requests of one cost
    for family in ("s4",) * 6 + ("dihedral", "a4", "cyclic", "elem_abelian"):
        deck.classify(family)
    deck.orbit("cyclic")
    deck.orbit("dihedral")
    deck.merge(shared=True)
    deck.reconstruct(False)
    deck.reconstruct(False)
    deck.reconstruct(True)
    for r in (2, 3, 4):
        deck.discriminant(r)
    deck.deliberate_errors()
    requests = deck.requests
    warm = first_of_each_kind(requests)
    deck.rng.shuffle(requests)
    return requests, warm
