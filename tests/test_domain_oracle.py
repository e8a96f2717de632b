"""The domain a structure states, against sympy's factorization.

E and Lambda of a contact structure are the inverse of its bordered matrix
[[0, theta], [-theta^T, d theta + omega]], up to sign, so the denominator of
each component divides the matrix's determinant, the square of its Pfaffian,
and every irreducible factor of a denominator divides the numerator of the
contact volume.  Where the volume is nonzero, E and Lambda are therefore
defined: the domain that ``contact`` states lies inside the one the solution
states.  And that stated domain must be exactly "every irreducible factor
of a denominator is nonzero", nothing more and nothing less, however E and
Lambda were found.

Poly-exp polynomials go to sympy with each exp part taken as a unit: with D
the common denominator of the exp coefficients, exp(L) becomes the monomial
u0^(D L0) u1^(D L1) ... in fresh symbols, times a monomial in the u that
clears negative powers.  A factor that is a monomial in the u alone is a
unit and is dropped.
"""

import math
from importlib import resources
from pathlib import Path

import sympy

from test_groupoid import polar_bases, seeded_darboux
from twistcheck import scenario
from twistcheck.contact import TwistedContact
from twistcheck.expr import Expr, parse
from twistcheck.groupoid import GroupoidModel, pair_groupoid
from twistcheck.jacobi import TwistedJacobi, check_twisted_jacobi

DOCUMENTS = [resources.files("twistcheck") / "scenarios" / f"{n}.json"
             for n in ("std-r3", "twisted-r3")]
DOCUMENTS += sorted((Path(__file__).parent / "data").glob("*-r3.json"))


class Ring:
    """sympy symbols for a chart's coordinates and its exp parts."""

    def __init__(self, chart, polys):
        self.xs = sympy.symbols(chart.coords)
        self.us = sympy.symbols(f"u0:{chart.dim + 1}")
        self.scale = math.lcm(*(sympy.Rational(str(a)).q
                                for p in polys for _, exps in p for a in exps))

    def poly(self, p: dict) -> sympy.Poly:
        """The poly-exp polynomial ``p``, times a unit, as a sympy Poly."""
        shifts = [min(exps[i] for _, exps in p) for i in range(len(self.us))]
        out = 0
        for (mon, exps), c in p.items():
            term = sympy.Rational(str(c))
            for x, k in zip(self.xs, mon):
                term *= x ** k
            for u, a, a0 in zip(self.us, exps, shifts):
                term *= u ** int((sympy.Rational(str(a)) - sympy.Rational(str(a0))) * self.scale)
            out += term
        return sympy.Poly(out, *self.xs, *self.us)

    def factors(self, p: dict) -> set:
        """The irreducible non-unit factors of ``p``, each made monic."""
        _, fs = self.poly(p).factor_list()
        return {f.monic().as_expr() for f, _ in fs
                if not (len(f.terms()) == 1 and not any(f.degree(x) for x in self.xs))}


def check_domain(values: list[Expr], domain: list[str], volume=None) -> None:
    dens = [v.den for v in values if v.has_denominator]
    if not dens:
        assert domain == []
        return
    chart = next(v.chart for v in values if v.has_denominator)
    # each stated condition "p != 0", read back as a polynomial
    stated = [parse(c.removesuffix(" != 0"), chart).num for c in domain]
    ring = Ring(chart, dens + stated + ([] if volume is None else [volume.num]))
    want = set().union(*map(ring.factors, dens))
    assert set().union(*map(ring.factors, stated)) == want, domain
    if volume is not None:
        vol = ring.poly(volume.num)
        for f in want:
            assert vol.rem(sympy.Poly(f, *ring.xs, *ring.us)).is_zero, (f, volume)


def contact_cases():
    """(name, contact structure) for every contact structure and pair chart
    of the documents, and for two seeded pair-r5 style bases and the polar
    bases with their pair charts, proposed and eliminated."""
    for path in DOCUMENTS:
        sc = scenario.load(str(path))
        for name in sc.structures:
            obj = scenario._resolve(sc, name, "structures")
            if isinstance(obj, TwistedContact):
                yield f"{path.name}:{name}", obj
            elif isinstance(obj, GroupoidModel):
                yield f"{path.name}:{name}", obj.contact
    bases = {"r5-seed-1": seeded_darboux(1, 2), "r5-seed-2": seeded_darboux(2, 2),
             **polar_bases()}
    for name, c0 in bases.items():
        g = pair_groupoid(c0)
        yield name, c0
        yield f"{name}:pair", g.contact
        yield f"{name}:eliminated pair", TwistedContact(g.total, g.theta, g.omega)


def test_every_denominator_factor_divides_the_contact_volume():
    names = []
    for name, c in contact_cases():
        s = c.solution
        values = [*s.e.comps.values(), *s.lam.comps.values()]
        check_domain(values, s.domain, c.volume.component(*range(c.chart.dim)))
        names.append(name)
    assert len(names) == 18, names


def test_a_twisted_jacobi_structure_states_its_denominator_factors():
    seen = 0
    for path in DOCUMENTS:
        sc = scenario.load(str(path))
        for name in sc.structures:
            j = scenario._resolve(sc, name, "structures")
            if isinstance(j, TwistedJacobi):
                # the one domain note of the report, "... defined where c1, c2"
                notes = [n for n in check_twisted_jacobi(j).notes if " defined where " in n]
                assert len(notes) <= 1, notes
                domain = [c for n in notes for c in n.split(" defined where ")[1].split(", ")]
                values = [*j.lam.comps.values(), *j.e.comps.values(), *j.omega.comps.values()]
                check_domain(values, domain)
                seen += 1
    assert seen == 4
