"""Seeded inputs for the verdict benchmark, each with its known answer.

A workload round is a list of ``Job``s.  A job is one scenario document (the
text a user would hand to ``twistcheck check``) plus the PASS/FAIL answer
every check in it must get.  The answers are fixed by construction, from the
mathematics of each family, never by running twistcheck.

Only the generated workloads use the seed; ``corpus-r3`` is the bundled
scenarios as shipped.  Family counts and shapes are fixed per workload and the
seed draws only coefficients, coordinates and order, so every seed asks for
the same kind and amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "twistcheck" / "scenarios"

WORKLOADS = ("corpus-r3", "pair-r5", "batch-r3")

PAIR_CHECKS_ON_BASE = ("contact", "jacobi_from_contact", "poissonization")
PAIR_CHECKS_ON_GROUPOID = (
    "groupoid_axioms", "multiplicativity", "groupoid_properties", "induced_base",
    "suspension", "base_coincidence", "algebroid_morphism",
)

# batch-r3 composition per round: (family, jobs)
BATCH_FAMILIES = (("poly-twist", 44), ("conformal", 20), ("exact-theta", 24), ("e-tilt", 24))
E_TILT_EPSILONS = (Fraction(1), Fraction(1, 10**3), Fraction(1, 10**12))

# Wrong verdicts known in twistcheck 1.0.0.  They are counted and reported
# like any other mismatch; they only keep ``correct`` true, so that version
# can be measured and a later fix of the defect is not an error.  ROADMAP
# aim 3: ``is_zero`` samples a nonzero residual of size 1e-12 * y to a false
# PASS.
KNOWN_DEFECTS = {
    ("e-tilt eps=1/1000000000000", "twisted_jacobi(j)"):
        "sampled is_zero passes the residual -2e-12*y (false PASS)",
}


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    expected: tuple[tuple[str, bool], ...]  # (check name, passes) in order
    dims: int  # dimension of the input chart


# ---------------------------------------------------------------------------
# small exact polynomials on named coordinates, written in the scenario
# expression grammar


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_text(poly: dict[tuple[int, ...], Fraction], coords: tuple[str, ...]) -> str:
    terms = []
    for mon in sorted(poly):
        c = poly[mon]
        if c == 0:
            continue
        factors = []
        for name, k in zip(coords, mon):
            factors += [name] * k
        body = "*".join(factors)
        if not body:
            terms.append(f"({_frac(c)})")
        elif c == 1:
            terms.append(body)
        else:
            terms.append(f"({_frac(c)})*{body}")
    return " + ".join(terms) if terms else "0"


def _poly_diff(poly: dict[tuple[int, ...], Fraction], i: int) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for mon, c in poly.items():
        if mon[i]:
            m = list(mon)
            m[i] -= 1
            out[tuple(m)] = out.get(tuple(m), Fraction(0)) + c * mon[i]
    return {m: c for m, c in out.items() if c}


def _small_coeff(rng: random.Random, limit: Fraction) -> Fraction:
    """A nonzero rational of absolute value at most ``limit``."""
    den = rng.choice((2, 3, 4, 5, 7))
    num = rng.randint(1, den)
    return rng.choice((1, -1)) * limit * Fraction(num, den)


def _random_poly(rng: random.Random, dim: int, terms: int, degree: int,
                 budget: Fraction, constant: bool = True) -> dict[tuple[int, ...], Fraction]:
    """Distinct monomials whose |coefficients| sum to at most ``budget``, so
    the polynomial stays within ``budget`` on the box [-1, 1]^dim."""
    mons = set()
    while len(mons) < terms:
        mon = [0] * dim
        for _ in range(rng.randint(0 if constant else 1, degree)):
            mon[rng.randrange(dim)] += 1
        mons.add(tuple(mon))
    share = budget / terms
    return {mon: _small_coeff(rng, share) for mon in sorted(mons)}


def _document(charts: dict, structures: dict, checks: list[tuple[str, str]]) -> str:
    return json.dumps({
        "charts": charts,
        "structures": structures,
        "checks": [{"check": kind, "target": target} for kind, target in checks],
    }, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# corpus-r3


def corpus_jobs() -> list[Job]:
    jobs = []
    for name in ("std-r3", "twisted-r3"):
        text = (SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8")
        raw = json.loads(text)
        # every bundled check is a true identity or a satisfied bound
        expected = tuple((f"{c['check']}({c['target']})", True) for c in raw["checks"])
        jobs.append(Job(name, text, expected, len(raw["charts"]["R3"])))
    return jobs


# ---------------------------------------------------------------------------
# pair-r5: Darboux base theta = dz - y1 dx1 - y2 dx2 on R5 with the twist
# sum_i c_i m_i dx_i^dy_i, |c_i m_i| <= 1/2 on the box.  Then
# d theta + omega = sum_i (1 + c_i m_i) dx_i^dy_i and the contact volume is
# 2 (1 + c_1 m_1)(1 + c_2 m_2) dz^dx1^dy1^dx2^dy2, never zero on the box:
# every check of the pipeline passes.

R5 = ("x1", "y1", "x2", "y2", "z")


def pair_base(rng: random.Random, index: int) -> Job:
    # one plane carries a coordinate factor and the other a constant; which
    # plane alternates with the round, so every round has the same shape
    coord_plane = index % 2
    omega = {}
    for plane in (0, 1):
        c = _small_coeff(rng, Fraction(1, 2))
        if plane == coord_plane:
            m = rng.choice(R5)
            text = f"({_frac(c)})*{m}"
        else:
            text = f"({_frac(c)})"
        omega[f"dx{plane + 1}^dy{plane + 1}"] = text
    structures = {
        "base": {"type": "contact", "chart": "R5",
                 "theta": {"dz": "1", "dx1": "-y1", "dx2": "-y2"}, "omega": omega},
        "pair": {"type": "pair_groupoid", "base": "base"},
    }
    checks = [(k, "base") for k in PAIR_CHECKS_ON_BASE]
    checks += [(k, "pair") for k in PAIR_CHECKS_ON_GROUPOID]
    text = _document({"R5": list(R5)}, structures, checks)
    expected = tuple((f"{k}({t})", True) for k, t in checks)
    return Job(f"pair-r5 base {index}", text, expected, len(R5))


# ---------------------------------------------------------------------------
# batch-r3: independent small R3 jobs

R3 = ("x", "y", "z")
_STD_THETA = {"dz": "1", "dx": "-y"}


def _poly_twist_job(rng: random.Random) -> Job:
    # d theta + omega = (1 + p) dx^dy with |p| <= 1/2: contact everywhere
    p = _random_poly(rng, 3, rng.randint(1, 3), 2, Fraction(1, 2))
    structures = {"c": {"type": "contact", "chart": "R3", "theta": dict(_STD_THETA),
                        "omega": {"dx^dy": _poly_text(p, R3)}}}
    checks = [("contact", "c"), ("jacobi_from_contact", "c")]
    return Job("poly-twist", _document({"R3": list(R3)}, structures, checks),
               (("contact(c)", True), ("jacobi_from_contact(c)", True)), 3)


def _affine_text(rng: random.Random) -> str:
    coeffs = [_small_coeff(rng, Fraction(1)) if rng.random() < 0.7 else Fraction(0)
              for _ in R3]
    if not any(coeffs):
        coeffs[rng.randrange(3)] = _small_coeff(rng, Fraction(1))
    return _poly_text({(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]}, R3)


def _conformal_job(rng: random.Random) -> Job:
    # (e^L theta, e^L omega) has volume e^{2L} theta^(d theta + omega) != 0.
    # The twist is a constant c: a coordinate factor in it makes single jobs
    # 10-40 times slower, and one such job would set the batch's p90.
    el = f"exp({_affine_text(rng)})"
    c = _small_coeff(rng, Fraction(1, 2))
    structures = {"c": {"type": "contact", "chart": "R3",
                        "theta": {"dz": el, "dx": f"-y*{el}"},
                        "omega": {"dx^dy": f"({_frac(c)})*{el}"}}}
    checks = [("contact", "c"), ("jacobi_from_contact", "c")]
    return Job("conformal", _document({"R3": list(R3)}, structures, checks),
               (("contact(c)", True), ("jacobi_from_contact(c)", True)), 3)


def _exact_theta_job(rng: random.Random) -> Job:
    # theta = d q, omega = 0: d theta = 0, so the volume theta^d theta is 0
    q = _random_poly(rng, 3, rng.randint(2, 3), 3, Fraction(1), constant=False)
    theta = {}
    for i, name in enumerate(R3):
        dq = _poly_diff(q, i)
        if dq:
            theta[f"d{name}"] = _poly_text(dq, R3)
    structures = {"c": {"type": "contact", "chart": "R3", "theta": theta, "omega": {}}}
    return Job("exact-theta", _document({"R3": list(R3)}, structures, [("contact", "c")]),
               (("contact(c)", False),), 3)


def _e_tilt_job(eps: Fraction) -> Job:
    # E = d/dz + eps d/dx leaves [E, Lambda] = 0 but adds 2 eps d/dx^Lambda
    # = -2 eps y d/dx^d/dy^d/dz to the trivector identity: FAIL for eps != 0
    structures = {"j": {"type": "jacobi", "chart": "R3",
                        "lam": {"d/dx^d/dy": "1", "d/dy^d/dz": "-y"},
                        "e": {"d/dz": "1", "d/dx": _frac(eps)}, "omega": {}}}
    return Job(f"e-tilt eps={_frac(eps)}",
               _document({"R3": list(R3)}, structures, [("twisted_jacobi", "j")]),
               (("twisted_jacobi(j)", False),), 3)


def batch_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for family, count in BATCH_FAMILIES:
        for k in range(count):
            if family == "poly-twist":
                jobs.append(_poly_twist_job(rng))
            elif family == "conformal":
                jobs.append(_conformal_job(rng))
            elif family == "exact-theta":
                jobs.append(_exact_theta_job(rng))
            else:
                jobs.append(_e_tilt_job(E_TILT_EPSILONS[k % len(E_TILT_EPSILONS)]))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of round ``index`` of a run with ``seed``.  Each round draws
    fresh inputs, so rounds of one run do not repeat a document."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "corpus-r3":
        return corpus_jobs()
    if workload == "pair-r5":
        return [pair_base(rng, index)]
    if workload == "batch-r3":
        return batch_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")
