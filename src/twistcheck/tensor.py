"""Exterior and multivector calculus on coordinate charts.

Differential forms and multivector fields are stored sparsely: one exact
scalar per strictly increasing multi-index whose component is nonzero, in
increasing index order; an absent index is a zero component.  Degree 0 is
a single scalar keyed by the empty index.  All operations are pure; values
are immutable in practice (components are never mutated after
construction).

That storage invariant holds by construction.  An operation whose keys can
come out of order (a sum or difference, the wedge, d, the contractions and
the extensions below) drops its zero components and sorts its keys once, in
_Tensor._store, the only code that sorts components.  Negation and a
nonzero scale keep the order of their source and do not sort.  Scaling by zero gives the empty tensor; no other product
of nonzero components vanishes, as the ring has no zero divisors.

Evaluation, the sharp maps and the maps between charts are built from two
primitives, the interior product into the first slot and the wedge product.
A map on degree-1 tensors extends to every degree by one rule, a wedge of
basis images, extend(t; b, c) = sum_I c(t_I) b(i_1) ^ ... ^ b(i_k):

    t(a_1, ..., a_k)           = i(a_k) ... i(a_1) t   (determinant convention)
    sharp1(Lambda, zeta)       = i(zeta) Lambda
    sharp(Lambda, z)           = extend(z; sharp1(dx_j), id)
    sharp_tensor(Lambda, z, X) = (-1)^k sharp(Lambda, i(X) z)
    pullback(phi, a)           = extend(a; d(phi^j), phi^*)
    pushforward(phi, P)        = sigma^* extend(P; sum_t d_i(phi^t) d/dy_t, id)

for any map phi with a declared section sigma (phi o sigma = id): the one
pushforward, defined when every component c of the extension is basic,
c = c o (sigma o phi), and raising ProjectabilityFailure otherwise; sigma^*
moves each component to the target chart.  A map whose every component is
c_j x_{k_j} or a constant acts by relabelling instead: pullback sends dx_j
to c_j dx_{k_j}, or to 0 for a constant, so a_I dx_I goes to sign * prod_j
c_j * phi^*(a_I) dx_K, with K the sorted k_{i_1}, ..., k_{i_k} and sign
that of the sort; pushforward sends d/dx_{k_j} to c_j d/dy_j the same way.

The Lie derivative along a vector field X is Cartan's formula i(X) d + d
i(X) on forms and the Schouten bracket [X, P] on multivectors.

A derived object is a cached property of the object it comes from, which
is sound because no operation mutates a tensor or a map: a form keeps its
exterior derivative d, a bivector its sharp_images sharp1(dx_j), a map its
retraction sigma o phi.  A sum, scale or component map is a new tensor, so
what it derives is computed anew.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

from .expr import Chart, Expr, ExprError

__all__ = [
    "Form",
    "MultiVec",
    "SmoothMap",
    "ProjectabilityFailure",
    "differential",
    "wedge",
    "pfaffian",
    "ext_d",
    "interior",
    "lie",
    "schouten",
    "sharp",
    "sharp1",
    "sharp_tensor",
    "pullback",
    "pushforward",
]

Index = tuple[int, ...]


def increasing_indices(n: int, k: int) -> list[Index]:
    return list(itertools.combinations(range(n), k))


def _is_index(key: tuple, n: int, degree: int) -> bool:
    """Strictly increasing, of length ``degree``, each entry in range(n)."""
    return (
        len(key) == degree
        and all(isinstance(i, int) and 0 <= i < n for i in key)
        and all(a < b for a, b in zip(key, key[1:]))
    )


def _sort_index(idx: Sequence[int]) -> Optional[tuple[Index, int]]:
    """Sorted index and permutation sign; None when indices repeat.  Up to
    three indices in closed form, by comparisons alone."""
    n = len(idx)
    if n < 2:
        return tuple(idx), 1
    if n == 2:
        a, b = idx
        if a < b:
            return (a, b), 1
        return ((b, a), -1) if b < a else None
    if n == 3:
        a, b, c = idx
        if a == b or b == c or a == c:
            return None
        if a < b:
            if b < c:
                return (a, b, c), 1
            return ((a, c, b), -1) if a < c else ((c, a, b), 1)
        if a < c:
            return (b, a, c), -1
        return ((b, c, a), 1) if b < c else ((c, b, a), -1)
    if len(set(idx)) != n:
        return None
    order = sorted(range(len(idx)), key=lambda t: idx[t])
    sign = 1
    perm = list(order)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(idx[t] for t in order), sign


def _accumulate(out: dict, key: Index, term: Expr) -> None:
    old = out.get(key)
    out[key] = term if old is None else old + term


class _Tensor:
    """Shared storage/arithmetic for forms and multivector fields."""

    kind = "tensor"

    def __init__(self, chart: Chart, degree: int, comps: Optional[dict[Index, Expr]] = None):
        # degrees above the dimension are allowed and identically zero
        if degree < 0:
            raise ExprError(f"negative degree {degree}")
        comps = {tuple(idx): e for idx, e in (comps or {}).items()}
        for key, e in comps.items():
            if not _is_index(key, chart.dim, degree):
                raise ExprError(f"invalid degree-{degree} multi-index {key}")
            if e.chart is not chart and e.chart != chart:
                raise ExprError("component chart mismatch")
        self._store(chart, degree, comps)

    @classmethod
    def _trusted(cls, chart: Chart, degree: int, comps: dict[Index, Expr]):
        """A tensor from components keyed by valid multi-indices and living on
        ``chart``, without the checks of __init__; the counterpart of
        ``Expr._normal`` for operations whose keys come from an existing
        tensor or ``_sort_index``."""
        t = object.__new__(cls)
        t._store(chart, degree, comps)
        return t

    @classmethod
    def _ordered(cls, chart: Chart, degree: int, comps: dict[Index, Expr]):
        """A tensor from components already in normal storage: nonzero, on
        ``chart``, keyed by valid multi-indices in increasing order."""
        t = object.__new__(cls)
        t.chart = chart
        t.degree = degree
        t.comps = comps
        return t

    def _store(self, chart: Chart, degree: int, comps: dict[Index, Expr]):
        """Drop zero components and sort the keys; the only place that sorts.
        Keys are distinct, so the sort never compares components."""
        self.chart = chart
        self.degree = degree
        keys = sorted(comps) if len(comps) > 1 else comps
        self.comps: dict[Index, Expr] = {k: e for k in keys if (e := comps[k]).num}

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls._ordered(chart, degree, {})

    @classmethod
    def scalar(cls, e: Expr):
        return cls._ordered(e.chart, 0, {(): e} if e.num else {})

    @classmethod
    def basis(cls, chart: Chart, *indices: int):
        """dx_I or d/dx_I for strictly increasing in-range ``indices``."""
        if not _is_index(indices, chart.dim, len(indices)):
            raise ExprError(f"invalid degree-{len(indices)} multi-index {indices}")
        return cls._ordered(chart, len(indices), {indices: Expr.one(chart)})

    def component(self, *idx: int) -> Expr:
        """Component at an arbitrary (possibly unsorted) multi-index."""
        c = self.comps.get(idx)
        if c is not None:
            return c
        s = _sort_index(idx)
        c = self.comps.get(s[0]) if s is not None else None
        if c is None:
            return Expr.zero(self.chart)
        return c if s[1] == 1 else -c

    def as_scalar(self) -> Expr:
        if self.degree != 0:
            raise ExprError("not a degree-0 tensor")
        return self.component()

    # -- algebra -----------------------------------------------------------

    def _check(self, other):
        if type(self) is not type(other):
            raise ExprError(f"kind mismatch: {self.kind} vs {other.kind}")
        if self.chart != other.chart:
            raise ExprError("chart mismatch")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise ExprError("degree mismatch in sum")
        out = dict(self.comps)
        for k, v in other.comps.items():
            old = out.get(k)
            out[k] = v if old is None else old + v
        return self._trusted(self.chart, self.degree, out)

    def __neg__(self):
        return self._ordered(self.chart, self.degree, {k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        if not isinstance(f, Expr):
            f = Expr.const(self.chart, f)
        if not f.num:
            return self._ordered(self.chart, self.degree, {})
        return self._ordered(self.chart, self.degree, {k: f * v for k, v in self.comps.items()})

    def __rmul__(self, f):
        return self.scale(f)

    def map_components(self, fn: Callable[[Expr], Expr], chart: Optional[Chart] = None):
        return type(self)(
            chart or self.chart, self.degree, {k: fn(v) for k, v in self.comps.items()}
        )

    @property
    def is_symbolic_zero(self) -> bool:
        return not self.comps

    def equals(self, other) -> bool:
        self._check(other)
        return self.degree == other.degree and (self - other).is_symbolic_zero

    def _str(self, basis_name: Callable[[int], str]) -> str:
        pieces = []
        for idx, v in self.comps.items():
            label = "^".join(basis_name(i) for i in idx) or "1"
            body = str(v)
            if body == "1":
                pieces.append(label if idx else "1")
            elif body == "-1":
                pieces.append(f"-{label}" if idx else "-1")
            else:
                coeff = body if ("+" not in body and " - " not in body) else f"({body})"
                pieces.append(f"{coeff}*{label}" if idx else coeff)
        if not pieces:
            return "0"
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


class Form(_Tensor):
    kind = "form"

    @functools.cached_property
    def d(self) -> "Form":
        """The exterior derivative (see ext_d)."""
        return _ext_d(self)

    @classmethod
    def d_coord(cls, chart: Chart, coord: str) -> "Form":
        return cls.basis(chart, chart.index(coord))

    def apply(self, vectors: Sequence["MultiVec"]) -> Expr:
        """z(v_1, ..., v_k) = i(v_k) ... i(v_1) z, which is the determinant
        convention dx_I(v_1, ..., v_k) = det(v_r^{i_c})."""
        if len(vectors) != self.degree:
            raise ExprError("wrong number of vector arguments")
        for v in vectors:
            if not isinstance(v, MultiVec) or v.degree != 1 or v.chart != self.chart:
                raise ExprError("form arguments must be vector fields on the same chart")
        return _contract_all(self, vectors)

    def __str__(self) -> str:
        return self._str(lambda i: f"d{self.chart.coords[i]}")


class MultiVec(_Tensor):
    kind = "multivector"

    @functools.cached_property
    def sharp_images(self) -> tuple["MultiVec", ...]:
        """sharp1(Lambda, dx_i) = sum_j Lambda^{ij} d/dx_j for each coordinate
        i, for a bivector Lambda: its rows, read off the components in one
        pass.  Row i gets -Lambda^{ki} for k < i and then Lambda^{ij} for
        j > i, each in increasing order, so it is in normal storage."""
        rows: list[dict[Index, Expr]] = [{} for _ in range(self.chart.dim)]
        for (i, j), c in self.comps.items():
            rows[i][(j,)] = c
            rows[j][(i,)] = -c
        return tuple(MultiVec._ordered(self.chart, 1, row) for row in rows)

    @classmethod
    def d_dx(cls, chart: Chart, coord: str) -> "MultiVec":
        return cls.basis(chart, chart.index(coord))

    def apply(self, covectors: Sequence["Form"]) -> Expr:
        """P(a_1, ..., a_k) = i(a_k) ... i(a_1) P, the determinant convention."""
        if len(covectors) != self.degree:
            raise ExprError("wrong number of covector arguments")
        for a in covectors:
            if not isinstance(a, Form) or a.degree != 1 or a.chart != self.chart:
                raise ExprError("multivector arguments must be 1-forms on the same chart")
        return _contract_all(self, covectors)

    def of(self, f: Expr) -> Expr:
        """Directional derivative X(f) for a vector field."""
        if self.degree != 1:
            raise ExprError("directional derivative needs a vector field")
        out = Expr.zero(self.chart)
        sup = f.support
        for (i,), c in self.comps.items():
            if i in sup:
                out = out + c * f.diff(self.chart.coords[i])
        return out

    def __str__(self) -> str:
        return self._str(lambda i: f"d/d{self.chart.coords[i]}")


def differential(f: Expr) -> Form:
    """df as a 1-form."""
    chart = f.chart
    return Form._trusted(chart, 1, {(i,): f.diff(chart.coords[i]) for i in f.support})


# ---------------------------------------------------------------------------
# core operations


def wedge(a, b):
    a._check(b)
    return a._trusted(a.chart, a.degree + b.degree, _wedge_comps(a.comps, b.comps))


def _wedge_comps(ac: dict[Index, Expr], bc: dict[Index, Expr]) -> dict[Index, Expr]:
    """The components of a ^ b, unsorted and possibly zero, summed in the
    order of ``ac`` and then of ``bc``."""
    out: dict[Index, Expr] = {}
    for ia, ca in ac.items():
        for ib, cb in bc.items():
            s = _sort_index(ia + ib)
            if s is None:
                continue
            key, sign = s
            term = ca * cb if sign == 1 else -(ca * cb)
            old = out.get(key)
            out[key] = term if old is None else old + term
    return out


def pfaffian(form: Form, border: Optional[Form] = None) -> Expr:
    """Pf(Omega), with Omega^n = n! Pf(Omega) dx_1 ^ ... ^ dx_2n for a 2-form on
    a 2n-dimensional chart (zero on an odd-dimensional one), so Omega is
    nondegenerate exactly where it does not vanish.  With a 1-form ``border``
    theta it is the Pfaffian of the bordered matrix [[0, theta], [-theta^T,
    Omega]], the 2-form du ^ theta + Omega in one more coordinate u; on a
    (2n+1)-dimensional chart theta ^ Omega^n = n! Pf dx_1 ^ ... ^ dx_2n+1.

    Expansion along the lowest remaining index, Pf(i, j_1, ..., j_m) =
    sum_p (-1)^p Omega_{i j_p} Pf(j_1, ..., j_m without j_p), over the stored
    components only and once per index set, so no more index sets are visited
    than the wedge power Omega^k stores.  An index set is a bit mask, the
    border u at bit 0 and coordinate i at bit i + 1: the lowest index is the
    lowest set bit and p counts the set bits below j_p, so no step scans or
    slices an index tuple as long as the chart.
    """
    if not isinstance(form, Form) or form.degree != 2:
        raise ExprError("the Pfaffian needs a 2-form")
    chart = form.chart
    # row bit -> [(column bit, component)], in component order
    rows: dict[int, list[tuple[int, Expr]]] = {}
    top = ((1 << chart.dim) - 1) << 1
    if border is not None:
        if not isinstance(border, Form) or border.degree != 1 or border.chart != chart:
            raise ExprError("the Pfaffian border must be a 1-form on the same chart")
        rows[1] = [(2 << j, c) for (j,), c in border.comps.items()]
        top |= 1
    if top.bit_count() % 2:
        return Expr.zero(chart)
    for (i, j), c in form.comps.items():
        rows.setdefault(2 << i, []).append((2 << j, c))
    memo: dict[int, Expr] = {0: Expr.one(chart)}

    def pf(rest: int) -> Expr:
        out = memo.get(rest)
        if out is None:
            low = rest & -rest
            tail = rest ^ low
            for j, c in rows.get(low, ()):
                if tail & j:
                    term = c * pf(tail ^ j)
                    if (tail & (j - 1)).bit_count() % 2:
                        term = -term
                    # the first term is the sum so far: 0 + t is t itself
                    out = term if out is None else out + term
            memo[rest] = out = Expr.zero(chart) if out is None else out
        return out

    return pf(top)


def ext_d(a: Form) -> Form:
    """Exterior derivative, the form's cached ``d``."""
    if not isinstance(a, Form):
        raise ExprError("ext_d expects a form")
    return a.d


def _ext_d(a: Form) -> Form:
    n = a.chart.dim
    if a.degree >= n:
        return Form.zero(a.chart, a.degree + 1)
    out: dict[Index, Expr] = {}
    for idx, c in a.comps.items():
        for i in c.support:
            s = _sort_index((i,) + idx)
            if s is None:
                continue
            key, sign = s
            dc = c.diff(a.chart.coords[i])
            term = dc if sign == 1 else -dc
            old = out.get(key)
            out[key] = term if old is None else old + term
    return Form._trusted(a.chart, a.degree + 1, out)


def interior(x: MultiVec, a: Form) -> Form:
    if not isinstance(x, MultiVec) or x.degree != 1:
        raise ExprError("interior product expects a vector field")
    if not isinstance(a, Form) or a.chart != x.chart:
        raise ExprError("interior product expects a form on the same chart")
    if a.degree == 0:
        raise ExprError("interior product of a degree-0 form")
    return _contract_first(x, a, Form)


def _contract_first(vec, t, out_cls):
    """Contract a vector/covector into a tensor's first slot."""
    out: dict[Index, Expr] = {}
    for (j,), xj in vec.comps.items():
        for idx, c in t.comps.items():
            if j not in idx:
                continue
            pos = idx.index(j)
            rest = idx[:pos] + idx[pos + 1 :]
            term = xj * (c if pos % 2 == 0 else -c)
            old = out.get(rest)
            out[rest] = term if old is None else old + term
    return out_cls._trusted(t.chart, t.degree - 1, out)


def _contract_all(t, args) -> Expr:
    """t(a_1, ..., a_k) = i(a_k) ... i(a_1) t, contracting into the first slot."""
    for a in args:
        t = _contract_first(a, t, type(t))
    return t.as_scalar()


def lie(x: MultiVec, t):
    """Lie derivative along a vector field: Cartan's formula on forms, the
    Schouten bracket [X, P] on multivectors."""
    if not isinstance(x, MultiVec) or x.degree != 1:
        raise ExprError("Lie derivative expects a vector field")
    if t.chart != x.chart:
        raise ExprError("chart mismatch")
    if t.degree == 0:
        return type(t).scalar(x.of(t.as_scalar()))
    if isinstance(t, Form):
        return interior(x, ext_d(t)) + ext_d(interior(x, t))
    return schouten(x, t)


def schouten(p: MultiVec, q: MultiVec) -> MultiVec:
    """Schouten-Nijenhuis bracket, degree max(p+q-1, 0).

    With odd coordinates xi_i standing for d/dx_i, one formula serves every
    degree (Marle, J. Geom. Phys. 23 (1997)):

        [P,Q] = sum_i dP/dxi_i ^ dQ/dx_i - (-1)^{(p-1)(q-1)} dQ/dxi_i ^ dP/dx_i

    where d/dxi_i is the right derivative: on xi_I with i at position pos of
    the length-k index it gives (-1)^{k-1-pos} xi_{I without i}.

    Pinned by: [X,Y] = Lie bracket, [X,P] = L_X P, [f,P] = -i(df)P, graded
    Leibniz in the second slot, and graded antisymmetry
    [P,Q] = -(-1)^{(p-1)(q-1)}[Q,P].
    """
    if not isinstance(p, MultiVec) or not isinstance(q, MultiVec):
        raise ExprError("schouten expects multivector fields")
    if p.chart != q.chart:
        raise ExprError("chart mismatch")
    coords = p.chart.coords
    degree = max(p.degree + q.degree - 1, 0)
    flip = 1 if ((p.degree - 1) * (q.degree - 1)) % 2 == 0 else -1
    # for [P,P] the second pass repeats the first with the sign -flip: the
    # two cancel when P is odd and the first counts twice when it is even
    if p is q and flip == 1:
        return MultiVec._trusted(p.chart, degree, {})
    out: dict[Index, Expr] = {}
    for first, second, sign in ((p, q, 1),) if p is q else ((p, q, 1), (q, p, -flip)):
        grads: dict[tuple[Index, int], Expr] = {}  # d second^J / dx_i, once each
        for idx, c in first.comps.items():
            for pos, i in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1 :]
                s_right = sign if (len(idx) - 1 - pos) % 2 == 0 else -sign
                for jdx, cj in second.comps.items():
                    if i not in cj.support:
                        continue
                    s = _sort_index(rest + jdx)
                    if s is None:
                        continue
                    dj = grads.get((jdx, i))
                    if dj is None:
                        dj = grads[(jdx, i)] = cj.diff(coords[i])
                    if not dj.num:
                        continue
                    key, s_sort = s
                    term = c * dj if s_right * s_sort == 1 else -(c * dj)
                    old = out.get(key)
                    out[key] = term if old is None else old + term
    if p is q:
        out = {key: 2 * v for key, v in out.items()}
    return MultiVec._trusted(p.chart, degree, out)


# ---------------------------------------------------------------------------
# extensions of degree-1 maps


def _extend(t, images, out_cls, chart: Chart, coeff=None):
    """sum_I coeff(t_I) images(i_1) ^ ... ^ images(i_k), a tensor of
    ``out_cls`` on ``chart``: the map j -> images(j) on degree-1 tensors
    extended by wedges.  ``images`` is called once for each index that occurs
    in t; ``coeff`` (identity when None) moves a component onto ``chart``.

    Each component's wedge chain is summed as a chain of ``wedge`` calls
    would sum it, over partial products in increasing key order: the normal
    form keeps common factors, so another order can print another quotient.
    A partial product of one image is in that order already; one of two or
    more images is re-sorted by _store before the next image is wedged on."""
    basis = {j: images(j).comps for j in set().union(*t.comps)}
    out: dict[Index, Expr] = {}
    for idx, c in t.comps.items():
        if coeff is not None:
            c = coeff(c)
            if not c.num:
                continue
        term = {(): c}
        for r, j in enumerate(idx):
            if r > 1:
                term = out_cls._trusted(chart, r, term).comps
            term = _wedge_comps(term, basis[j])
        for key, v in term.items():
            if v.num:
                _accumulate(out, key, v)
    return out_cls._trusted(chart, t.degree, out)


def sharp(lam: MultiVec, z: Form) -> MultiVec:
    """The bivector sharp on a k-form, extended as an algebra map:

        sharp(Lambda, z) = sum_J z_J sharp1(dx_{j_1}) ^ ... ^ sharp1(dx_{j_k}),

    so that sharp(Lambda, z)(a_1, ..., a_k) = (-1)^k z(sharp a_1, ...,
    sharp a_k) on 1-forms, through Lambda's sharp_images; degree 0 is z
    itself.  On a top-degree form the wedge of all N images is det(Lambda)
    d/dx_1 ^ ... ^ d/dx_N, and an antisymmetric matrix of odd size has
    determinant 0, so on an odd-dimensional chart that is zero unbuilt.
    """
    if lam.degree != 2:
        raise ExprError("sharp expects a bivector")
    if z.chart != lam.chart:
        raise ExprError("chart mismatch")
    if z.degree == lam.chart.dim and z.degree % 2:
        return MultiVec.zero(lam.chart, z.degree)
    return _extend(z, lam.sharp_images.__getitem__, MultiVec, lam.chart)


def sharp1(lam: MultiVec, zeta: Form) -> MultiVec:
    """Bivector sharp on a 1-form, sharp(zeta) = i(zeta) Lambda, so that
    <eta, sharp(zeta)> = Lambda(zeta, eta)."""
    return _contract_first(zeta, lam, MultiVec)


def sharp_tensor(lam: MultiVec, z: Form, x: MultiVec) -> MultiVec:
    """The tensored sharp map contracted with a vector field,

        sharp_tensor(Lambda, z, X) = (-1)^k sharp(Lambda, i(X) z),

    whose value R satisfies R(a_1,...,a_{k-1}) = (-1)^k z(sharp a_1, ...,
    sharp a_{k-1}, X) on 1-form arguments.
    """
    if lam.degree != 2 or x.degree != 1:
        raise ExprError("sharp_tensor expects a bivector and a vector field")
    if z.degree < 1:
        raise ExprError("sharp_tensor needs a form of degree >= 1")
    return sharp(lam, interior(x, z)).scale((-1) ** z.degree)


# ---------------------------------------------------------------------------
# smooth maps


class ProjectabilityFailure(ExprError):
    def __init__(self, component: Index):
        super().__init__(
            f"the pushforward needs basic components, c = c o (sigma o phi); "
            f"component {component} is not basic"
        )
        self.component = component


class SmoothMap:
    """A map between charts given by target-coordinate expressions."""

    def __init__(self, source: Chart, target: Chart, components: tuple[Expr, ...],
                 section: Optional[tuple[Expr, ...]] = None):
        if len(components) != target.dim:
            raise ExprError("one component per target coordinate required")
        for c in components:
            if c.chart != source:
                raise ExprError("map components must live on the source chart")
        if section is not None:
            if len(section) != source.dim:
                raise ExprError("one section component per source coordinate required")
            for c in section:
                if c.chart != target:
                    raise ExprError("section components must live on the target chart")
            for j, comp in enumerate(components):
                image = comp.subst(target, list(section))
                if not image.equals(Expr.coord(target, target.coords[j])):
                    raise ExprError(
                        f"declared section is not a right inverse in coordinate "
                        f"{target.coords[j]!r}"
                    )
        self.source = source
        self.target = target
        self.components = components
        self.section = section
        # per target coordinate, (k, c) for a component c x_k and (None, a)
        # for a constant a, when every component is one or the other
        moves = tuple(c.as_move() for c in components)
        self.moves = None if None in moves else moves

    @functools.cached_property
    def retraction(self) -> Optional[tuple[Expr, ...]]:
        """The components of sigma o phi for the declared section sigma, or
        None when that is the identity."""
        comps = tuple(self.pull_scalar(s) for s in self.section)
        identity = all(c.equals(Expr.coord(self.source, x))
                       for c, x in zip(comps, self.source.coords))
        return None if identity else comps

    @staticmethod
    def identity(chart: Chart) -> "SmoothMap":
        comps = tuple(Expr.coord(chart, c) for c in chart.coords)
        return SmoothMap(chart, chart, comps, comps)

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self after inner (source of the result = source of inner), without
        a section: callers compare the components only."""
        if inner.target != self.source:
            raise ExprError("charts do not chain for composition")
        comps = tuple(inner.pull_scalar(c) for c in self.components)
        return SmoothMap(inner.source, self.target, comps)

    def pull_scalar(self, f: Expr) -> Expr:
        if f.chart != self.target:
            raise ExprError("scalar must live on the target chart")
        if self.moves is not None:
            return f._relocated(self.source, {i: self.moves[i] for i in f.support})
        return f.subst(self.source, list(self.components))


def pullback(phi: SmoothMap, a: Form) -> Form:
    """phi^* a = sum_I phi^*(a_I) d(phi^{i_1}) ^ ... ^ d(phi^{i_k}).  A map
    that only moves coordinates relabels: d(c x_k) = c dx_k and d(const) = 0."""
    if not isinstance(a, Form) or a.chart != phi.target:
        raise ExprError("pullback expects a form on the target chart")
    if phi.moves is None:
        return _extend(a, lambda j: differential(phi.components[j]), Form, phi.source,
                       phi.pull_scalar)
    out: dict[Index, Expr] = {}
    for idx, c in a.comps.items():
        moved = [phi.moves[j] for j in idx]
        if any(k is None for k, _ in moved):
            continue
        s = _sort_index([k for k, _ in moved])
        if s is None:
            continue
        scale = s[1]
        for _, cj in moved:
            scale *= cj
        _accumulate(out, s[0], phi.pull_scalar(c) * scale)
    return Form._trusted(phi.source, a.degree, out)


def pushforward(phi: SmoothMap, p: MultiVec) -> MultiVec:
    """phi_* P along a map with a declared section sigma (phi o sigma = id).

    P goes through d(phi) on the source chart: a map that only moves
    coordinates relabels, d/dx_k to c d/dy_t for phi^t = c x_k; any other
    wedges the images sum_t d(phi^t)/dx_i d/dy_t.  Each component c of the
    result must be basic, c = c o (sigma o phi), decided exactly, else
    ProjectabilityFailure; it then moves to the target through sigma.
    """
    if phi.section is None:
        raise ExprError("pushforward requires a declared section")
    if p.chart != phi.source:
        raise ExprError("multivector must live on the source chart")
    src = phi.source
    # relabel when each target coordinate t is c x_k of a k of its own
    back = {k: (t, c) for t, (k, c) in enumerate(phi.moves or ()) if k is not None}
    if phi.moves is not None and len(back) == len(phi.moves):
        pushed: dict[Index, Expr] = {}
        for idx, comp in p.comps.items():
            if all(k in back for k in idx):
                tidx, scale = _sort_index([back[k][0] for k in idx])
                for k in idx:
                    scale *= back[k][1]
                pushed[tidx] = comp if scale == 1 else comp * scale
    else:
        def image(i: int) -> MultiVec:
            return MultiVec._trusted(src, 1, {(t,): comp.diff(src.coords[i])
                                              for t, comp in enumerate(phi.components)
                                              if i in comp.support})

        pushed = _extend(p, image, MultiVec, src).comps
    retract = phi.retraction
    out: dict[Index, Expr] = {}
    for idx, comp in pushed.items():
        if retract is not None and not comp.equals(comp.subst(src, retract)):
            raise ProjectabilityFailure(idx)
        out[idx] = comp.subst(phi.target, phi.section)
    return MultiVec._trusted(phi.target, p.degree, out)

