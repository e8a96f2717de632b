"""Exterior and multivector calculus on coordinate charts.

Differential forms and multivector fields are stored sparsely: one exact
scalar per strictly increasing multi-index whose component is nonzero, in
increasing index order; an absent index is a zero component.  Degree 0 is
a single scalar keyed by the empty index.  All operations are pure; values
are immutable in practice (components are never mutated after
construction).

Evaluation, the sharp maps and the maps between charts are built from two
primitives, the interior product into the first slot and the wedge product.
A map on degree-1 tensors extends to every degree by one rule, a wedge of
basis images, extend(t; b, c) = sum_I c(t_I) b(i_1) ^ ... ^ b(i_k):

    t(a_1, ..., a_k)           = i(a_k) ... i(a_1) t   (determinant convention)
    sharp1(Lambda, zeta)       = i(zeta) Lambda
    sharp(Lambda, z)           = extend(z; sharp1(dx_j), id)
    sharp_tensor(Lambda, z, X) = (-1)^k sharp(Lambda, i(X) z)
    pullback(phi, a)           = extend(a; d(phi^j), phi^*)
    pushforward_diffeo(phi, P) = push(extend(P; sum_t d_i(phi^t) d/dy_t, id))

with push moving each component to the target chart by the inverse map.
A map whose every component is c_j x_{k_j} or a constant pulls back by
relabelling instead: dx_j goes to c_j dx_{k_j}, or to 0 for a constant, so
a_I dx_I goes to sign * prod_j c_j * phi^*(a_I) dx_K, with K the sorted
k_{i_1}, ..., k_{i_k} and sign that of the sort.
"""

from __future__ import annotations

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
    "pushforward_projection",
    "pushforward_diffeo",
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
    """Sorted index and permutation sign; None when indices repeat."""
    if len(set(idx)) != len(idx):
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


def _first(item):
    return item[0]


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

    def _store(self, chart: Chart, degree: int, comps: dict[Index, Expr]):
        self.chart = chart
        self.degree = degree
        nonzero = sorted(((k, e) for k, e in comps.items() if e.num), key=_first)
        self.comps: dict[Index, Expr] = dict(nonzero)

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree)

    @classmethod
    def scalar(cls, e: Expr):
        return cls(e.chart, 0, {(): e})

    @classmethod
    def basis(cls, chart: Chart, *indices: int):
        return cls(chart, len(indices), {tuple(indices): Expr.one(chart)})

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
        return self._trusted(self.chart, self.degree, {k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        if not isinstance(f, Expr):
            f = Expr.const(self.chart, f)
        return self._trusted(self.chart, self.degree, {k: f * v for k, v in self.comps.items()})

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
    out: dict[Index, Expr] = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            s = _sort_index(ia + ib)
            if s is None:
                continue
            key, sign = s
            term = ca * cb if sign == 1 else -(ca * cb)
            old = out.get(key)
            out[key] = term if old is None else old + term
    return a._trusted(a.chart, a.degree + b.degree, out)


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
    than the wedge power Omega^k stores.
    """
    if not isinstance(form, Form) or form.degree != 2:
        raise ExprError("the Pfaffian needs a 2-form")
    chart = form.chart
    rows: dict[int, list[tuple[int, Expr]]] = {}
    top: Index = tuple(range(chart.dim))
    if border is not None:
        if not isinstance(border, Form) or border.degree != 1 or border.chart != chart:
            raise ExprError("the Pfaffian border must be a 1-form on the same chart")
        # the border coordinate u is index -1, first in every index set
        rows[-1] = [(j, c) for (j,), c in border.comps.items()]
        top = (-1,) + top
    if len(top) % 2:
        return Expr.zero(chart)
    for (i, j), c in form.comps.items():
        rows.setdefault(i, []).append((j, c))
    memo: dict[Index, Expr] = {(): Expr.one(chart)}

    def pf(rest: Index) -> Expr:
        out = memo.get(rest)
        if out is None:
            out = Expr.zero(chart)
            tail = rest[1:]
            for j, c in rows.get(rest[0], ()):
                if j in tail:
                    p = tail.index(j)
                    term = c * pf(tail[:p] + tail[p + 1 :])
                    out = out - term if p % 2 else out + term
            memo[rest] = out
        return out

    return pf(top)


def ext_d(a: Form) -> Form:
    """Exterior derivative, computed once per form object: the result is
    cached on the instance, like a bivector's sharp images, since no
    operation mutates a tensor; a sum, scale or component map is a new
    instance whose differential is computed anew."""
    if not isinstance(a, Form):
        raise ExprError("ext_d expects a form")
    d = a.__dict__.get("_ext_d")
    if d is None:
        d = a.__dict__["_ext_d"] = _ext_d(a)
    return d


def _ext_d(a: Form) -> Form:
    n = a.chart.dim
    if a.degree >= n:
        return Form(a.chart, a.degree + 1)
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
    """Lie derivative along a vector field: Cartan on forms, Leibniz on multivectors."""
    if not isinstance(x, MultiVec) or x.degree != 1:
        raise ExprError("Lie derivative expects a vector field")
    if t.chart != x.chart:
        raise ExprError("chart mismatch")
    chart = t.chart
    if t.degree == 0:
        return type(t).scalar(x.of(t.as_scalar()))
    if isinstance(t, Form):
        return interior(x, ext_d(t)) + ext_d(interior(x, t))
    # multivector: (L_X P)^I = X(P^I) - sum over slots of P^{I[t]->m} dX^{I[t]}/dx_m;
    # each stored P^J gives to the index J[t]->i the term -P^J dX^i/dx_{J[t]}
    grad: dict[int, list[tuple[int, Expr]]] = {}
    for (i,), xi in x.comps.items():
        for m in xi.support:
            d = xi.diff(chart.coords[m])
            if d.num:
                grad.setdefault(m, []).append((i, d))
    out: dict[Index, Expr] = {}
    for idx, c in t.comps.items():
        _accumulate(out, idx, x.of(c))
        for pos, m in enumerate(idx):
            for i, dxi in grad.get(m, ()):
                s = _sort_index(idx[:pos] + (i,) + idx[pos + 1 :])
                if s is not None:
                    _accumulate(out, s[0], -(c * dxi) if s[1] == 1 else c * dxi)
    return MultiVec._trusted(chart, t.degree, out)


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
    in t; ``coeff`` (identity when None) moves a component onto ``chart``."""
    basis = {j: images(j) for j in set().union(*t.comps)}
    out: dict[Index, Expr] = {}
    for idx, c in t.comps.items():
        term = out_cls._trusted(chart, 0, {(): c if coeff is None else coeff(c)})
        for j in idx:
            term = wedge(term, basis[j])
        for key, v in term.comps.items():
            _accumulate(out, key, v)
    return out_cls._trusted(chart, t.degree, out)


def sharp(lam: MultiVec, z: Form) -> MultiVec:
    """The bivector sharp on a k-form, extended as an algebra map:

        sharp(Lambda, z) = sum_J z_J sharp1(dx_{j_1}) ^ ... ^ sharp1(dx_{j_k}),

    so that sharp(Lambda, z)(a_1, ..., a_k) = (-1)^k z(sharp a_1, ...,
    sharp a_k) on 1-forms.  Only the images of indices that occur in z are
    computed, each once per Lambda; degree 0 is z itself.
    """
    if lam.degree != 2:
        raise ExprError("sharp expects a bivector")
    if z.chart != lam.chart:
        raise ExprError("chart mismatch")
    return _extend(z, lambda j: _sharp_basis(lam, j), MultiVec, lam.chart)


def _sharp_basis(lam: MultiVec, j: int) -> MultiVec:
    """sharp1(Lambda, dx_j), computed once per bivector object: the checks
    sharp many forms with one Lambda.  The images are cached on the instance,
    like a contact structure's Reeb field; no operation mutates a tensor."""
    images = lam.__dict__.setdefault("_sharp_images", {})
    if j not in images:
        images[j] = sharp1(lam, Form.basis(lam.chart, j))
    return images[j]


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
    def __init__(self, component: Index, coord: str):
        super().__init__(
            f"component {component} depends on the dropped coordinate {coord!r}"
        )
        self.component = component
        self.coord = coord


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

    def push_scalar(self, f: Expr) -> Expr:
        """Transport a source scalar via the section (needs one declared)."""
        if self.section is None:
            raise ExprError("push_scalar requires a declared section")
        if f.chart != self.source:
            raise ExprError("scalar must live on the source chart")
        return f.subst(self.target, list(self.section))

    def projection_data(self) -> Optional[tuple[list[int], list[int]]]:
        """(kept source indices per target coordinate, dropped indices) when
        every component is exactly one source coordinate; otherwise None."""
        if self.moves is None or any(k is None or c != 1 for k, c in self.moves):
            return None
        kept = [k for k, _ in self.moves]
        if len(set(kept)) != len(kept):
            return None
        dropped = [i for i in range(self.source.dim) if i not in kept]
        return kept, dropped


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


def pushforward_projection(phi: SmoothMap, p: MultiVec) -> MultiVec:
    """Project a multivector field along a coordinate projection with section.

    Components touching a dropped direction are discarded (they push to
    zero); surviving components must not depend on the dropped coordinates,
    else ProjectabilityFailure is raised.
    """
    if phi.section is None:
        raise ExprError("pushforward requires a declared section")
    data = phi.projection_data()
    if data is None:
        raise ExprError("pushforward_projection needs a coordinate projection")
    kept, dropped = data
    if p.chart != phi.source:
        raise ExprError("multivector must live on the source chart")
    if p.degree > phi.target.dim:
        raise ExprError("degree exceeds the target dimension")
    position = {i: t for t, i in enumerate(kept)}
    out: dict[Index, Expr] = {}
    for sidx, comp in p.comps.items():
        if any(i not in position for i in sidx):
            continue
        for d in dropped:
            if comp.depends_on(phi.source.coords[d]):
                raise ProjectabilityFailure(sidx, phi.source.coords[d])
        tidx, sign = _sort_index([position[i] for i in sidx])
        pushed = comp.subst(phi.target, list(phi.section))
        out[tidx] = pushed if sign == 1 else -pushed
    return MultiVec._trusted(phi.target, p.degree, out)


def pushforward_diffeo(phi: SmoothMap, p: MultiVec) -> MultiVec:
    """Push a multivector along an invertible map (section = inverse)."""
    if phi.section is None or phi.source.dim != phi.target.dim:
        raise ExprError("pushforward_diffeo needs an invertible map with inverse")
    # verify the section is also a left inverse, once per map object: the
    # result is cached on the instance, like a form's ext_d
    if "_left_inverse" not in phi.__dict__:
        for j, sec in enumerate(phi.section):
            back = sec.subst(phi.source, list(phi.components))
            if not back.equals(Expr.coord(phi.source, phi.source.coords[j])):
                raise ExprError("declared section is not a two-sided inverse")
        phi.__dict__["_left_inverse"] = True
    if p.chart != phi.source:
        raise ExprError("multivector must live on the source chart")
    src = phi.source

    def image(i: int) -> MultiVec:
        # phi_* d/dx_i = sum_t d(phi^t)/dx_i d/dy_t, still on the source chart
        return MultiVec._trusted(src, 1, {(t,): comp.diff(src.coords[i])
                                          for t, comp in enumerate(phi.components)
                                          if i in comp.support})

    return _extend(p, image, MultiVec, src).map_components(phi.push_scalar, phi.target)
