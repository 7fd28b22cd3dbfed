"""Restriction b-functions, truncation, and the graded Koszul oracle.

Given a V-strict free complex with shifts, the restriction b-function is
the least common multiple over kernel generators kappa (a V-adapted basis
of each cycle module) of the minimal monic polynomials q with
q(theta) . kappa lying in F^(lambda-1) plus the boundaries, shifted by the
generator degrees lambda.  Its integer roots bound the truncation window;
clipping the derivative-polynomial fibers of the complex to that window
yields a finite complex of rational vector spaces whose exact ranks are
the cohomology dimensions.
"""

from __future__ import annotations

import itertools
import logging
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import linalg
from .errors import (BBoundExceededError, InconsistencyError, InvalidInputError,
                     InternalError)
from .groebner import (ModuleElement, OperatorMatrix, SolverCache,
                       SubmoduleSolver)
from .presentations import ChainComplexPres, DModPresentation
from .weyl import (NEG_INF, FiltrationSpec, WeylElement, fourier, term_v_degree,
                   theta, weyl_mul)

log = logging.getLogger("derham.restriction")

DEFAULT_MAX_B_DEGREE = 20


# ---------------------------------------------------------------------------
# monic univariate polynomials over Q
# ---------------------------------------------------------------------------

class ThetaPolynomial:
    """A monic univariate polynomial b(s) over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        if not cs:
            raise InvalidInputError("the zero polynomial is not a b-function")
        lead = cs[-1]
        self.coeffs = tuple(c / lead for c in cs)

    @classmethod
    def one(cls) -> "ThetaPolynomial":
        return cls([1])

    @classmethod
    def from_roots(cls, roots) -> "ThetaPolynomial":
        out = cls.one()
        for r in roots:
            out = out * cls([-Fraction(r), 1])
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_one(self) -> bool:
        return self.degree == 0

    def __call__(self, s) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(s) + c
        return acc

    def __mul__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ThetaPolynomial(out)

    def exact_divide(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        """self / other, assuming divisibility."""
        q, r = _divmod_poly(self.coeffs, other.coeffs)
        if any(r):
            raise InternalError("exact_divide on non-divisor")
        return ThetaPolynomial(q)

    def taylor_shift(self, c) -> "ThetaPolynomial":
        """The polynomial s -> self(s + c)."""
        c = Fraction(c)
        power = [Fraction(1)]  # coefficients of (s + c)^k, built up
        acc = [Fraction(0)] * (self.degree + 1)
        for a in self.coeffs:
            for i, p in enumerate(power):
                acc[i] += a * p
            nxt = [Fraction(0)] * (len(power) + 1)
            for i, p in enumerate(power):
                nxt[i] += p * c
                nxt[i + 1] += p
            power = nxt
        return ThetaPolynomial(acc)

    def gcd(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        a, b = list(self.coeffs), list(other.coeffs)
        while any(b):
            _, r = _divmod_poly(a, b)
            a, b = b, r
            while b and not b[-1]:
                b.pop()
        return ThetaPolynomial(a)

    def lcm(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        g = self.gcd(other)
        return (self * other).exact_divide(g)

    def integer_roots(self):
        """Sorted integer roots, found by the rational root test.

        A nonzero integer root divides the constant term once the
        denominators are cleared, and Cauchy's bound on the monic
        coefficients caps it at 1 + max |c_i|, so only divisors up to that
        bound are tried, each by Horner's rule on the cleared integers.
        """
        coeffs = list(self.coeffs)
        roots = set()
        # strip powers of s
        while not coeffs[0] and len(coeffs) > 1:
            coeffs.pop(0)
            roots.add(0)
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in reversed(coeffs)]
        const = ints[-1]
        bound = 1 + int(max((abs(c) for c in coeffs[:-1]), default=0))
        for cand in range(1, min(bound, abs(const)) + 1):
            if const % cand:
                continue
            for r in (cand, -cand):
                acc = 0
                for a in ints:
                    acc = acc * r + a
                if not acc:
                    roots.add(r)
        return sorted(roots)

    def __eq__(self, other):
        return isinstance(other, ThetaPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mono = "s" if k == 1 else f"s^{k}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"ThetaPolynomial({self})"


def _divmod_poly(a, b):
    """Quotient and remainder of coefficient lists (ascending)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and not b[-1]:
        b.pop()
    if not b:
        raise InvalidInputError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, bc in enumerate(b):
            r[i + k] -= f * bc
    return q, r


class TruncationWindow:
    """Integer bounds [k0, k1] containing every integer root, or empty."""

    __slots__ = ("k0", "k1")

    def __init__(self, k0: Optional[int], k1: Optional[int]):
        if (k0 is None) != (k1 is None):
            raise InvalidInputError("half-empty window")
        if k0 is not None and k0 > k1:
            raise InvalidInputError("window bounds out of order")
        self.k0 = k0
        self.k1 = k1

    @classmethod
    def empty(cls) -> "TruncationWindow":
        return cls(None, None)

    def is_empty(self) -> bool:
        return self.k0 is None

    def widen(self, left: int = 0, right: int = 0) -> "TruncationWindow":
        if self.is_empty():
            return self
        return TruncationWindow(self.k0 - left, self.k1 + right)

    def __eq__(self, other):
        return isinstance(other, TruncationWindow) and \
            (self.k0, self.k1) == (other.k0, other.k1)

    def __repr__(self):
        return "TruncationWindow(empty)" if self.is_empty() \
            else f"TruncationWindow({self.k0}, {self.k1})"


def integer_root_window(b: ThetaPolynomial) -> TruncationWindow:
    roots = b.integer_roots()
    if not roots:
        return TruncationWindow.empty()
    return TruncationWindow(roots[0], roots[-1])


# ---------------------------------------------------------------------------
# b-function searches
# ---------------------------------------------------------------------------

def _minimal_b_for_generator(kappa: ModuleElement, lam: int,
                             boundary_solver: Optional[SubmoduleSolver],
                             shift, max_degree: int) -> ThetaPolynomial:
    """Minimal monic q with q(theta).kappa in F^(lam-1) + boundaries.

    Undetermined-coefficients search by increasing degree: reduce the
    theta-power images to normal form, then demand that every term of
    shifted V-degree >= lam cancels.  Each degree adds one image and the
    monomials it brings; every lower degree failed, so the columns are
    independent and the solution is unique.  Soundness of the normal-form
    test rests on V-refining division realizing the minimal coset degree.
    """
    n = kappa.n
    th = theta(n)
    image = kappa
    highs = []   # per lower theta power: {(pos, exps): coeff} at shifted degree >= lam
    monos = {}   # the rows' (pos, exps) keys, in order of first appearance
    for t in range(max_degree + 1):
        if t:
            image = image.left_mul(th)
        if boundary_solver is not None:
            image = boundary_solver.normal_form(image)
        high = {(pos, exps): c for pos, comp in enumerate(image.components)
                for exps, c in comp.terms.items()
                if term_v_degree(exps, n) + shift[pos] >= lam}
        monos.update(dict.fromkeys(high))
        rows = [[h.get(mono, Fraction(0)) for h in highs] for mono in monos]
        rhs = [-high.get(mono, Fraction(0)) for mono in monos]
        sol = linalg.solve(rows, rhs) if rows else [Fraction(0)] * t
        if sol is not None:
            return ThetaPolynomial(list(sol) + [Fraction(1)])
        highs.append(high)
    raise BBoundExceededError(
        f"no b-function of degree <= {max_degree}; the module may not be "
        "specializable or the bound is too low")


def restriction_b_function_module(pres: DModPresentation,
                                  max_degree: int = DEFAULT_MAX_B_DEGREE) -> ThetaPolynomial:
    """Minimal monic b with b(theta + j) F^j contained in F^(j-1) for all j.

    The module is the cohomology at degree 0 of its free presentation
    D^#relations -> D^rank, where no differential leaves, so this is the
    complex case at that one position."""
    n = pres.n
    free = [DModPresentation.free(n, len(pres.relations)),
            DModPresentation.free(n, pres.rank, pres.shift_or_zero())]
    c = ChainComplexPres(n, -1, free, [OperatorMatrix(n, pres.rank, pres.relations)])
    return b_function_of_complex(c, max_degree, positions=[0])


class BFunctionDetail:
    """Per-generator certificate data for a complex-level b-function."""

    __slots__ = ("position", "kappa", "lam")

    def __init__(self, position, kappa, lam):
        self.position = position
        self.kappa = kappa
        self.lam = lam


def _boundary_solver(c: ChainComplexPres, k: int, solvers: SolverCache):
    """The solver over the boundary rows in C^k, or None when they vanish."""
    prev = c.differential(k - 1)
    if prev is None or not prev.source_rank or prev.is_zero():
        return None
    return solvers.get(c.module(k).rank, prev.rows, c.module(k).shift_or_zero())


def b_function_of_complex(c: ChainComplexPres,
                          max_degree: int = DEFAULT_MAX_B_DEGREE,
                          positions=None, details: Optional[list] = None) -> ThetaPolynomial:
    """lcm over cycle generators of their minimal polynomials, shifted by
    the generators' V-degrees; kills gr H at every requested position.

    The call builds one solver per key of its own SolverCache, which it
    drops when it returns."""
    if not c.is_free():
        raise InvalidInputError("b_function_of_complex needs a free complex")
    if positions is None:
        positions = list(c.degrees())
    solvers = SolverCache(FiltrationSpec(c.n))
    out = ThetaPolynomial.one()
    for k in positions:
        mod = c.module(k)
        if mod.rank == 0:
            continue
        shift = mod.shift_or_zero()
        dmat = c.differential(k)
        if dmat is None or dmat.target_rank == 0:
            kappas = [ModuleElement.unit(c.n, mod.rank, i) for i in range(mod.rank)]
        else:
            kappas = solvers.syzygies(dmat.target_rank, dmat.rows,
                                      c.module(k + 1).shift_or_zero(), shift)
        bsolver = _boundary_solver(c, k, solvers)
        for kappa in kappas:
            lam = kappa.v_degree(shift)
            if lam == NEG_INF:
                continue
            q = _minimal_b_for_generator(kappa, lam, bsolver, shift, max_degree)
            if details is not None:
                details.append(BFunctionDetail(k, kappa, lam))
            out = out.lcm(q.taylor_shift(-lam))
    log.debug("b-function: %d solver builds, %d cache hits",
              solvers.builds, solvers.hits)
    log.debug("b-function: %d S-pairs reduced, %d skipped by the chain criterion",
              solvers.spairs_reduced, solvers.spairs_skipped)
    return out


def generator_membership_holds(b: ThetaPolynomial, kappa: ModuleElement, lam: int,
                               boundary_solver, shift) -> bool:
    """Does b(theta + lam) . kappa land in F^(lam-1) + boundaries?"""
    shifted = b.taylor_shift(lam)
    n = kappa.n
    op = WeylElement.zero(n)
    power = WeylElement.one(n)
    th = theta(n)
    for c in shifted.coeffs:
        op = op + power.scale(c)
        power = weyl_mul(power, th)
    img = kappa.left_mul(op)
    if boundary_solver is not None:
        img = boundary_solver.normal_form(img)
    vd = img.v_degree(shift)
    return vd == NEG_INF or vd <= lam - 1


def certify_b_function(b: ThetaPolynomial, details: Sequence[BFunctionDetail],
                       c: ChainComplexPres) -> bool:
    """Memberships hold for b, and every integer-root factor is needed."""
    solvers = SolverCache(FiltrationSpec(c.n))

    def holds(poly):
        return all(generator_membership_holds(
            poly, det.kappa, det.lam, _boundary_solver(c, det.position, solvers),
            c.module(det.position).shift_or_zero()) for det in details)

    if not holds(b):
        return False
    return not any(holds(b.exact_divide(ThetaPolynomial([-root, 1])))
                   for root in b.integer_roots())


# ---------------------------------------------------------------------------
# Fourier transform of a complex
# ---------------------------------------------------------------------------

def fourier_complex(c: ChainComplexPres) -> ChainComplexPres:
    """Apply the Fourier automorphism to every relation and matrix entry.

    Shift vectors are dropped: V-degrees are not preserved and downstream
    strictification assigns fresh ones.
    """
    n = c.n
    modules = []
    for m in c.modules:
        rels = [ModuleElement(n, [fourier(comp) for comp in r.components])
                for r in m.relations]
        modules.append(DModPresentation(n, m.rank, rels, None))
    diffs = []
    for dmat in c.differentials:
        rows = [ModuleElement(n, [fourier(comp) for comp in r.components])
                for r in dmat.rows]
        diffs.append(OperatorMatrix(n, dmat.target_rank, rows))
    return ChainComplexPres(n, c.lo, modules, diffs)


# ---------------------------------------------------------------------------
# truncation to a finite complex of rational vector spaces
# ---------------------------------------------------------------------------

def _monomials_of_degree(n: int, deg: int):
    """Exponent tuples of total degree deg in n variables, lexicographic."""
    if n == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _monomials_of_degree(n - 1, deg - first):
            yield (first,) + rest


class TruncatedComplex:
    """A bounded complex of finite-dimensional rational vector spaces.

    Bases are derivative monomials d^beta e_j clipped to the window; the
    differentials are exact rational matrices (rows = source basis).
    """

    __slots__ = ("lo", "bases", "matrices", "window")

    def __init__(self, lo: int, bases, matrices, window: TruncationWindow):
        self.lo = lo
        self.bases = [list(b) for b in bases]
        self.matrices = [[_fr_row(r) for r in m] for m in matrices]
        self.window = window
        self.check_chain()

    @property
    def hi(self) -> int:
        return self.lo + len(self.bases) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def dim(self, k: int) -> int:
        if not self.lo <= k <= self.hi:
            return 0
        return len(self.bases[k - self.lo])

    def matrix(self, k: int):
        """The matrix of the map leaving degree k, or None."""
        if not self.lo <= k < self.hi:
            return None
        return self.matrices[k - self.lo]

    def check_chain(self):
        for k in range(self.lo, self.hi - 1):
            m1, m2 = self.matrix(k), self.matrix(k + 1)
            if not m1 or not m2 or not m2[0]:
                continue
            for i, row in enumerate(m1):
                acc = [Fraction(0)] * len(m2[0])
                for j, c in enumerate(row):
                    if c:
                        for l, d in enumerate(m2[j]):
                            acc[l] += c * d
                if any(acc):
                    raise InconsistencyError(
                        f"truncated complex has nonzero composite at degree {k}")

    def to_json(self) -> dict:
        return {
            "schema": "derham.truncated/1",
            "lo": self.lo,
            "hi": self.hi,
            "window": None if self.window.is_empty() else [self.window.k0, self.window.k1],
            "positions": [
                {
                    "degree": self.lo + idx,
                    "basis": [{"dexp": list(beta), "gen": gen} for beta, gen in base],
                }
                for idx, base in enumerate(self.bases)
            ],
            "matrices": [[[str(c) for c in row] for row in m] for m in self.matrices],
        }


def _fr_row(row):
    return [Fraction(c) for c in row]


def omega_tensor_truncate(c: ChainComplexPres, window: TruncationWindow) -> TruncatedComplex:
    """Clip the derivative fibers of a strict free complex to the window.

    Basis at degree i: monomials d^beta e_j with k0 <= |beta| + shift(j)
    <= k1.  The induced map right-multiplies by the differential, deletes
    every term containing an x-variable, and projects below-window terms
    away.  An above-window image violates V-adaptedness and is an error.
    """
    if not c.is_free():
        raise InvalidInputError("omega_tensor_truncate needs a free complex")
    n = c.n
    if window.is_empty():
        bases = [[] for _ in c.degrees()]
        mats = [[] for _ in range(max(0, len(c.modules) - 1))]
        return TruncatedComplex(c.lo, bases, mats, window)
    k0, k1 = window.k0, window.k1

    bases = []
    index = []
    for m in c.modules:
        shift = m.shift_or_zero()
        base = []
        for j in range(m.rank):
            lod = max(0, k0 - shift[j])
            hid = k1 - shift[j]
            for deg in range(lod, hid + 1):
                for beta in _monomials_of_degree(n, deg):
                    base.append((beta, j))
        bases.append(base)
        index.append({item: pos for pos, item in enumerate(base)})

    matrices = []
    for k in range(c.lo, c.hi):
        src = bases[k - c.lo]
        tgt_index = index[k + 1 - c.lo]
        tgt_shift = c.module(k + 1).shift_or_zero()
        dmat = c.differential(k)
        rows = []
        for beta, j in src:
            mono = WeylElement.monomial(n, (0,) * n, beta)
            img = dmat.rows[j].left_mul(mono)
            row = [Fraction(0)] * len(tgt_index)
            for pos, comp in enumerate(img.components):
                for exps, coeff in comp.terms.items():
                    alpha, gamma = exps[:n], exps[n:]
                    if any(alpha):
                        continue  # x . D_n part dies in the Omega quotient
                    level = sum(gamma) + tgt_shift[pos]
                    if level < k0:
                        continue  # projected away below the window
                    if level > k1:
                        raise InconsistencyError(
                            "image above the window: the complex is not V-adapted")
                    row[tgt_index[(gamma, pos)]] += coeff
            rows.append(row)
        matrices.append(rows)
    return TruncatedComplex(c.lo, bases, matrices, window)


def cohomology_dims(t: TruncatedComplex) -> dict:
    """Exact cohomology dimensions of a truncated complex, per degree.

    The constructor has checked the chain property; each map is ranked
    once, as the map leaving k and the map entering k + 1.
    """
    ranks = {k: linalg.rank(t.matrix(k)) for k in range(t.lo, t.hi)}
    out = {}
    for k in t.degrees():
        out[k] = t.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if out[k] < 0:
            raise InternalError("negative cohomology dimension")
    return out


# ---------------------------------------------------------------------------
# graded Koszul slices: the exactness oracle
# ---------------------------------------------------------------------------

class GradedVectorComplex:
    """A complex of graded vector spaces with commuting x-actions.

    dims[(i, j)] is the dimension of the j-graded piece at position i;
    diff[(i, j)] maps piece (i, j) to (i+1, j); xact[(l, i, j)] maps
    (i, j) to (i, j-1).  Matrices follow the row-vector convention.
    Pieces outside the declared grading window [jlo, jhi] are unknown.
    """

    def __init__(self, lo: int, hi: int, jlo: int, jhi: int, d: int,
                 dims: dict, diff: dict, xact: dict):
        self.lo, self.hi = lo, hi
        self.jlo, self.jhi = jlo, jhi
        self.d = d
        self.dims = dict(dims)
        self.diff = {k: [_fr_row(r) for r in m] for k, m in diff.items()}
        self.xact = {k: [_fr_row(r) for r in m] for k, m in xact.items()}

    def dim(self, i: int, j: int) -> int:
        if not self.lo <= i <= self.hi or not self.jlo <= j <= self.jhi:
            return 0
        return self.dims.get((i, j), 0)

    def require(self, j: int):
        if not self.jlo <= j <= self.jhi:
            raise InvalidInputError(
                f"grading window [{self.jlo}, {self.jhi}] too small for piece {j}")

    def d_matrix(self, i: int, j: int):
        return self.diff.get((i, j))

    def x_matrix(self, l: int, i: int, j: int):
        return self.xact.get((l, i, j))


class GradedKoszulComplex:
    """The slice K(L, x_1..x_d)[k]: positions, components and matrices."""

    __slots__ = ("k", "d", "lo", "components", "matrices")

    def __init__(self, k, d, lo, components, matrices):
        self.k = k
        self.d = d
        self.lo = lo
        self.components = components  # per position: list of (i, subset, dim)
        self.matrices = matrices

    @property
    def hi(self):
        return self.lo + len(self.components) - 1

    def dims(self):
        return [sum(c[2] for c in comps) for comps in self.components]

    def is_exact(self) -> bool:
        # ranks[i] and ranks[i + 1]: the maps entering and leaving position i
        ranks = [0] + [linalg.rank(m) for m in self.matrices] + [0]
        return all(dim == ranks[i] + ranks[i + 1]
                   for i, dim in enumerate(self.dims()))


def graded_koszul(L: GradedVectorComplex, k: int) -> GradedKoszulComplex:
    """The degree-k Koszul slice of L with respect to x_1..x_d.

    Component (i, S) sits in position i + |S| and carries the graded piece
    L^i at grading k + d - |S|.  The differential sends u at (i, S) to
    d(u) at (i+1, S) plus, for every variable v not in S, the x_v-image at
    (i, S + {v}) with sign (-1)^(i + #{s in S : s < v}).
    """
    d = L.d
    for w in range(d + 1):
        for i in range(L.lo, L.hi + 1):
            L.require(k + d - w)

    positions = {}
    for i in range(L.lo, L.hi + 1):
        for size in range(d + 1):
            for subset in itertools.combinations(range(d), size):
                dim = L.dim(i, k + d - size)
                if dim:
                    positions.setdefault(i + size, []).append((i, subset, dim))
    if not positions:
        return GradedKoszulComplex(k, d, 0, [[]], [])
    lo = min(positions)
    hi = max(positions)
    components = [positions.get(m, []) for m in range(lo, hi + 1)]
    offsets = []
    for comps in components:
        off = {}
        total = 0
        for i, subset, dim in comps:
            off[(i, subset)] = total
            total += dim
        offsets.append((off, total))

    matrices = []
    for m in range(lo, hi):
        src = components[m - lo]
        tgt_off, tgt_total = offsets[m + 1 - lo]
        rows_total = offsets[m - lo][1]
        mat = [[Fraction(0)] * tgt_total for _ in range(rows_total)]
        row0 = 0
        for i, subset, dim in src:
            j = k + d - len(subset)
            dm = L.d_matrix(i, j)
            if dm and (i + 1, subset) in tgt_off:
                c0 = tgt_off[(i + 1, subset)]
                for r in range(dim):
                    for cc, val in enumerate(dm[r]):
                        if val:
                            mat[row0 + r][c0 + cc] += val
            for v in range(d):
                if v in subset:
                    continue
                xm = L.x_matrix(v, i, j)
                new = tuple(sorted(subset + (v,)))
                if xm and (i, new) in tgt_off:
                    sign = (-1) ** (i + sum(1 for s in subset if s < v))
                    c0 = tgt_off[(i, new)]
                    for r in range(dim):
                        for cc, val in enumerate(xm[r]):
                            if val:
                                mat[row0 + r][c0 + cc] += sign * val
            row0 += dim
        matrices.append(mat)
    return GradedKoszulComplex(k, d, lo, components, matrices)
