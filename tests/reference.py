"""One plain whole-section reference per numerical kernel.

Each kernel of the lab is pinned, bit for bit, to the reference below:
the tests compare the two with ``tobytes()`` or ``np.array_equal``.  The
references are written for reading, not for speed: whole sections, one
action or one field at a time, dense contractions, quotients where the
kernels multiply by reciprocals.  They call no kernel they pin, so a
fault in a kernel cannot cancel out of its comparison.  A kernel rewrite
keeps these references as they are and shows that its bytes did not
move; it adds no copy of its parent's body.

  d_r, d_phi          the radial matrix contracted with einsum, and the
                      eighth-order stencil on rolled copies
  spin_act, chi       einsum contractions with the dense spin matrices
  act_J, act_K        the generator formulas on whole sections
  covariant           D_X v as a sum of single-axis generator actions
  algebra_residual    one second-level action per index pair
  so3_residual,       the splitting diagnostics one field at a time
  vector_op_residual
  connection_form,    the pointwise connection form by einsum, and the
  rk4_edges           RK4 that evaluates it three times per step

The exact engine's printer has one reference too, compared by text: the
sympy view it was first written with (``sympy_component``, ``fmt_sym``),
which builds each coefficient as a sympy expression, puts it in
``sympy.cancel`` normal form and prints sympy's tree.  The engine's
polynomials have theirs in sympy's sparse polynomials over ZZ_I
(``to_sympy``), and the printer's coprimality screen in the same screen
taken over ZZ_I itself with sympy's univariate gcd (``sympy_screen``).
"""

import numpy as np
import sympy as sp
from sympy.polys.domains import ZZ_I
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyRing

from spinsplit import scalars
from spinsplit.connections import _form_matrix
from spinsplit.grid import Section
from spinsplit.lang import _int_text
from spinsplit.poly import Poly
from spinsplit.reps import _entries_act
from spinsplit.poincare import eps

# the sign of the massive spin-boost term, as the boost-boost bracket
# fixes it
SIGMA_BOOST = -1.0
_FD8 = [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105,
        -1 / 280]


# -- grid derivatives ------------------------------------------------------------


def d_r(grid, v):
    return np.einsum("ij,j...->i...", grid._d_r_matrix, v)


def d_phi(grid, v):
    # the stencil applied to one rolled copy of the values per term
    out = np.zeros_like(v)
    for s, c in enumerate(_FD8):
        if c:
            out += c * np.roll(v, 4 - s, axis=2)
    return out / grid.dphi


def derivatives(grid, v, radial=True):
    """(d_r v, d_theta v, d_phi v); d_r v is None without ``radial``."""
    return (d_r(grid, v) if radial else None, grid.d_theta(v),
            d_phi(grid, v))


# -- fiber actions ----------------------------------------------------------------


def spin_act(rep, a, v):
    return np.einsum("bc,...c->...b", rep.spin_mats[a], v)


def chi(rep, grid, v):
    return np.einsum("...bc,...c->...b", rep.chi_field(grid), v)


# -- generator actions ------------------------------------------------------------


def act_J(rep, grid, a, v, der=None):
    # -i (e_phi d_theta - e_theta d_phi / sin(theta)) + S_a
    if der is None:
        der = derivatives(grid, v, radial=False)
    _, dth, dph = der
    out = grid.e_phi[a][..., None] * dth
    term = grid.e_theta[a][..., None] * dph
    term /= grid.sin_theta[..., None]
    out -= term
    del term
    out *= -1j
    out += spin_act(rep, a, v)
    return out


def act_K(rep, grid, a, v, der=None):
    # massive: i omega (grad v)_a, with d_theta v / r and
    # d_phi v / (r sin(theta)) as quotients, then
    # sigma eps_abc S_b v k_c / (omega + m) term by term;
    # massless: khat_a (i |k| d_r v) + (khat x J)_a v
    if der is None:
        der = derivatives(grid, v)
    dr, dth, dph = der
    if rep.kind == "massive":
        omega = grid.omega[..., None]
        r3 = grid.kmag[..., None]
        st = grid.sin_theta[..., None]
        out = grid.e_k[a][..., None] * dr
        term = dth / r3
        term *= grid.e_theta[a][..., None]
        out += term
        np.divide(dph, r3 * st, out=term)
        term *= grid.e_phi[a][..., None]
        out += term
        del term
        out *= 1j * omega
        ks = (grid.kx, grid.ky, grid.kz)
        for b in range(3):
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    spin = spin_act(rep, b, v)
                    spin *= ((SIGMA_BOOST * e / (omega + rep.mass))
                             * ks[c][..., None])
                    out += spin
        return out
    radial = 1j * grid.kmag[..., None] * dr
    out = grid.khat[a][..., None] * radial
    del radial
    for b in range(3):
        for c in range(3):
            e = eps(a, b, c)
            if e:
                term = act_J(rep, grid, c, v, der)
                term *= e * grid.khat[b][..., None]
                out += term
    return out


def act(rep, grid, tag, axis, v, der=None):
    """Generator ``tag`` in {H, P, J, K} along ``axis`` on v."""
    if tag == "H":
        return grid.omega[..., None] * v
    if tag == "P":
        return (grid.kx, grid.ky, grid.kz)[axis][..., None] * v
    return (act_J if tag == "J" else act_K)(rep, grid, axis, v, der)


# -- covariant derivative ------------------------------------------------------------


def covariant(kind, rep, grid, xv, v):
    """D_X v for the tangent field values xv, as a sum of single-axis
    generator actions, each taking its own derivatives of v."""
    omega = grid.omega[..., None]
    xk = (xv[0] * grid.kx + xv[1] * grid.ky + xv[2] * grid.kz)[..., None]
    acc = np.zeros_like(v)
    for a in range(3):
        acc += xv[a][..., None] * act_K(rep, grid, a, v)
    boost = (-1j / omega) * acc - xk / (2.0 * omega**2) * v
    xkhat = sum(xv[a] * grid.khat[a] for a in range(3))[..., None]
    acc = np.zeros_like(v)
    for c in range(3):
        w = sum(eps(c, a, b) * xv[a] * grid.khat[b]
                for a in range(3) for b in range(3) if eps(c, a, b))
        acc += (w / grid.kmag)[..., None] * act_J(rep, grid, c, v)
    if rep.kind == "massless":
        radial = 1j * grid.kmag[..., None] * d_r(grid, v)
    else:
        radial = np.zeros_like(v)
        for b in range(3):
            radial += grid.khat[b][..., None] * act_K(rep, grid, b, v)
    acc += xkhat / omega * radial
    rotation = -1j * acc - xk / (2.0 * omega**2) * v
    if kind.variant == "boost":
        return boost
    if kind.variant == "rotation":
        return rotation
    f = kind.weight(grid.r, rep.mass)[:, None, None, None]
    return f * boost + (1.0 - f) * rotation


# -- commutation relations and splitting diagnostics ------------------------------


def algebra_residual(rep, grid, relation_id, psi):
    """max over index pairs of ||(LHS - RHS) psi|| / ||psi||, with each
    pair building its own second-generator action B_b v and taking a
    derivative pass over it."""
    v = psi.values
    nrm = psi.norm()

    def one_pass(w, tags):
        if not {"J", "K"} & set(tags):
            return None
        return derivatives(grid, w, radial="K" in tags)

    def gen(tag, axis, w, der=None):
        return act(rep, grid, tag, axis, w, der)

    worst = 0.0
    t1, t2 = relation_id[0], relation_id[1]
    vec = {"J", "K", "P"}
    axes1 = range(3) if t1 in vec else (None,)
    axes2 = range(3) if t2 in vec else (None,)
    v_der = one_pass(v, relation_id)
    for a in axes1:
        partners = [b for b in axes2
                    if relation_id not in ("JJ", "KK", "PP") or b > a]
        if not partners:
            continue
        u = gen(t1, a, v, v_der)
        u_der = one_pass(u, t2)
        for b in partners:
            w = gen(t2, b, v, v_der)
            lhs = gen(t1, a, w, one_pass(w, t1)) - gen(t2, b, u, u_der)
            if relation_id in ("JJ", "JK"):
                target = ("J", "K")[relation_id == "JK"]
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * gen(target, c, v, v_der)
            elif relation_id == "KK":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs + 1j * e * gen("J", c, v, v_der)
            elif relation_id == "JP":
                for c in range(3):
                    e = eps(a, b, c)
                    if e:
                        lhs = lhs - 1j * e * gen("P", c, v)
            elif relation_id == "KP":
                if a == b:
                    lhs = lhs - 1j * gen("H", None, v)
            elif relation_id == "KH":
                lhs = lhs - 1j * gen("P", a, v)
            worst = max(worst, Section(rep, grid, lhs).norm() / nrm)
    return worst


def so3_residual(act_on, psi, target=None, curvature=None):
    """max over a < b of ||(X_a X_b - X_b X_a - i eps_abc T_c) psi|| /
    ||psi|| for the one-field action ``act_on(a, section)``, with
    T_c psi = ``target(c, X_c psi)`` (X_c psi itself by default) and
    ``curvature(a, b)`` added when given."""
    nrm = psi.norm()
    x_psi = [act_on(c, psi) for c in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            out = act_on(a, x_psi[b]) - act_on(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    t_c = x_psi[c] if target is None else target(c, x_psi[c])
                    out = out - t_c * (1j * e)
            if curvature is not None:
                out = out + curvature(a, b)
            worst = max(worst, out.norm() / nrm)
    return worst


def vector_op_residual(act_on, j_on, psi):
    """max over (a, b) of ||([X_a, J_b] - i eps_abc X_c) psi|| / ||psi||
    for the one-field actions ``act_on`` and ``j_on``."""
    nrm = psi.norm()
    x_psi = [act_on(c, psi) for c in range(3)]
    j_psi = [j_on(b, psi) for b in range(3)]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            out = act_on(a, j_psi[b]) - j_on(b, x_psi[a])
            for c in range(3):
                e = eps(a, b, c)
                if e:
                    out = out - x_psi[c] * (1j * e)
            worst = max(worst, out.norm() / nrm)
    return worst


# -- transport ----------------------------------------------------------------------


def connection_form(rep, kind, r0, khat, vel):
    """The dense connection form A(vel) at radius r0 and directions khat."""
    cross = np.cross(vel, khat, axis=0)
    s_dot = np.einsum("a...,abc->...bc", cross, rep.spin_mats)
    if rep.kind == "massless":
        coef = -1j / r0
    else:
        m = rep.mass
        omega = np.sqrt(m**2 + r0**2)
        f = float(kind.weight(np.array([r0]), m)[0])
        coef = (f * (-1j * r0 / (omega * (omega + m)))
                + (1.0 - f) * (-1j / r0))
    return coef * s_dot


def entries(form):
    """The (row, column, field) triples of a ``_form_matrix`` form, as
    ``_entries_act`` reads them."""
    positions, fields = form
    return [(b, c, field) for (b, c), field in zip(positions, fields)]


def rk4_edges(rep, kind, r0, th_a, ph_a, th_b, ph_b, n_steps=3,
              dense=False):
    """Edge transport matrices with the form evaluated on its own at each
    step's start, midpoint and end, from fresh sines and cosines, and the
    slopes taken as -A U.  The form is applied through its entries, or
    with ``dense`` as the einsum matrix and a batched product."""
    d = rep.dim
    u = np.broadcast_to(np.eye(d, dtype=np.complex128),
                        np.shape(th_a) + (d, d))
    dth, dph = th_b - th_a, ph_b - ph_a

    def a_of(t):
        th, ph = th_a + dth * t, ph_a + dph * t
        khat = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)])
        e_th = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph),
                         -np.sin(th)])
        e_ph = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)])
        vel = r0 * (dth * e_th + np.sin(th) * dph * e_ph)
        if dense:
            mat = connection_form(rep, kind, r0, khat, vel)
            return lambda w: -(mat @ w)
        form = entries(_form_matrix(rep, kind, r0, khat, vel))
        return lambda w: -np.moveaxis(
            _entries_act(form, d, np.moveaxis(w, -1, 0)), 0, -1)

    h = 1.0 / n_steps
    for i in range(n_steps):
        t = i * h
        a_mid = a_of(t + h / 2)
        k1 = a_of(t)(u)
        k2 = a_mid(u + h / 2 * k1)
        k3 = a_mid(u + h / 2 * k2)
        k4 = a_of(t + h)(u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


# -- the engine's polynomials in sympy ---------------------------------------------

# the engine's variables, real momenta and a positive mass
P1, P2, P3 = sp.symbols("P1 P2 P3", real=True)
M = sp.Symbol("m", positive=True)
SYMPY_RING = PolyRing((P1, P2, P3, M), ZZ_I, lex)


def to_sympy(p):
    """A ``Poly`` as sympy's sparse polynomial over ZZ_I, in the same
    generators and order."""
    return SYMPY_RING.from_dict({m: ZZ_I(x, y) for m, (x, y) in p.items()})


def from_sympy(p):
    """sympy's sparse polynomial over ZZ_I as a ``Poly``."""
    return Poly({m: (int(c.x), int(c.y)) for m, c in p.items()})


def sympy_screen(a, b):
    """The printer's coprimality screen taken over ZZ_I: for each
    variable both depend on, the images at ``_SCREEN_POINT`` must keep
    a's degree and have a constant gcd by sympy."""
    a, b = to_sympy(a), to_sympy(b)
    gens = SYMPY_RING.gens
    for j, (da, db) in enumerate(zip(a.degrees(), b.degrees())):
        if da > 0 and db > 0:
            point = [(x, v) for k, (x, v)
                     in enumerate(zip(gens, scalars._SCREEN_POINT)) if k != j]
            ia, ib = a.evaluate(point), b.evaluate(point)
            if ia.degree() != da or not ia.gcd(ib).is_ground:
                return False
    return True


# -- the printer's sympy view ---------------------------------------------------------

_SYMBOL_NAMES = {P1: "P[1]", P2: "P[2]", P3: "P[3]", M: "m"}


def sympy_component(c):
    """The sympy view of an exact fraction (num, q, den): num/(q*den) in
    ``cancel`` normal form."""
    n, q, d = c
    expr = to_sympy(n).as_expr()
    if q != 1 or d:
        expr = expr / sp.Mul(q, *(to_sympy(f).as_expr() ** e
                                  for f, e in d.items()))
    return expr if expr.is_Atom else sp.cancel(expr)


def sympy_parts(s):
    """{(eH, eR): sympy view} of a Scalar's components."""
    return {k: sympy_component(c) for k, c in s._c.items()}


def fmt_sym(expr) -> str:
    """Print a sympy coefficient expression in the operator grammar."""
    if expr is sp.I:
        return "i"
    if expr in _SYMBOL_NAMES:
        return _SYMBOL_NAMES[expr]
    if expr.is_Integer:
        return _int_text(int(expr))
    if expr.is_Rational:
        return f"({_int_text(expr.p)}/{_int_text(expr.q)})"
    if expr.is_Add:
        parts = [fmt_sym(a) for a in
                 sorted(expr.args, key=sp.default_sort_key)]
        return "(" + " + ".join(parts) + ")"
    if expr.is_Mul:
        coeff, rest = expr.as_coeff_mul()
        factors = [fmt_sym(f) for f in sorted(rest, key=sp.default_sort_key)]
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return fmt_sym(coeff) + "*" + body
    if expr.is_Pow:
        base, expo = expr.args
        if expo.is_Integer:
            return f"Pow({fmt_sym(base)},{int(expo)})"
    raise ValueError(f"coefficient not printable in the grammar: {expr}")


def component_text(c):
    """(text, is a sum) of a component, printed from its sympy view."""
    expr = sympy_component(c)
    return fmt_sym(expr), bool(expr.is_Add)
