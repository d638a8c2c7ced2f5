"""Named catalog of exact operator identities, and the symbolic builders
for the connections and angular-momentum splittings they involve.

Every catalog entry is a list of (lhs, rhs) pairs of operator expressions
whose difference must normal-form to exactly zero.  The Poincare bracket
entries take their right-hand sides from ``algebra.BRACKETS``, the table
the numerical algebra check also reads, and their left-hand sides from
the normal-ordering engine, which keeps its own copy of the brackets.
``identity_suite`` runs the catalog and reports per-entry results; a
deliberate sign flip can be injected for mutation control.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import (
    OperatorExpr,
    VectorExpr,
    bracket_axes,
    bracket_terms,
    commutator,
    gen_J,
    gen_K,
    op_H,
    op_P,
    op_Pmag,
    op_m,
    op_scalar,
    vec_J,
    vec_K,
    vec_P,
    vec_Phat,
)
from .scalars import _EPS_PAIRS, Ring

__all__ = [
    "boost_connection",
    "rotation_connection",
    "affine_connection",
    "flat_connection",
    "orbital_part",
    "spin_part",
    "helicity_op",
    "parallel_angular_momentum",
    "perpendicular_angular_momentum",
    "newton_wigner",
    "spin_closed_form",
    "CATALOG",
    "MASSLESS_CATALOG",
    "identity_suite",
    "TEXT_CATALOG",
]


def _i(ring: Ring) -> OperatorExpr:
    return OperatorExpr.from_scalar(ring.i())


# -- connection and splitting builders --------------------------------------


@lru_cache(maxsize=None)
def boost_connection(ring: Ring) -> VectorExpr:
    """Cartesian components of the boost-induced connection:
    D_a = -i K_a / H - P_a / (2 H^2), with the inverse-energy coefficient
    multiplying on the left."""
    H_inv = op_H(ring) ** -1
    return VectorExpr(
        -_i(ring) * H_inv * gen_K(ring, a) - op_P(ring, a) * H_inv**2 / 2
        for a in range(3)
    )


@lru_cache(maxsize=None)
def rotation_connection(ring: Ring) -> VectorExpr:
    """Cartesian components of the rotation-induced connection:
        D_a = -i [ (Phat x J)_a / |P| + Phat_a (Phat.K) / H - i P_a / (2H^2) ].
    """
    i = _i(ring)
    H_inv = op_H(ring) ** -1
    R_inv = op_Pmag(ring) ** -1
    Phat = vec_Phat(ring)
    ph_cross_j = Phat.cross(vec_J(ring))
    ph_dot_k = Phat.dot(vec_K(ring))
    return VectorExpr(
        -i
        * (
            R_inv * ph_cross_j[a]
            + H_inv * Phat[a] * ph_dot_k
            - i * op_P(ring, a) * H_inv**2 / 2
        )
        for a in range(3)
    )


def affine_connection(ring: Ring, f: OperatorExpr) -> VectorExpr:
    """f D^K + (1 - f) D^R for a scalar-valued weight f."""
    one = op_scalar(ring, 1)
    dk = boost_connection(ring)
    dr = rotation_connection(ring)
    return VectorExpr(f * dk[a] + (one - f) * dr[a] for a in range(3))


@lru_cache(maxsize=None)
def flat_connection(ring: Ring) -> VectorExpr:
    """The affine connection at weight f = H/m (massive only)."""
    if ring.massless:
        raise ValueError("the flat affine weight H/m requires m > 0")
    f = op_H(ring) / ring.m()
    return affine_connection(ring, f)


def orbital_part(ring: Ring, conn: VectorExpr) -> VectorExpr:
    """L = -i (P x D) (momentum components act as scalar coefficients on
    the left)."""
    return -_i(ring) * vec_P(ring).cross(conn)


def spin_part(ring: Ring, conn: VectorExpr) -> VectorExpr:
    """S = J - L for the splitting induced by a connection."""
    return vec_J(ring) - orbital_part(ring, conn)


@lru_cache(maxsize=None)
def helicity_op(ring: Ring) -> OperatorExpr:
    """chi = Phat . J."""
    return vec_Phat(ring).dot(vec_J(ring))


@lru_cache(maxsize=None)
def parallel_angular_momentum(ring: Ring) -> VectorExpr:
    """J_par = (J.Phat) Phat = chi Phat (the two contractions agree)."""
    return helicity_op(ring) * vec_Phat(ring)


@lru_cache(maxsize=None)
def perpendicular_angular_momentum(ring: Ring) -> VectorExpr:
    """J_perp = -(1/H) P x K (the massless orbital candidate)."""
    return -op_H(ring) ** -1 * vec_P(ring).cross(vec_K(ring))


@lru_cache(maxsize=None)
def newton_wigner(ring: Ring) -> VectorExpr:
    """Closed-form position operator
        Q_a = (1/H)(K_a - i P_a / (2H))
              - (1/(m H (H+m))) [P x (H J + P x K)]_a.
    The i in the first parenthesis is required for Q = i D^+ (and for
    Hermiticity); see the decisions ledger for the discrepancy with the
    commonly printed form."""
    if ring.massless:
        raise ValueError("the closed-form position operator requires m > 0")
    i = _i(ring)
    H = op_H(ring)
    H_inv = H**-1
    m = op_m(ring)
    J = vec_J(ring)
    K = vec_K(ring)
    P = vec_P(ring)
    p_cross = P.cross(H * J + P.cross(K))
    coeff = (m * H * (H + m)) ** -1
    return VectorExpr(
        H_inv * (gen_K(ring, a) - i * op_P(ring, a) * H_inv / 2)
        - coeff * p_cross[a]
        for a in range(3)
    )


@lru_cache(maxsize=None)
def spin_closed_form(ring: Ring) -> VectorExpr:
    """Closed-form internal operator
    S = (1/m)(H J + P x K) - (1/(m(H+m))) (P.J) P."""
    if ring.massless:
        raise ValueError("the closed-form spin operator requires m > 0")
    H = op_H(ring)
    m = op_m(ring)
    J = vec_J(ring)
    P = vec_P(ring)
    pxk = P.cross(vec_K(ring))
    pj = P.dot(J)
    c1 = m**-1
    c2 = (m * (H + m)) ** -1
    return VectorExpr(
        c1 * (H * J[a] + pxk[a]) - c2 * pj * op_P(ring, a) for a in range(3)
    )


# -- catalog ------------------------------------------------------------------


_GENERATORS = {"J": gen_J, "K": gen_K, "P": op_P,
               "H": lambda r, axis: op_H(r)}


def _bracket_pairs(families, r):
    """[A_a, B_b] against i times its ``BRACKETS`` terms, for each family
    "AB" in turn and every axis pair (a, b) of it."""
    out = []
    for family in families:
        letter_a, letter_b = family
        for a in bracket_axes(letter_a):
            for b in bracket_axes(letter_b):
                rhs = sum((k * _i(r) * _GENERATORS[c](r, axis)
                           for k, c, axis in bracket_terms(family, a, b)),
                          op_scalar(r, 0))
                out.append((commutator(_GENERATORS[letter_a](r, a),
                                       _GENERATORS[letter_b](r, b)), rhs))
    return out


def _pairs_inverse_comm(r):
    out = []
    for base in (op_H(r), op_Pmag(r), op_H(r) + op_m(r)):
        inv = base ** -1
        lhs = commutator(gen_K(r, 0), inv)
        rhs = -inv * commutator(gen_K(r, 0), base) * inv
        out.append((lhs, rhs))
    return out


def _pairs_power(base, slope, r):
    """[K_a, B^n] against n B^(n-1) [K_a, B] for the scalar B = base(r),
    with [K_a, B] = slope(r, a) in closed form."""
    b = base(r)
    return [(commutator(gen_K(r, a), b ** n), n * slope(r, a) * b ** (n - 1))
            for a in (0, 1) for n in range(-3, 4)]


def _pairs_pk_pa(r):
    pk = vec_P(r).dot(vec_K(r))
    return [(commutator(pk, op_P(r, a)), _i(r) * op_H(r) * op_P(r, a))
            for a in range(3)]


def _pairs_phat_k(r):
    out = []
    H = op_H(r)
    R_inv = op_Pmag(r) ** -1
    for a in range(3):
        pa = OperatorExpr.from_scalar(r.Phat(a))
        for b in range(3):
            lhs = commutator(pa, gen_K(r, b))
            rhs = _i(r) * H * op_P(r, a) * op_P(r, b) * R_inv**3
            if a == b:
                rhs = rhs - _i(r) * H * R_inv
            out.append((lhs, rhs))
    return out


def _pairs_weighted_boost_momentum(r):
    out = []
    H = op_H(r)
    for m_exp in (-1, 0, 1):
        for n_exp in (-1, 0, 1):
            # a representative diagonal and two off-diagonal axis pairs;
            # the full axis dependence is covered by the unweighted entry
            for a, b in ((0, 0), (0, 1), (1, 0)):
                    lhs = commutator(H**m_exp * gen_K(r, a),
                                     H**n_exp * op_P(r, b))
                    rhs = (_i(r) * n_exp * op_P(r, a) * op_P(r, b)
                           * H ** (m_exp + n_exp - 1))
                    if a == b:
                        rhs = rhs + _i(r) * H ** (m_exp + n_exp + 1)
                    out.append((lhs, rhs))
    return out


def _pairs_contraction_asymmetry(vector, rhs, r):
    """V.K - K.V against its closed form rhs(r) for the vector V."""
    V, K = vector(r), vec_K(r)
    return [(V.dot(K) - K.dot(V), rhs(r))]


def _pairs_bac_abc(r):
    out = []
    Phat, P = vec_Phat(r), vec_P(r)
    for A, B, C in [
        (Phat, Phat, vec_J(r)),
        (Phat, P, vec_K(r)),
        (P, Phat, vec_J(r)),
    ]:
        lhs = A.cross(B.cross(C))
        adc = A.dot(C)
        adb = A.dot(B)
        rhs = VectorExpr(B[i] * adc - adb * C[i] for i in range(3))
        out.extend((lhs[i], rhs[i]) for i in range(3))
    return out


def _pairs_decomposition(vector, r):
    """V = Phat (Phat.V) - Phat x (Phat x V) for the generator vector V."""
    Phat, V = vec_Phat(r), vector(r)
    par = VectorExpr(Phat[a] * Phat.dot(V) for a in range(3))
    perp = -Phat.cross(Phat.cross(V))
    return [(V[a], par[a] + perp[a]) for a in range(3)]


def _rotation_connection_symmetrized(r):
    """The manifestly symmetrized form of ``rotation_connection``:
        D_a = -i [ (Phat x J)_a / |P| - i Phat_a / |P| ]
              - (i/2) [ Phat_a (Phat.K) / H + (K.Phat) Phat_a / H ]."""
    i = _i(r)
    H_inv = op_H(r) ** -1
    R_inv = op_Pmag(r) ** -1
    Phat, J, K = vec_Phat(r), vec_J(r), vec_K(r)
    ph_cross_j = Phat.cross(J)
    ph_dot_k = Phat.dot(K)
    k_dot_ph = K.dot(Phat)
    return VectorExpr(
        -i * (R_inv * ph_cross_j[a] - i * R_inv * Phat[a])
        - i * (H_inv * Phat[a] * ph_dot_k + k_dot_ph * Phat[a] * H_inv) / 2
        for a in range(3)
    )


def _pairs_rotation_forms(r):
    d1 = rotation_connection(r)
    d2 = _rotation_connection_symmetrized(r)
    return [(d1[a], d2[a]) for a in range(3)]


def _pairs_rotation_bridge(r):
    H_inv = op_H(r) ** -1
    R_inv = op_Pmag(r) ** -1
    Phat, K = vec_Phat(r), vec_K(r)
    ph_dot_k = Phat.dot(K)
    k_dot_ph = K.dot(Phat)
    out = []
    for a in range(3):
        lhs = H_inv * Phat[a] * ph_dot_k
        rhs = (k_dot_ph * Phat[a] * H_inv
               + _i(r) * op_P(r, a) * H_inv**2
               - 2 * _i(r) * Phat[a] * R_inv)
        out.append((lhs, rhs))
    return out


def _pairs_boost_curvature_commutator(r):
    H_inv = op_H(r) ** -1
    lhs = commutator(H_inv * gen_K(r, 0), H_inv * gen_K(r, 1))
    rhs = (-_i(r) * H_inv**2 * gen_J(r, 2)
           + _i(r) * H_inv**3 * (-op_P(r, 0) * gen_K(r, 1)
                                 + op_P(r, 1) * gen_K(r, 0)))
    return [(lhs, rhs)]


def _pairs_self_adjoint(connection, r):
    """(i D_a)^adjoint against i D_a for each component of a connection."""
    qs = [_i(r) * d for d in connection(r)]
    return [(q.adjoint(), q) for q in qs]


def _pairs_quotient_soundness(r):
    H, R, m = op_H(r), op_Pmag(r), op_m(r)
    psq = vec_P(r).dot(vec_P(r))
    out = [
        (H * H, psq + m * m),
        (H ** -1, H / (psq + m * m)),
        (R * R, psq),
    ]
    if not r.massless:
        out.append(((H + m) ** -1, (H - m) / psq))
    return out


def _pairs_adjoint_momentum_cross(r):
    pxj = vec_P(r).cross(vec_J(r))
    return [
        (pxj[a].adjoint(), pxj[a] - 2 * _i(r) * op_P(r, a))
        for a in range(3)
    ]


def _pairs_flat_nw(r):
    dplus = flat_connection(r)
    q = newton_wigner(r)
    return [(_i(r) * dplus[a], q[a]) for a in range(3)]


def _pairs_flat_spin(r):
    s = spin_part(r, flat_connection(r))
    s_closed = spin_closed_form(r)
    return [(s[a], s_closed[a]) for a in range(3)]


def _pairs_boost_orbital(r):
    l = orbital_part(r, boost_connection(r))
    jperp = perpendicular_angular_momentum(r)
    return [(l[a], jperp[a]) for a in range(3)]


def _pairs_rotation_orbital(r):
    l = orbital_part(r, rotation_connection(r))
    Phat, J = vec_Phat(r), vec_J(r)
    target = -Phat.cross(Phat.cross(J))
    return [(l[a], target[a]) for a in range(3)]


_UPPER_PAIRS = ((0, 1), (0, 2), (1, 2))
_ALL_PAIRS = tuple((a, b) for a in range(3) for b in range(3))


def _eps_bracket_pairs(r, x, y, t, axis_pairs):
    """[X_a, Y_b] against i eps_abc T_c for each axis pair (a, b), summed
    over the nonzero eps terms only."""
    zero = op_scalar(r, 0)
    return [(commutator(x[a], y[b]),
             sum((e * _i(r) * t[c] for b2, c, e in _EPS_PAIRS[a] if b2 == b),
                 zero))
            for a, b in axis_pairs]


def _pairs_parallel_commutators(r):
    jpar = parallel_angular_momentum(r)
    zero = VectorExpr([op_scalar(r, 0)] * 3)
    return _eps_bracket_pairs(r, jpar, jpar, zero, _UPPER_PAIRS)


def _pairs_perpendicular_commutators(r):
    jperp = perpendicular_angular_momentum(r)
    t = jperp - parallel_angular_momentum(r)
    return _eps_bracket_pairs(r, jperp, jperp, t, _UPPER_PAIRS)


def _pairs_split_vector_ops(r):
    J = vec_J(r)
    return [pair
            for part in (parallel_angular_momentum(r),
                         perpendicular_angular_momentum(r))
            for pair in _eps_bracket_pairs(r, part, J, part, _ALL_PAIRS)]


# Entries checked in the massive ring (m a positive symbol).
CATALOG = {
    "rotation-generators": partial(_bracket_pairs, ("JJ",)),
    "rotation-boost-mixed": partial(_bracket_pairs, ("JK",)),
    "boost-generators": partial(_bracket_pairs, ("KK",)),
    "rotation-momentum": partial(_bracket_pairs, ("JP",)),
    "boost-momentum": partial(_bracket_pairs, ("KP",)),
    "boost-energy": partial(_bracket_pairs, ("KH",)),
    "rotation-energy": partial(_bracket_pairs, ("JH",)),
    "translation-sector": partial(_bracket_pairs, ("PP", "PH", "HH")),
    "inverse-commutator": _pairs_inverse_comm,
    "energy-power-commutator": partial(
        _pairs_power, op_H, lambda r, a: _i(r) * op_P(r, a)),
    "momentum-power-commutator": partial(
        _pairs_power, op_Pmag,
        lambda r, a: _i(r) * op_H(r) * op_P(r, a) * op_Pmag(r) ** -1),
    "momentum-boost-contraction": _pairs_pk_pa,
    "unit-momentum-boost": _pairs_phat_k,
    "weighted-boost-momentum": _pairs_weighted_boost_momentum,
    "unit-contraction-asymmetry": partial(
        _pairs_contraction_asymmetry, vec_Phat,
        lambda r: -2 * _i(r) * op_H(r) * op_Pmag(r) ** -1),
    "contraction-asymmetry": partial(
        _pairs_contraction_asymmetry, vec_P,
        lambda r: -3 * _i(r) * op_H(r)),
    "triple-cross-expansion": _pairs_bac_abc,
    "angular-momentum-decomposition": partial(_pairs_decomposition,
                                               vec_J),
    "boost-decomposition": partial(_pairs_decomposition, vec_K),
    "rotation-connection-forms": _pairs_rotation_forms,
    "rotation-connection-bridge": _pairs_rotation_bridge,
    "boost-curvature-commutator": _pairs_boost_curvature_commutator,
    "boost-connection-self-adjoint": partial(_pairs_self_adjoint,
                                              boost_connection),
    "rotation-connection-self-adjoint": partial(_pairs_self_adjoint,
                                                 rotation_connection),
    "quotient-soundness": _pairs_quotient_soundness,
    "adjoint-momentum-cross": _pairs_adjoint_momentum_cross,
    "flat-connection-position": _pairs_flat_nw,
    "flat-connection-spin": _pairs_flat_spin,
    "boost-orbital-form": _pairs_boost_orbital,
    "rotation-orbital-form": _pairs_rotation_orbital,
}

# Entries checked in the massless quotient (m = 0, H folded to |P|).
MASSLESS_CATALOG = {
    "massless-parallel-commutators": _pairs_parallel_commutators,
    "massless-perpendicular-commutators": _pairs_perpendicular_commutators,
    "massless-split-vector-ops": _pairs_split_vector_ops,
    "massless-quotient-soundness": _pairs_quotient_soundness,
}


def identity_suite(massless: bool = False, flip_sign_of: str | None = None):
    """Run the identity catalog.

    Returns a list of records {name, count, zero, failures} where
    ``failures`` is the number of (lhs, rhs) pairs whose difference did not
    normal-form to zero.  ``flip_sign_of`` negates the right-hand sides of
    the named entry (mutation control: the suite must then report it
    nonzero).
    """
    ring = Ring(massless=massless)
    catalog = MASSLESS_CATALOG if massless else CATALOG
    records = []
    for name, build in catalog.items():
        pairs = build(ring)
        failures = 0
        for lhs, rhs in pairs:
            if flip_sign_of == name:
                rhs = -rhs
            if not (lhs - rhs).is_zero():
                failures += 1
        records.append(
            {
                "name": name,
                "count": len(pairs),
                "zero": failures == 0,
                "failures": failures,
            }
        )
    return records


# Textual forms (operator-language source) of representative identities;
# each string must parse, lower, and normal-form to exactly zero.  The
# full structural catalog above is exercised through the printer in the
# round-trip tests.
TEXT_CATALOG = [
    "Comm(J[1],J[2]) - i*J[3]",
    "Comm(J[2],J[3]) - i*J[1]",
    "Comm(J[1],K[2]) - i*K[3]",
    "Comm(K[1],K[2]) + i*J[3]",
    "Comm(J[1],P[2]) - i*P[3]",
    "Comm(K[1],P[1]) - i*H",
    "Comm(K[1],P[2])",
    "Comm(K[1],H) - i*P[1]",
    "Comm(J[3],H)",
    "Comm(P[1],P[2])",
    "Comm(J[1],J[1])",
    "Comm(K[1],Pow(H,2)) - 2*i*P[1]*H",
    "Comm(K[1],Pow(H,-1)) + i*P[1]*Pow(H,-2)",
    "Comm(K[2],Pow(H,3)) - 3*i*P[2]*Pow(H,2)",
    "Comm(K[1],Pow(Dot(P,P),1/2)) - i*H*P[1]*Pow(Dot(P,P),-1/2)",
    "Comm(K[3],Dot(P,P)) - 2*i*H*P[3]",
    "Comm(Dot(P,K),P[2]) - i*H*P[2]",
    "Comm(Phat[1],K[2]) - i*H*P[1]*P[2]*Pow(Dot(P,P),-3/2)",
    "Dot(Phat,K) - Dot(K,Phat) + 2*i*H*Pow(Dot(P,P),-1/2)",
    "Dot(P,K) - Dot(K,P) + 3*i*H",
    "Dot(P,Cross(P,J))",
    "Cross(Phat,Cross(Phat,J)) - Phat*Dot(Phat,J) + J",
    "Adjoint(Cross(P,J)) - Cross(P,J) + 2*i*P",
    "Pow(H,2) - Dot(P,P) - Pow(m,2)",
    "Adjoint(K[1]/H - i*P[1]/(2*Pow(H,2))) - K[1]/H + i*P[1]/(2*Pow(H,2))",
    "Comm(H*K[1], P[1]/H) - i*H + i*P[1]*P[1]/H",
]
