"""Acceptance gate: ten [PRIMARY] criteria, each reported as a single
pass/fail line with its tolerance and runtime.

The criteria pin down the package's central claims end to end: the
exact symbolic identity catalog, grid convergence of the generator
algebra, the topology of the helicity bundle, the curvature closed
forms, the equivalence "splitting closes so(3) iff the connection has
no curvature on the shell", the flat-connection position operator, the
boost/rotation degeneracy structure, the curvature minimum of the
radial-weight family, loop-transport predictions, and the operator
language round-trip.
"""

import random
import time

import numpy as np

from spinsplit.algebra import VectorExpr, commutator, gen_J, op_scalar
from spinsplit.connections import (
    ConnectionKind,
    HolonomyLoop,
    TangentField,
    apply_connection,
    chern_number,
    cross_commutator_check,
    curvature_commutator,
    holonomy,
    lambda_flat_profile,
)
from spinsplit.grid import MomentumGrid, Section
from spinsplit.identities import TEXT_CATALOG, identity_suite
from spinsplit.lang import LangError, format_expr, lower, parse
from spinsplit.report import DEGENERACY_GAP_MIN, RunConfig
from spinsplit.reps import (
    RepSpec,
    _act_chi,
    algebra_residual,
    inner,
    random_test_section,
    relation_ids,
)
from spinsplit.scalars import Ring
from spinsplit.splitting import (
    SplitOperators,
    defect_identity_residual,
    jperp_so3_residual,
    nw_gradient_residual,
    nw_match_residual,
    so3_residual,
)

import conftest
from conftest import MASS

LADDER = ((4, 12, 24), (6, 24, 48), (8, 48, 96))
SEED = 7
ETH = TangentField.named("e_theta")
EPH = TangentField.named("e_phi")


# the transport constants of the chern and holonomy suites, read from the
# report's defaults so the gate and the suites share one threshold
_TRANSPORT = RunConfig(["chern", "holonomy"])
TOL_CHERN = _TRANSPORT.tolerance("chern")
TOL_ANGLE = _TRANSPORT.tolerance("holonomy")
TOL_FLAT = _TRANSPORT.tolerance("holonomy_flat")
R0 = _TRANSPORT.r0


def _grid(dims, mass):
    return MomentumGrid(*dims, 1.0, 2.0, mass=mass)


def _order(e_coarse, e_fine, nt_coarse, nt_fine):
    if e_coarse < 1e-12 or e_fine < 1e-12:
        return None
    return float(np.log(e_coarse / e_fine) / np.log(nt_fine / nt_coarse))


def _criterion(num, name, ok, detail, t0):
    line = (f"[PRIMARY {num}] {'PASS' if ok else 'FAIL'} {name}: "
            f"{detail}; {time.time() - t0:.1f}s")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


ALL_REPS = [RepSpec.massive(MASS, 0), RepSpec.massive(MASS, 1),
            RepSpec.massless(-1), RepSpec.massless(0),
            RepSpec.massless(1)]


def test_criterion_01_symbolic_catalog_exact():
    t0 = time.time()
    records = identity_suite(massless=False) + identity_suite(
        massless=True)
    failures = sum(r["failures"] for r in records)
    count = sum(r["count"] for r in records)
    elapsed = time.time() - t0
    ok = failures == 0 and count > 0 and elapsed < 10.0
    _criterion(1, "symbolic-identities",
               ok, f"{count} identity pairs, {failures} nonzero "
                   f"(required: 0, within 10s)", t0)


def test_criterion_02_generator_algebra_converges():
    t0 = time.time()
    tol = 1e-3
    worst_top = 0.0
    worst_rep = None
    orders = []
    for rep in ALL_REPS:
        resid = {rid: [] for rid in relation_ids()}
        for dims in LADDER:
            g = _grid(dims, rep.mass)
            psi = random_test_section(rep, g, seed=SEED)
            for rid in relation_ids():
                resid[rid].append(algebra_residual(rid, psi))
        for rid, es in resid.items():
            if es[-1] > worst_top:
                worst_top, worst_rep = es[-1], (rep, rid)
            o = _order(es[1], es[2], LADDER[1][1], LADDER[2][1])
            if o is not None:
                orders.append(o)
    mean_order = float(np.mean(orders))
    elapsed = time.time() - t0
    ok = worst_top <= tol and mean_order >= 2.0 and elapsed < 180.0
    _criterion(2, "generator-algebra",
               ok, f"max residual {worst_top:.3e} at {LADDER[-1]} over "
                   f"5 reps x 10 bracket families (tol {tol}); mean "
                   f"order {mean_order:.2f} (>= 2); within 180s", t0)


def test_criterion_03_chern_number():
    t0 = time.time()
    ok = True
    worst_raw = 0.0
    for h in (-1, 0, 1):
        rep = RepSpec.massless(h)
        vals = []
        for kind in (ConnectionKind.boost(), ConnectionKind.rotation(),
                     ConnectionKind.affine(lambda r, m: 1.0)):
            n, raw = chern_number(rep, kind, n_theta=48, n_phi=96)
            vals.append((n, raw))
            ok = ok and n == -2 * h and abs(raw - n) <= TOL_CHERN
            worst_raw = max(worst_raw, abs(raw - n))
        ok = ok and len({n for n, _ in vals}) == 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _criterion(3, "chern-number",
               ok, f"integer = -2h for h in {{-1,0,1}} on 48x96, "
                   f"independent of connection kind; max |raw - int| "
                   f"{worst_raw:.2e} (tol {TOL_CHERN:g}); within 60s", t0)


def test_criterion_04_curvature_closed_forms():
    t0 = time.time()
    tol = 1e-3
    rep = RepSpec.massive(MASS, 1)
    res_k, res_r, res_x = [], [], []
    for dims in LADDER:
        g = _grid(dims, MASS)
        psi = random_test_section(rep, g, seed=11, polar_damping=4)
        chi = _act_chi(rep, g, psi.values)
        fk = curvature_commutator(ConnectionKind.boost(), ETH, EPH, psi)
        pk = (1j / (MASS**2 + g.kmag**2))[..., None] * chi
        res_k.append(Section(rep, g, fk.values - pk).norm() / psi.norm())
        fr = curvature_commutator(ConnectionKind.rotation(), ETH, EPH,
                                  psi)
        pr = (1j / g.kmag**2)[..., None] * chi
        res_r.append(Section(rep, g, fr.values - pr).norm() / psi.norm())
        psix = random_test_section(rep, g, seed=4, polar_damping=4)
        res_x.append(max(cross_commutator_check(psix).values()))
    # spin-0 cross-commutators at the reference rung
    g = _grid(LADDER[-1], MASS)
    psi0 = random_test_section(RepSpec.massive(MASS, 0), g, seed=4,
                               polar_damping=4)
    x0 = max(cross_commutator_check(psi0).values())
    orders = [_order(a, b, LADDER[1][1], LADDER[2][1])
              for a, b in ((res_k[1], res_k[2]), (res_r[1], res_r[2]),
                           (res_x[1], res_x[2]))]
    min_order = min(o for o in orders if o is not None)
    top = max(res_k[-1], res_r[-1], res_x[-1], x0)
    ok = top <= tol and min_order >= 2.0
    _criterion(4, "curvature-closed-forms",
               ok, f"boost/rotation curvature and mixed commutators "
                   f"match their generator closed forms: max residual "
                   f"{top:.3e} at {LADDER[-1]} (tol {tol}), min order "
                   f"{min_order:.2f} (>= 2)", t0)


def test_criterion_05_splitting_closure_iff_flat():
    t0 = time.time()
    tol = 1e-3
    rep = RepSpec.massive(MASS, 1)
    flat = []
    for dims in LADDER:
        g = _grid(dims, MASS)
        psi = random_test_section(rep, g, seed=SEED)
        ops = SplitOperators(ConnectionKind.flat_massive())
        flat.append(so3_residual(ops, psi))
    order = _order(flat[1], flat[2], LADDER[1][1], LADDER[2][1])
    gl = _grid(LADDER[-1], 0.0)
    repl = RepSpec.massless(1)
    psil = random_test_section(repl, gl, seed=SEED, polar_damping=4)
    opsl = SplitOperators(ConnectionKind.boost())
    massless_so3 = so3_residual(opsl, psil)
    defect = defect_identity_residual(opsl, psil)
    jperp = jperp_so3_residual(psil)
    ok = (flat[-1] <= tol and order is not None and order >= 2.0
          and massless_so3 > 0.1 and defect <= tol and jperp <= tol)
    _criterion(5, "splitting-closure-iff-flat",
               ok, f"flat massive so(3) residual {flat[-1]:.3e} -> 0 at "
                   f"order {order:.2f} (tol {tol}, order >= 2); massless "
                   f"so(3) residual {massless_so3:.3f} stays O(1) and "
                   f"equals the curvature defect to {defect:.1e} "
                   f"(tol {tol}); perpendicular commutator relation "
                   f"{jperp:.1e} (tol {tol})", t0)


def test_criterion_06_position_operator():
    t0 = time.time()
    tol = 1e-6
    rep = RepSpec.massive(MASS, 1)
    g = MomentumGrid(10, 64, 128, 1.0, 2.0, mass=MASS)
    psi = random_test_section(rep, g, seed=SEED)
    match = nw_match_residual(psi)
    grad = nw_gradient_residual(psi)
    ok = match <= tol and grad <= tol
    _criterion(6, "position-operator",
               ok, f"affine and closed-form constructions agree to "
                   f"{match:.1e}, and act as i*grad in plain-measure "
                   f"coordinates to {grad:.1e} on (10,64,128) "
                   f"(tol {tol})", t0)


def test_criterion_07_degeneracy_structure():
    t0 = time.time()
    tol = 1e-6
    rng = np.random.default_rng(SEED)
    worst_massless = 0.0
    gl = _grid(LADDER[-1], 0.0)
    for h in (-1, 0, 1):
        rep = RepSpec.massless(h)
        psi = random_test_section(rep, gl, seed=SEED)
        for _ in range(10):
            x = TangentField.from_array(
                rng.normal(size=(3,) + gl.shape))
            d = (apply_connection(ConnectionKind.boost(), x, psi)
                 - apply_connection(ConnectionKind.rotation(), x, psi)
                 ).norm() / psi.norm()
            worst_massless = max(worst_massless, d)
    # massive spin-1 gap on transverse frames, refinement-stable
    rep = RepSpec.massive(MASS, 1)
    gaps = []
    for dims in LADDER[1:]:
        g = _grid(dims, MASS)
        psi = random_test_section(rep, g, seed=SEED)
        gap = np.inf
        for _ in range(10):
            vals = rng.normal(size=(3,) + g.shape)
            radial = sum(g.khat[a] * vals[a] for a in range(3))
            vals = np.stack([vals[a] - radial * g.khat[a]
                             for a in range(3)])
            x = TangentField.from_array(vals)
            d = (apply_connection(ConnectionKind.boost(), x, psi)
                 - apply_connection(ConnectionKind.rotation(), x, psi)
                 ).norm() / psi.norm()
            gap = min(gap, d)
        gaps.append(gap)
    stable = abs(gaps[1] - gaps[0]) / gaps[1] < 0.5
    ok = worst_massless <= tol and min(gaps) > DEGENERACY_GAP_MIN and stable
    _criterion(7, "boost-rotation-degeneracy",
               ok, f"massless connections coincide to "
                   f"{worst_massless:.1e} over 10 random fields x 3 "
                   f"helicities (tol {tol}); massive spin-1 transverse "
                   f"gap {gaps[-1]:.3f} > {DEGENERACY_GAP_MIN}, stable "
                   f"under refinement",
               t0)


def test_criterion_08_radial_weight_scan():
    t0 = time.time()
    rep = RepSpec.massive(MASS, 1)
    g = _grid(LADDER[-1], MASS)
    psi = random_test_section(rep, g, seed=11, polar_damping=4)
    chi = _act_chi(rep, g, psi.values)
    ref = Section(rep, g, (1j / g.kmag**2)[..., None] * chi)
    denom = inner(ref, ref)
    lams = (0.5, 0.9, 1.0, 1.1, 2.0)
    norms, coeff_err = {}, 0.0
    for lam in lams:
        kind = ConnectionKind.affine(lambda_flat_profile(lam))
        F = curvature_commutator(kind, ETH, EPH, psi)
        norms[lam] = F.norm() / psi.norm()
        c = (inner(ref, F) / denom).real
        pred = 1.0 - lam**2
        if lam != 1.0:
            coeff_err = max(coeff_err, abs(c - pred) / abs(pred))
    argmin = min(norms, key=norms.get)
    ok = argmin == 1.0 and coeff_err <= 0.01
    _criterion(8, "radial-weight-scan",
               ok, f"curvature norm over lambda in {lams} minimized at "
                   f"lambda={argmin}; projected coefficient matches "
                   f"(1 - lambda^2) to {coeff_err:.2e} (tol 0.01)", t0)


def test_criterion_09_loop_transport():
    t0 = time.time()
    rep = RepSpec.massive(MASS, 1)
    r0 = R0
    om2 = MASS**2 + r0**2
    worst_rel = 0.0
    worst_flat = 0.0
    for area_target in (0.01, 0.05):
        th1 = np.pi / 2 - 0.2
        dphi = float(np.sqrt(area_target))
        th2 = float(np.arccos(np.cos(th1) - area_target / dphi))
        loop = HolonomyLoop(r0, th1, th2, 0.3, 0.3 + dphi)
        area = loop.solid_angle()
        u = holonomy(rep, ConnectionKind.boost(), loop, n_steps=96)
        tr = float(np.real(np.trace(u)))
        meas = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
        pred = area * r0**2 / om2
        worst_rel = max(worst_rel, abs(meas - pred) / pred)
        uf = holonomy(rep, ConnectionKind.flat_massive(), loop,
                      n_steps=96)
        worst_flat = max(worst_flat,
                         float(np.linalg.norm(uf - np.eye(rep.dim))))
    ok = worst_rel <= TOL_ANGLE and worst_flat <= TOL_FLAT
    _criterion(9, "loop-transport",
               ok, f"boost rotation angle matches the area prediction to "
                   f"{worst_rel:.2e} (tol {TOL_ANGLE:g}) on loops of "
                   f"solid angle 0.01 and 0.05; flat transport defect "
                   f"{worst_flat:.1e} (tol {TOL_FLAT:g})", t0)


def test_criterion_10_language_round_trip_and_fuzz():
    t0 = time.time()
    ring = Ring()
    # 100% round-trip through the printer
    total, good = 0, 0
    exprs = []
    for src in TEXT_CATALOG:
        e = lower(parse(src), ring)
        exprs.extend(list(e) if isinstance(e, VectorExpr) else [e])
    rng = random.Random(20240817)
    atoms = [lambda: gen_J(ring, rng.randrange(3)),
             lambda: op_scalar(ring, "I"),
             lambda: lower(parse("H"), ring),
             lambda: lower(parse("Pow(Dot(P,P),-1/2)"), ring),
             lambda: lower(parse("K[2]"), ring)]
    for _ in range(80):
        e = atoms[rng.randrange(len(atoms))]()
        for _ in range(rng.randrange(4)):
            other = atoms[rng.randrange(len(atoms))]()
            op = rng.randrange(3)
            e = (e + other if op == 0 else e * other
                 if op == 1 else commutator(e, other))
        exprs.append(e)
    for e in exprs:
        total += 1
        if lower(parse(format_expr(e)), ring) == e:
            good += 1
    # 100000-case fuzz: the parser may reject but must never crash
    alphabet = (list("HKJPim()[],+-*/ ")
                + ["Comm", "Dot", "Cross", "Pow", "Adjoint", "Phat",
                   "1", "2", "3", "0", "1/2", "J[1]", "K[2]", "P[3]"])
    frng = random.Random(1234)
    crashes = 0
    for _ in range(100000):
        text = "".join(frng.choice(alphabet)
                       for _ in range(frng.randrange(1, 24)))
        try:
            parse(text)
        except LangError:
            pass
        except Exception:
            crashes += 1
    ok = good == total and crashes == 0
    _criterion(10, "language-round-trip",
               ok, f"printer round-trip {good}/{total} (required: all); "
                   f"fuzz 100000 inputs, {crashes} crashes (required: 0)",
               t0)
