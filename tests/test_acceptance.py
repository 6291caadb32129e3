"""Acceptance suite: one test per shipped criterion, exact tolerances only.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion.  Every expected value is either pinned arithmetic or computed by
an independent oracle inside this module; nothing is tuned to the
implementation under test.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from nodal_degen import cli
from nodal_degen.constructions import LineArrangement, SurfaceWitness, witness_to_json
from nodal_degen.degeneration import hessian_limit_check
from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import MultiPoly
from nodal_degen.severi import SystemSpec, linear_system_dim
from oracles import poly, restricted_dim_oracle
from nodal_degen.singularities import S0Spec, certify_t1, curve_double_point


def run_cli(argv):
    import io
    import sys

    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_criterion_1_witness_suite(tmp_path):
    """d in 3..7, 5 seeds each: construct + certify => Certified with exactly
    C(d-1,2) T1 points and regularity rank C(d-1,2)."""
    expected = {3: 1, 4: 3, 5: 6, 6: 10, 7: 15}
    started = time.time()
    for d, delta in expected.items():
        for seed in range(5):
            out = tmp_path / f"w{d}_{seed}.json"
            code, _ = run_cli(
                ["construct", "--d", str(d), "--seed", str(seed), "--out", str(out)]
            )
            assert code == 0, (d, seed)
            code, text = run_cli(["certify", str(out), "--json"])
            assert code == 0, (d, seed)
            doc = json.loads(text)
            assert doc["verdict"] == "Certified", (d, seed)
            assert doc["t1_count"] == delta, (d, seed)
            assert doc["regularity_rank"] == delta, (d, seed)
    elapsed = time.time() - started
    assert elapsed < 120, f"witness suite took {elapsed:.0f}s"
    print(
        f"\n[acceptance] criterion 1 PASS: 25 witnesses certified, "
        f"T1 counts {sorted(set(expected.values()))}, {elapsed:.1f}s"
    )


def test_criterion_2_deformation_check():
    """deform-check certifies the node with Hessian det 2*alpha**2 and the
    recentred tangent cone, at t = -1 and 19 further rational slices."""
    code, text = run_cli(["deform-check", "--t=-1", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["class"] == "NodeA1"
    assert doc["point"] == ["-1", "0", "0"]
    assert doc["hessian_det"] == "8"
    assert doc["tangent_cone_ratio"] == "1/2"

    alphas = [Fraction(n, m) for n, m in [
        (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (10, 1), (1, 2), (3, 2),
        (5, 2), (1, 3), (2, 3), (7, 3), (1, 4), (3, 4), (5, 7), (9, 5),
        (11, 6), (13, 2), (20, 1), (1, 10),
    ]]
    assert len(alphas) == 20
    for alpha in alphas:
        t = -alpha * alpha / 4
        code, text = run_cli(["deform-check", f"--t={t}", "--json"])
        assert code == 0, t
        doc = json.loads(text)
        assert doc["class"] == "NodeA1"
        assert doc["point"] == [str(-alpha / 2), "0", "0"]
        assert doc["hessian_det"] == str(2 * alpha * alpha)
        assert doc["tangent_cone_ratio"] == "1/2"
    print("[acceptance] criterion 2 PASS: 20 rational slices, exact node data")


def test_criterion_3_hessian_limit_identity():
    """det(B0) equals the restricted-quadric discriminant on 100 seeded
    normal-form polynomials, rank-deficient cases included."""
    rng = random.Random(1234)
    quad_exps = [
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2),
    ]
    degenerate = 0
    for trial in range(100):
        terms = {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1)}
        for e in quad_exps:
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if trial % 4 == 0:  # force both sides of the identity to vanish
            terms[(0, 0, 2, 0)] = Fraction(0)
            terms[(0, 0, 1, 1)] = Fraction(0)
            terms[(0, 0, 0, 2)] = Fraction(0)
        if trial % 3 == 0:
            terms[(0, 0, 3, 0)] = Fraction(rng.randint(-9, 9))
            terms[(1, 1, 1, 0)] = Fraction(rng.randint(-9, 9))
        p = MultiPoly(4, terms)
        res = hessian_limit_check(p)
        assert res.verdict == "Verified", res.to_json()
        assert res.det_b0 == res.discriminant
        if res.discriminant == 0:
            degenerate += 1
    assert degenerate >= 25
    print(
        f"[acceptance] criterion 3 PASS: 100 normal forms verified "
        f"({degenerate} degenerate)"
    )


def test_criterion_4_restriction_classes():
    """The exceptional-quadric restriction classes and the effectivity
    threshold of the multiplicity parameter."""
    code, text = run_cli(["chow-f0", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["e"] == [-1, -1]
    assert doc["theta_restriction"] == [-1, -1]
    assert doc["second_exceptional_restriction"] == [1, -1]
    assert doc["checks"]["f.e = -1"] is True
    assert doc["checks"]["e**2 = 2"] is True
    assert doc["checks"]["2f + theta|_E + E''|_E = 0"] is True
    by_m = {entry["multiplicity"]: entry for entry in doc["theta_restrictions"]}
    assert by_m[0]["fibre_coeff"] == -2 and by_m[0]["effective"] is False
    assert by_m[1]["fibre_coeff"] == 0 and by_m[1]["e_coeff"] == 1
    assert by_m[1]["effective"] is True
    assert doc["minimal_effective_multiplicity"] == 1
    print("[acceptance] criterion 4 PASS: restriction classes exact")


def test_criterion_5_restricted_system_grid():
    """Bound formula equals the multiplication-matrix oracle on the full
    grid 2 <= h <= 5, h-1 <= d <= 8; spot value (2,3) -> 19."""
    assert linear_system_dim(SystemSpec("ci4", 3, 2)) == 19
    assert restricted_dim_oracle(2, 3) == 19
    checked = 0
    for h in range(2, 6):
        for d in range(h - 1, 9):
            formula = linear_system_dim(SystemSpec("ci4", d, h))
            oracle = restricted_dim_oracle(h, d)
            assert formula == oracle, (h, d, formula, oracle)
            checked += 1
    print(f"[acceptance] criterion 5 PASS: {checked} grid cells, oracle equality")


def _int_det(rows, idx_r, idx_c):
    """Exact determinant of the selected square integer submatrix."""
    k = len(idx_r)
    if k == 1:
        return rows[idx_r[0]][idx_c[0]]
    if k == 2:
        (a, b), (c, d) = (
            (rows[idx_r[0]][idx_c[0]], rows[idx_r[0]][idx_c[1]]),
            (rows[idx_r[1]][idx_c[0]], rows[idx_r[1]][idx_c[1]]),
        )
        return a * d - b * c
    total = 0
    sign = 1
    for pos in range(k):
        head = rows[idx_r[0]][idx_c[pos]]
        if head:
            rest = idx_c[:pos] + idx_c[pos + 1 :]
            total += sign * head * _int_det(rows, idx_r[1:], rest)
        sign = -sign
    return total


def _minor_rank_oracle(rows, nrows, ncols):
    for k in range(min(nrows, ncols), 0, -1):
        for idx_r in combinations(range(nrows), k):
            for idx_c in combinations(range(ncols), k):
                if _int_det(rows, idx_r, idx_c):
                    return k
    return 0


def test_criterion_6_rank_oracle_sweep():
    """Fraction-free rank equals the exhaustive-minor oracle on 10**5 sampled
    integer matrices up to 4x4 with entries in -2..2."""
    rng = random.Random(99)
    cases = 100_000
    for _ in range(cases):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]
        fast = RatMatrix.from_rows(rows).rank()
        assert fast == _minor_rank_oracle(rows, nrows, ncols), rows
    print(f"[acceptance] criterion 6 PASS: {cases} matrices, oracle agreement")


P2 = ("x", "y", "z")
P4 = ("x", "y", "z", "tau")


def _engineered_t1_failure() -> SurfaceWitness:
    """A structurally valid witness whose phi2 vanishes at one node, so the
    glued fibre is singular (not T1) there."""
    lines = [poly("x - z", P2), poly("y - z", P2), poly("x + y - 3*z", P2)]
    arrangement = LineArrangement.from_lines(lines)
    assert all(p[0] != 0 for p in arrangement.nodes)
    phi1 = arrangement.product()
    phi2 = poly("x*z**3 - y*z**3", P2)  # vanishes at the node [1:1:1]
    psi = poly("x**2", P4)
    w4 = MultiPoly.variable(4, 3)
    projective = phi1.extend(1) * w4 + phi2.extend(1)
    chart = MultiPoly(3, {(0,) + e: c for e, c in phi1.dehomogenize(0).terms()})
    chart = chart + MultiPoly(
        3, {(1,) + e: c for e, c in phi2.dehomogenize(0).terms()}
    )
    sb = phi1.extend(1) + w4 * psi
    return SurfaceWitness(
        d=4,
        seed=0,
        arrangement=arrangement,
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        projective_equation=projective,
        blowup_chart_a=chart,
        sb_equation=sb,
    )


def test_criterion_7_refutation_coverage(tmp_path):
    """Engineered failures exit with code 1 and name the failing stage."""
    # (a) collinear nodes against lines: rank 2, not regular
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"space": "p2", "d": 1}))
    pts = tmp_path / "pts.json"
    pts.write_text(
        json.dumps({"points": [["0", "0", "1"], ["0", "1", "1"], ["0", "1", "2"]]})
    )
    code, text = run_cli(
        ["regularity", "--system", str(system), "--points", str(pts), "--json"]
    )
    assert code == 1
    doc = json.loads(text)
    assert doc["rank"] == 2 and doc["regular"] is False
    assert doc["manifest"]["verdict"] == "Refuted"

    # (b) cusp restriction: T1 certification refuted naming the condition
    cusp = S0Spec(
        poly("y + z**2", ("y", "z", "u")),
        poly("x + z**2", ("x", "z", "u")),
    )
    report = certify_t1(cusp, curve_double_point(cusp.curve_a(), (0, 0)))
    assert report.kind == "Refuted"
    assert report.reason == "C has degenerate double point"
    # the same failure through the witness pipeline names the t1 stage
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(witness_to_json(_engineered_t1_failure())))
    code, text = run_cli(["certify", str(broken), "--json"])
    assert code == 1
    doc = json.loads(text)
    assert doc["verdict"] == "Refuted" and doc["failed_stage"] == "t1"

    # (c) tampered gluing: certify exits 1 naming the gluing stage
    out = tmp_path / "w.json"
    run_cli(["construct", "--d", "4", "--seed", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["sB"] = poly("y**3", P4).to_json(P4)
    out.write_text(json.dumps(doc))
    code, text = run_cli(["certify", str(out), "--json"])
    assert code == 1
    doc = json.loads(text)
    assert doc["verdict"] == "Refuted" and doc["failed_stage"] == "gluing"
    print("[acceptance] criterion 7 PASS: refutations exit 1 naming their stage")
