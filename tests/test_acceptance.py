"""Acceptance gate: closed-form exactness, thresholds, and property suites.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its headline numbers and runtime.
"""

import dataclasses
import json
import math
import random
import time

import pytest

from idepcag.cli import main as cli_main
from idepcag.expressions import Const, Cos, Exp, Neg, Pow, Prod, Sin, Sum, Var
from idepcag.grid import LaggedUniformGrid, UniformGrid
from idepcag.kernel import KernelTable
from idepcag.oracle import oracle_integrate
from idepcag.oscillation import GronwallBound, classify_discrete
from idepcag.problem import ImpulseRule, Problem
from idepcag.quadrature import integrate
from idepcag.solver import solve


def unit_problem(a, b, impulses=None, alpha=0.0, z0=1.0, horizon=10.0, tau=0.0, h=1.0):
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(0.0, h, alpha),
        impulses=impulses or ImpulseRule.none(),
        tau=tau,
        z0=z0,
        horizon=horizon,
    )


def random_bounded_problem(seed: int, intervals: int = 10) -> Problem:
    """Deterministic random instance whose Gronwall envelope exists."""
    rng = random.Random(seed)
    h = rng.uniform(0.6, 1.4)
    alpha = rng.random()
    omega_a = rng.uniform(1.0, 5.0)
    omega_b = rng.uniform(1.0, 5.0)
    ca0, ca1 = rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35)
    cb0, cb1 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    C = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    z0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    a = Sum((Const(ca0), Prod((Const(ca1), Sin(Prod((Const(omega_a), Var("t"))))))))
    scale = 1.0
    while True:
        b = Sum(
            (
                Const(cb0 * scale),
                Prod((Const(cb1 * scale), Cos(Prod((Const(omega_b), Var("t")))))),
            )
        )
        p = Problem(
            a=a,
            b=b,
            grid=UniformGrid(0.0, h, alpha),
            impulses=ImpulseRule.multiplier(C),
            tau=0.0,
            z0=z0,
            horizon=intervals * h,
        )
        try:
            GronwallBound(p)
            return p
        except ValueError:
            pass
        scale *= 0.5


def relative_deviation(x: float, y: float) -> float:
    den = max(abs(x), abs(y))
    return abs(x - y) / den if den > 1e-12 else abs(x - y)


def test_acceptance_1_constant_forcing_exactness():
    start = time.perf_counter()
    for alpha_coef in (0.5, -0.5, 2.0, -2.0):
        for beta in (0.5, -0.5, 2.0, -2.0):
            p = unit_problem(
                Const(0.0),
                Const(alpha_coef - 1.0),
                ImpulseRule.multiplier(beta),
                horizon=50.0,
            )
            traj = solve(p)
            for n in range(0, 51):
                expected = (alpha_coef * beta) ** n
                assert traj.knot_value(n) == pytest.approx(expected, rel=1e-12)
            status = classify_discrete(traj).status
            if alpha_coef * beta < 0:
                assert status == "oscillatory"
            else:
                assert status == "nonoscillatory"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS (16 coefficient pairs, 50 knots each, skeleton "
        f"exact to 1e-12, verdict flips with the product sign) [{elapsed:.2f}s]"
    )


def test_acceptance_2_constant_decay_threshold(tmp_path):
    start = time.perf_counter()
    q0 = 0.7
    for p_coef in (0.5, 1.0, 2.0):
        prob = unit_problem(Const(-p_coef), Const(-q0), horizon=80.0)
        _, i_minus, _ = KernelTable(prob).criterion(5, 6)
        closed = -q0 * (math.exp(p_coef) - 1.0) / p_coef
        assert abs(i_minus[0] - closed) <= 1e-8
    cfg = {
        "problem": {
            "a": "-p",
            "b": "-q0",
            "params": {"p": 1.0, "q0": 0.5},
            "grid": {"type": "uniform", "t0": 0, "h": 1, "alpha": 0},
            "impulse": {"type": "none"},
            "tau": 0.0,
            "z0": 1.0,
            "horizon": 80.0,
        },
        "sweep": {
            "parameter": "q0",
            "lo": 0.3,
            "hi": 0.9,
            "steps": 7,
            "target": {"quantity": "inf_i_minus", "threshold": -1.0},
        },
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    out = buf.getvalue()
    root = float(out.split("crossing: q0=")[1].split(" ")[0])
    q_star = 1.0 / (math.e - 1.0)  # 0.5819767068693265
    assert abs(root - q_star) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 2: PASS (delayed integral matches -q0(e^p-1)/p to 1e-8; "
        f"sweep boundary q0*={root:.8f} vs {q_star:.8f}) [{elapsed:.2f}s]"
    )


def test_acceptance_3_lagged_integral_and_oscillation():
    start = time.perf_counter()
    # with gamma(t) = [t - 1], the delayed window of interval k spans two cells, each
    # giving int exp(-p (gamma(s) - s)) ds = (e^2p - e^p)/p; at p = 1 the coefficient
    # threshold p e^-p / (2 (e^p - 1)) is 1 over their sum
    closed = 2.0 * (math.exp(2.0) - math.exp(1.0))
    value = sum(integrate(lambda s: math.exp(s - g), g + 1.0, g + 2.0)[0] for g in (-1.0, 0.0))
    assert abs(value - closed) <= 1e-8
    bound = 0.10704863284894205
    assert bound == pytest.approx(1.0 * math.exp(-1.0) / (2.0 * (math.e - 1.0)), rel=1e-12)
    assert bound == pytest.approx(1.0 / value, rel=1e-9)
    q = 0.3
    assert q > bound
    p = Problem(
        a=Const(-1.0),
        b=Const(-q),
        grid=LaggedUniformGrid(0.0, 1.0, 1),
        impulses=ImpulseRule.none(),
        tau=0.0,
        z0=1.0,
        horizon=50.0,
        history=(1.0,),
    )
    traj = solve(p)
    verdict = classify_discrete(traj, window=(0, 51))
    assert verdict.status == "oscillatory"
    assert verdict.sign_changes[0] <= 50
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 3: PASS (two-cell integral {value:.9f} matches closed form; "
        f"bound(1)={bound:.8f}; q={q} above it oscillates within 50 knots) [{elapsed:.2f}s]"
    )


def test_acceptance_4_sine_forcing_threshold():
    start = time.perf_counter()

    def g(a0: float) -> float:
        return 2.0 * math.pi * (1.0 - math.exp(a0)) / (a0**2 + 4.0 * math.pi**2) + 1.0

    lo, hi = 1.5, 2.5
    g_lo = g(lo)
    assert g_lo > 0 > g(hi)
    a, b = lo, hi
    while b - a > 1e-10:
        m = 0.5 * (a + b)
        if g_lo * g(m) < 0:
            b = m
        else:
            a = m
    a_star = 0.5 * (a + b)
    assert abs(a_star - 2.07553) <= 1e-4

    cases = [
        (2.2, 1.0, "oscillatory"),
        (1.9, 1.0, "nonoscillatory"),
        (1.998, -100.0, "oscillatory"),
    ]
    forcing = Sin(Prod((Const(2.0 * math.pi), Var("t"))))
    for a0, C, expected in cases:
        p = unit_problem(
            Const(-a0), forcing, ImpulseRule.multiplier(C), horizon=200.0
        )
        traj = solve(p)
        assert len(traj.skeleton()) == 201
        assert classify_discrete(traj).status == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4: PASS (threshold a*={a_star:.6f} within 1e-4 of 2.07553; "
        f"200-interval verdicts match for the three coefficient/impulse cases) [{elapsed:.2f}s]"
    )


def test_acceptance_5_structural_identity():
    start = time.perf_counter()
    coefficients = [
        Sin(Var("t")),
        Pow(Var("t"), 2),
        Exp(Prod((Const(0.1), Var("t")))),
        Const(-3.0),
    ]
    for a in coefficients:
        p = unit_problem(a, Neg(a), ImpulseRule.multiplier(-0.9), z0=-19.0, horizon=20.0)
        table = KernelTable(p)
        for k in range(0, 20):
            assert abs(table.e_value(k, k + 1.0) / table.e_value(k, k) - 1.0) <= 1e-9
        traj = solve(p)
        for k in range(0, 20):
            expected = (-0.9) ** k * (-19.0)
            assert traj.knot_value(k) == pytest.approx(expected, rel=1e-9)
            assert traj.value(k + 0.5) == pytest.approx(expected, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(
        f"\nACCEPTANCE 5: PASS (4 coefficient families, w(t_k+1, t_k)=1 to 1e-9 "
        f"on 20 intervals, interval values follow the impulse product) [{elapsed:.2f}s]"
    )


def test_acceptance_6_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(10):
        p = random_bounded_problem(seed=1000 + i, intervals=10)
        kernel_traj = solve(p)
        oracle_traj = oracle_integrate(p, 10_000)
        span = p.horizon - p.tau
        for j in range(100):
            t = p.tau + span * (j + 0.5) / 100
            dev = relative_deviation(kernel_traj.value(t), oracle_traj.value(t))
            worst = max(worst, dev)
        assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6: PASS (10 random problems, 100 samples each at 1e4 "
        f"oracle steps/interval, max relative deviation {worst:.3e} <= 1e-6) [{elapsed:.2f}s]"
    )


def test_acceptance_7_envelope_domination():
    start = time.perf_counter()
    worst_ratio = 0.0
    for i in range(10):
        p = random_bounded_problem(seed=2000 + i, intervals=8)
        envelope = GronwallBound(p)
        assert envelope.theta_hat < 1.0
        traj = solve(p)
        span = p.horizon - p.tau
        for j in range(100):
            t = p.tau + span * (j + 0.5) / 100
            bound = envelope.bound(t)
            value = abs(traj.value(t))
            assert value <= bound * (1.0 + 1e-9)
            if bound > 0:
                worst_ratio = max(worst_ratio, value / bound)
    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 7: PASS (10 random problems x 100 samples, |z| <= envelope; "
        f"tightest ratio {worst_ratio:.3f}) [{elapsed:.2f}s]"
    )


def test_acceptance_8_invariant_suite(tmp_path):
    start = time.perf_counter()
    # jump identity, exact as computed
    p = unit_problem(
        Prod((Const(0.2), Sin(Var("t")))),
        Sum((Const(-0.3), Prod((Const(0.2), Cos(Var("t")))))),
        ImpulseRule.alternating(0.4),
        alpha=0.3,
        horizon=12.0,
    )
    traj = solve(p)
    for pt in traj.skeleton()[1:]:
        assert pt.z_right == p.impulses.factor(pt.k) * pt.z_left

    # no-impulse continuity
    p0 = dataclasses.replace(p, impulses=ImpulseRule.none())
    for pt in solve(p0).skeleton()[1:]:
        assert abs(pt.z_right - pt.z_left) <= 1e-9 * (1.0 + abs(pt.z_right))

    # intra-interval cocycle
    table = KernelTable(p0)

    def w(k, t, s):  # the factor carrying z(s) to z(t)
        return table.e_value(k, t) / table.e_value(k, s)

    rng = random.Random(77)
    for _ in range(20):
        k = rng.randint(0, 10)
        t, s, r = (rng.uniform(p.grid.knot(k), p.grid.knot(k + 1)) for _ in range(3))
        lhs = w(k, t, s) * w(k, s, r)
        rhs = w(k, t, r)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    # kernel vs definitional integrals: j(t, zeta_k) = e(t, zeta_k) exp(int_t^zeta_k a)
    for k in range(0, 12):
        i_plus, i_minus, _ = table.criterion(k, k + 1)
        zeta = p0.grid.zeta(k)
        for t, want in ((p0.grid.knot(k), 1.0 - i_plus[0]), (p0.grid.knot(k + 1), 1.0 + i_minus[0])):
            j = table.e_value(k, t) * math.exp(integrate(p0.a.ev, t, zeta)[0])
            assert abs(j - want) <= 1e-10

    # telescoped restart
    full = solve(p)
    mid = 6
    restart = dataclasses.replace(p, tau=p.grid.knot(mid), z0=full.knot_value(mid))
    tail = solve(restart)
    for _ in range(25):
        t = rng.uniform(6.0, 12.0)
        assert relative_deviation(tail.value(t), full.value(t)) <= 1e-9

    # byte-identical reruns of the exporter
    cfg = {
        "problem": {
            "a": "0.2*sin(t)",
            "b": "0.2*cos(t)-0.3",
            "grid": {"type": "uniform", "t0": 0, "h": 1, "alpha": 0.3},
            "impulse": {"type": "alternating", "c": 0.4},
            "tau": 0.0,
            "z0": 1.0,
            "horizon": 12.0,
        },
        "output": {"samples_per_interval": 16},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    import io
    from contextlib import redirect_stdout

    for run in ("r1", "r2"):
        with redirect_stdout(io.StringIO()):
            assert cli_main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / run)]) == 0
    assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == (
        tmp_path / "r2" / "trajectory.csv"
    ).read_bytes()

    elapsed = time.perf_counter() - start
    print(
        f"\nACCEPTANCE 8: PASS (jump identity exact, continuity, cocycle <= 1e-9, "
        f"kernel/integral consistency <= 1e-10, restart <= 1e-9, byte-identical export) "
        f"[{elapsed:.2f}s]"
    )
