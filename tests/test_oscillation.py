import dataclasses
import math
import random

import pytest

from idepcag.expressions import Const, Cos, Prod, Sin, Sum, Var
from idepcag.grid import LaggedUniformGrid, UniformGrid
from idepcag.oracle import oracle_integrate
from idepcag.oscillation import (
    GronwallBound,
    _impulse_branch,
    aw_criterion,
    classify_continuous,
    classify_discrete,
    nonosc_criterion,
)
from idepcag.problem import ImpulseDegenerate, ImpulseRule, Problem
from idepcag.solver import solve


def unit_problem(a, b, impulses=None, alpha=0.0, z0=1.0, horizon=60.0, tau=0.0):
    return Problem(
        a=a,
        b=b,
        grid=UniformGrid(0.0, 1.0, alpha),
        impulses=impulses or ImpulseRule.none(),
        tau=tau,
        z0=z0,
        horizon=horizon,
    )


def sine_forcing_problem(a0, C, horizon=80.0):
    return unit_problem(
        Const(-a0),
        Sin(Prod((Const(2 * math.pi), Var("t")))),
        ImpulseRule.multiplier(C),
        horizon=horizon,
    )


class TestClassifyDiscrete:
    def test_alternating_skeleton(self):
        # alpha * beta = 2 * (-0.5) < 0 gives z_{n+1} = -z_n
        p = unit_problem(Const(0.0), Const(1.0), ImpulseRule.multiplier(-0.5), horizon=50.0)
        verdict = classify_discrete(solve(p))
        assert verdict.status == "oscillatory"
        assert verdict.sign_changes

    def test_positive_decay(self):
        p = unit_problem(Const(0.0), Const(-0.5), horizon=50.0)
        verdict = classify_discrete(solve(p))
        assert verdict.status == "nonoscillatory"
        assert verdict.sign_changes == ()

    def test_undetermined_transient(self):
        # one early jump through zero, sign-definite afterwards
        values = [-2.0] + [0.0] * 30
        p = unit_problem(
            Const(0.0), Const(0.0), ImpulseRule.explicit(values, start_k=1), horizon=30.0
        )
        verdict = classify_discrete(solve(p))
        assert verdict.status == "undetermined"

    def test_window_too_short(self):
        p = unit_problem(Const(0.0), Const(0.0), horizon=20.0)
        traj = solve(p)
        with pytest.raises(ValueError, match="too short"):
            classify_discrete(traj, window=(0, 5))

    def test_a_sign_flipping_multiplier_oscillates(self):
        # the multiplier -1 flips the sign of z at every knot; b = 0 keeps e one-signed
        p = unit_problem(Const(-0.5), Const(0.0), ImpulseRule.multiplier(-1.0), horizon=40.0)
        assert classify_discrete(solve(p)).status == "oscillatory"

    def test_windowed_classification(self):
        p = unit_problem(Const(0.0), Const(1.0), ImpulseRule.multiplier(-0.5), horizon=50.0)
        verdict = classify_discrete(solve(p), window=(10, 40))
        assert verdict.status == "oscillatory"
        assert verdict.window == (10, 40)


class TestClassifyContinuous:
    def test_no_forcing_nonoscillatory(self):
        p = unit_problem(Const(-0.4), Const(0.0), horizon=40.0)
        verdict = classify_continuous(solve(p))
        assert verdict.status == "nonoscillatory"

    def test_mild_forcing_keeps_sign(self):
        p = unit_problem(Const(0.0), Const(-0.5), horizon=40.0)
        verdict = classify_continuous(solve(p))
        assert verdict.status == "nonoscillatory"

    def test_interior_sign_change_detected(self):
        # skeleton alternates for b = -2, so force a sign-definite skeleton
        # with impulses that flip the sign back at each knot
        p = unit_problem(Const(0.0), Const(-2.0), ImpulseRule.multiplier(-1.5), horizon=40.0)
        traj = solve(p)
        assert classify_discrete(traj).status == "nonoscillatory"
        verdict = classify_continuous(traj)
        assert verdict.status == "oscillatory"
        assert "interval" in verdict.evidence

    def test_rejects_lagged_and_oracle_trajectories(self):
        lagged = Problem(
            a=Const(-0.4),
            b=Const(0.1),
            grid=LaggedUniformGrid(0.0, 1.0, 1),
            tau=0.0,
            z0=1.0,
            horizon=40.0,
            history=(1.0,),
        )
        oracle = oracle_integrate(unit_problem(Const(-0.4), Const(0.0), horizon=40.0), 100)
        for traj in (solve(lagged), oracle):
            assert classify_discrete(traj).status == "nonoscillatory"
            with pytest.raises(ValueError, match="kernel-backed"):
                classify_continuous(traj)

    def test_precondition_enforced(self):
        p = unit_problem(Const(0.0), Const(1.0), ImpulseRule.multiplier(-0.5), horizon=40.0)
        with pytest.raises(ValueError, match="nonoscillatory"):
            classify_continuous(solve(p))


class TestAwCriterion:
    def test_sine_forcing_fires_above_threshold(self):
        rep = aw_criterion(sine_forcing_problem(2.2, 1.0))
        assert rep.verdict == "oscillatory"
        assert rep.branch == "positive-impulse"
        assert rep.inf_i_minus < -1.0
        assert rep.margin > 0

    def test_sine_forcing_negative_impulses_always_fire(self):
        rep = aw_criterion(sine_forcing_problem(1.998, -100.0))
        assert rep.verdict == "oscillatory"
        assert rep.branch == "negative-impulse"
        # the advanced integral vanishes, clearing the verbatim "< 1" test
        assert rep.inf_i_plus == 0.0

    def test_constant_decay_criterion(self):
        # a = -1, b = -q0: fires exactly when q0 (e - 1) > 1
        fired = aw_criterion(unit_problem(Const(-1.0), Const(-0.60), horizon=80.0))
        assert fired.verdict == "oscillatory"
        assert fired.inf_i_minus == pytest.approx(-0.60 * (math.e - 1.0), rel=1e-10)
        quiet = aw_criterion(unit_problem(Const(-1.0), Const(-0.50), horizon=80.0))
        assert quiet.verdict == "inconclusive"

    def test_mixed_impulses_decline(self):
        p = unit_problem(
            Const(-1.0), Const(-0.8), ImpulseRule.alternating(1.5), horizon=80.0
        )
        rep = aw_criterion(p)
        assert rep.verdict == "inconclusive"
        assert rep.branch == "mixed"
        assert "mixed" in rep.reason

    def test_boundary_reported(self):
        # inf i_minus = -1 exactly at q0 = 1/(e-1)
        q_star = 1.0 / (math.e - 1.0)
        rep = aw_criterion(unit_problem(Const(-1.0), Const(-q_star), horizon=80.0))
        assert rep.verdict == "inconclusive"
        assert "boundary" in rep.reason

    def test_lagged_rejected(self):
        from idepcag.grid import LaggedUniformGrid

        p = Problem(
            a=Const(-1.0),
            b=Const(-0.3),
            grid=LaggedUniformGrid(0.0, 1.0, 1),
            tau=0.0,
            z0=1.0,
            horizon=80.0,
            history=(1.0,),
        )
        with pytest.raises(ValueError, match="lagged"):
            aw_criterion(p)

    def test_report_text_is_complete(self):
        rep = aw_criterion(sine_forcing_problem(2.2, 1.0))
        text = rep.to_text()
        for key in ("sup_i_plus", "inf_i_plus", "sup_i_minus", "inf_i_minus", "margin", "verdict"):
            assert key in text


_RULES = [
    ImpulseRule.none(),
    ImpulseRule.constant(0.5),
    ImpulseRule.constant(-1.5),
    ImpulseRule.constant(-1.0),  # 1 + c = 0 at every knot
    ImpulseRule.multiplier(2.0),
    ImpulseRule.multiplier(-0.5),
    ImpulseRule.multiplier(0.0),
    ImpulseRule.alternating(0.5),
    ImpulseRule.alternating(1.5),  # factors 2.5 at even k, -0.5 at odd k
    ImpulseRule.alternating(1.0),  # 1 + c_k = 0 at odd k
    ImpulseRule.alternating(-1.0),  # 1 + c_k = 0 at even k
    ImpulseRule.explicit([0.5] * 6 + [-1.5] + [0.5] * 9),
    ImpulseRule.explicit([0.5] * 9 + [-1.0] + [0.5] * 6),
    ImpulseRule.from_expression(Sin(Var("k"))),
    ImpulseRule.from_expression(Prod((Const(-2.0), Sin(Var("k"))))),
]


def _scanned_branch(rule, window):
    """The branch, or the ImpulseDegenerate knot, from every knot's factor."""
    try:
        factors = [rule.factor(k) for k in range(*window)]
    except ImpulseDegenerate as exc:
        return "degenerate", exc.k
    if all(f > 0 for f in factors):
        return "positive-impulse"
    if all(f < 0 for f in factors):
        return "negative-impulse"
    return "mixed"


class TestImpulseBranch:
    @pytest.mark.parametrize("rule", _RULES, ids=lambda r: r.kind)
    def test_branch_matches_the_scan_over_every_knot(self, rule):
        p = unit_problem(Const(-1.0), Const(0.5), rule)
        for window in [(3, 3), (4, 2), (3, 4), (4, 5), (3, 5), (4, 6), (0, 16), (1, 16), (5, 12)]:
            try:
                got = _impulse_branch(p, window)
            except ImpulseDegenerate as exc:
                got = "degenerate", exc.k
            assert got == _scanned_branch(rule, window), (rule, window)

    @pytest.mark.parametrize(
        "rule, k", [(ImpulseRule.constant(-1.0), 8), (ImpulseRule.alternating(1.0), 9)]
    )
    def test_a_degenerate_factor_names_its_knot(self, rule, k):
        with pytest.raises(ImpulseDegenerate) as info:
            _impulse_branch(unit_problem(Const(-1.0), Const(0.5), rule), (8, 72))
        assert info.value.k == k

    @pytest.mark.parametrize("rule", _RULES[:3] + _RULES[4:6] + _RULES[7:9], ids=lambda r: r.kind)
    def test_a_periodic_rule_reads_at_most_two_factors_per_criterion(self, rule, monkeypatch):
        calls = []
        factor = ImpulseRule.factor

        def counted(self, k):
            calls.append(k)
            return factor(self, k)

        monkeypatch.setattr(ImpulseRule, "factor", counted)
        p = unit_problem(Const(-1.0), Const(0.5), rule)
        for criterion in (aw_criterion, nonosc_criterion):
            calls.clear()
            criterion(p, (8, 72))
            assert len(calls) <= 2, (criterion.__name__, calls)

    def test_an_empty_window_reads_no_factor(self, monkeypatch):
        monkeypatch.setattr(ImpulseRule, "factor", lambda self, k: pytest.fail("factor read"))
        p = unit_problem(Const(-1.0), Const(0.5), ImpulseRule.constant(-1.0))
        assert _impulse_branch(p, (5, 5)) == "positive-impulse"


class TestNonoscCriterion:
    def test_sine_forcing_below_threshold(self):
        rep = nonosc_criterion(sine_forcing_problem(1.9, 1.0))
        assert rep.verdict == "nonoscillatory"
        assert rep.inf_i_minus >= -1.0

    def test_trivial(self):
        rep = nonosc_criterion(unit_problem(Const(0.0), Const(0.0), horizon=80.0))
        assert rep.verdict == "nonoscillatory"

    def test_constant_decay_below_boundary(self):
        rep = nonosc_criterion(unit_problem(Const(-1.0), Const(-0.5), horizon=80.0))
        assert rep.verdict == "nonoscillatory"
        assert rep.inf_i_minus == pytest.approx(-0.5 * (math.e - 1.0), rel=1e-10)

    def test_inconclusive_above_threshold(self):
        rep = nonosc_criterion(sine_forcing_problem(2.2, 1.0))
        assert rep.verdict == "inconclusive"


class TestCriterionSolverConsistency:
    def test_fired_branches_match_classifier(self):
        cases = [
            (sine_forcing_problem(2.2, 1.0, horizon=210.0), "oscillatory"),
            (sine_forcing_problem(1.9, 1.0, horizon=210.0), "nonoscillatory"),
            (unit_problem(Const(-1.0), Const(-0.60), horizon=210.0), "oscillatory"),
            (unit_problem(Const(-1.0), Const(-0.50), horizon=210.0), "nonoscillatory"),
        ]
        for problem, expected in cases:
            if expected == "oscillatory":
                assert aw_criterion(problem).verdict == "oscillatory"
            else:
                assert nonosc_criterion(problem).verdict == "nonoscillatory"
            assert classify_discrete(solve(problem)).status == expected

    def test_zero_impulse_reduction(self):
        # multiplier 1.0 and no impulses must fire identically
        base = unit_problem(Const(-1.0), Const(-0.60), horizon=80.0)
        with_mult = dataclasses.replace(base, impulses=ImpulseRule.multiplier(1.0))
        r1, r2 = aw_criterion(base), aw_criterion(with_mult)
        assert (r1.verdict, r1.branch) == (r2.verdict, r2.branch)
        assert r1.inf_i_minus == r2.inf_i_minus

    def test_scaling_invariance(self):
        p = sine_forcing_problem(2.2, 1.0, horizon=210.0)
        base = classify_discrete(solve(p)).status
        for lam in (3.0, -2.0, 0.04):
            scaled = dataclasses.replace(p, z0=lam)
            assert classify_discrete(solve(scaled)).status == base


class TestGronwall:
    def test_trivial_bound_is_z0(self):
        p = unit_problem(Const(0.0), Const(0.0), z0=-3.0, horizon=10.0)
        assert GronwallBound(p).bound(7.0) == pytest.approx(3.0, rel=1e-12)

    def test_degenerate_advanced_part_exponential(self):
        p = unit_problem(Const(0.0), Const(0.5), horizon=10.0)
        envelope = GronwallBound(p)
        assert envelope.theta_hat == 0.0
        for t in (0.0, 2.5, 7.0):
            assert envelope.bound(t) == pytest.approx(math.exp(0.5 * t), rel=1e-10)
        traj = solve(p)
        for t in (0.5, 3.3, 9.9):
            assert abs(traj.value(t)) <= envelope.bound(t) * (1 + 1e-9)

    def test_half_split_theta(self):
        p = unit_problem(Const(-1.0), Const(0.25), alpha=0.5, horizon=8.0)
        envelope = GronwallBound(p)
        assert envelope.theta_hat == pytest.approx(0.625, rel=1e-10)
        traj = solve(p)
        for t in (0.4, 2.1, 6.6, 7.9):
            assert abs(traj.value(t)) <= envelope.bound(t) * (1 + 1e-9)

    def test_impulse_product_in_bound(self):
        p = unit_problem(
            Const(0.0), Const(0.0), ImpulseRule.multiplier(-2.0), horizon=6.0
        )
        envelope = GronwallBound(p)
        # |c_k| = 3, so the envelope quadruples at each knot
        assert envelope.bound(2.5) == pytest.approx(16.0, rel=1e-10)
        traj = solve(p)
        assert abs(traj.value(2.5)) <= envelope.bound(2.5)

    def test_bound_past_float_range_is_infinite(self):
        # theta_hat = 0.99 weights int |b| by 100: the exponent passes 709
        p = unit_problem(Const(0.0), Const(0.99), alpha=1.0, horizon=10.0)
        envelope = GronwallBound(p)
        assert envelope.theta_hat == pytest.approx(0.99, rel=1e-12)
        assert envelope.bound(1.0) == pytest.approx(math.exp(99.0), rel=1e-9)
        assert envelope.bound(10.0) == math.inf

    def test_unavailable_when_theta_too_large(self):
        p = unit_problem(Const(-2.0), Const(0.0), alpha=1.0, horizon=8.0)
        with pytest.raises(ValueError, match="unavailable"):
            GronwallBound(p)
