"""Unit tests for the CTMC reliability engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.safedrones.arrangement import ArrangementAnalysis
from repro.safedrones.battery import battery_chain
from repro.safedrones.markov import (
    ContinuousMarkovChain,
    MarkovModelError,
    parallel_reliability,
    series_reliability,
)
from repro.safedrones.propulsion import motor_chain, motor_chain_from_survival


def two_state(rate=0.1):
    return ContinuousMarkovChain(
        states=["up", "down"],
        q=np.array([[0.0, rate], [0.0, 0.0]]),
        absorbing=frozenset({"down"}),
    )


class TestConstruction:
    def test_rows_sum_to_zero(self):
        chain = two_state()
        assert np.allclose(chain.q.sum(axis=1), 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(states=["a", "b"], q=np.zeros((3, 3)))

    def test_rejects_duplicate_states(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(states=["a", "a"], q=np.zeros((2, 2)))

    def test_rejects_negative_rates(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"], q=np.array([[0.0, -1.0], [0.0, 0.0]])
            )

    def test_rejects_unknown_absorbing(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"], q=np.zeros((2, 2)), absorbing=frozenset({"zzz"})
            )

    def test_rejects_leaky_absorbing_state(self):
        with pytest.raises(MarkovModelError):
            ContinuousMarkovChain(
                states=["a", "b"],
                q=np.array([[0.0, 1.0], [1.0, 0.0]]),
                absorbing=frozenset({"b"}),
            )


class TestTransient:
    def test_exponential_decay_closed_form(self):
        rate = 0.05
        chain = two_state(rate)
        for t in (0.0, 1.0, 10.0, 100.0):
            pof = chain.failure_probability(np.array([1.0, 0.0]), t)
            assert pof == pytest.approx(1.0 - np.exp(-rate * t), rel=1e-9, abs=1e-12)

    def test_distribution_stays_normalised(self):
        chain = two_state()
        pt = chain.transient(np.array([1.0, 0.0]), 37.0)
        assert pt.sum() == pytest.approx(1.0)
        assert (pt >= -1e-12).all()

    def test_transient_from_named_state(self):
        chain = two_state(0.2)
        pt = chain.transient_from("down", 5.0)
        assert pt[chain.index("down")] == pytest.approx(1.0)

    def test_rejects_bad_p0(self):
        chain = two_state()
        with pytest.raises(MarkovModelError):
            chain.transient(np.array([0.7, 0.7]), 1.0)

    def test_rejects_negative_time(self):
        chain = two_state()
        with pytest.raises(MarkovModelError):
            chain.transient(np.array([1.0, 0.0]), -1.0)

    def test_reliability_complements_pof(self):
        chain = two_state(0.03)
        p0 = np.array([1.0, 0.0])
        assert chain.reliability(p0, 10.0) == pytest.approx(
            1.0 - chain.failure_probability(p0, 10.0)
        )


class TestMttf:
    def test_exponential_mttf(self):
        chain = two_state(0.01)
        assert chain.mttf("up") == pytest.approx(100.0)

    def test_mttf_of_absorbing_state_is_zero(self):
        chain = two_state()
        assert chain.mttf("down") == 0.0

    def test_two_stage_chain_mttf_adds(self):
        lam = 0.02
        chain = ContinuousMarkovChain(
            states=["a", "b", "fail"],
            q=np.array(
                [[0.0, lam, 0.0], [0.0, 0.0, lam], [0.0, 0.0, 0.0]]
            ),
            absorbing=frozenset({"fail"}),
        )
        assert chain.mttf("a") == pytest.approx(2.0 / lam)


class TestScaled:
    def test_scaling_accelerates_failure(self):
        chain = two_state(0.01)
        fast = chain.scaled(10.0)
        p0 = np.array([1.0, 0.0])
        assert fast.failure_probability(p0, 10.0) > chain.failure_probability(p0, 10.0)

    def test_scaled_equivalent_to_time_dilation(self):
        chain = two_state(0.01)
        p0 = np.array([1.0, 0.0])
        assert chain.scaled(3.0).failure_probability(p0, 5.0) == pytest.approx(
            chain.failure_probability(p0, 15.0)
        )

    def test_rejects_negative_factor(self):
        with pytest.raises(MarkovModelError):
            two_state().scaled(-1.0)


#: Every chain type the SafeDrones models build.
CHAINS = {
    "battery": battery_chain(6.4e-5),
    "quad": motor_chain(4),
    "hexa": motor_chain(6),
    "octa": motor_chain(8, reconfig_success=0.7),
    "hexa_arrangement": motor_chain_from_survival(
        6, ArrangementAnalysis(rotor_count=6).survival_by_count
    ),
}


@st.composite
def chain_and_p0(draw):
    chain = CHAINS[draw(st.sampled_from(sorted(CHAINS)))]
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(chain.states),
            max_size=len(chain.states),
        ).filter(lambda w: sum(w) > 1e-3)
    )
    p0 = np.array(weights) / sum(weights)
    return chain, p0


class TestFactorTransient:
    @settings(max_examples=200, deadline=None)
    @given(
        chain_p0=chain_and_p0(),
        factor=st.floats(min_value=0.0, max_value=1e3),
        t=st.floats(min_value=0.0, max_value=1e3),
    )
    @example(chain_p0=(CHAINS["battery"], np.array([1.0, 0.0, 0.0, 0.0])), factor=1.0, t=5.0)
    @example(chain_p0=(CHAINS["hexa"], np.array([0.5, 0.5, 0.0])), factor=0.0, t=1e3)
    def test_bit_identical_to_scaled_chain(self, chain_p0, factor, t):
        chain, p0 = chain_p0
        fast = chain.transient(p0, t, factor)
        slow = chain.scaled(factor).transient(p0, t)
        assert fast.shape == slow.shape
        assert all(x == y for x, y in zip(fast.tolist(), slow.tolist()))


@st.composite
def chain_and_stack(draw):
    """A chain with a stack of 1-19 (p0, factor) rows."""
    chain = CHAINS[draw(st.sampled_from(sorted(CHAINS)))]
    k = len(chain.states)
    n = draw(st.integers(min_value=1, max_value=19))
    weights = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k)
            .filter(lambda w: sum(w) > 1e-3),
            min_size=n,
            max_size=n,
        )
    )
    p0 = np.array([np.array(w) / sum(w) for w in weights])
    factors = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=n, max_size=n))
    )
    return chain, p0, factors


class TestStackedTransient:
    @settings(max_examples=200, deadline=None)
    @given(
        stack=chain_and_stack(),
        t=st.floats(min_value=0.0, max_value=1e3),
    )
    @example(
        stack=(CHAINS["battery"], np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([1.0])),
        t=5.0,
    )
    def test_rows_bit_identical_to_single_solves(self, stack, t):
        chain, p0, factors = stack
        stacked = chain.transient(p0, t, factors)
        assert stacked.shape == p0.shape
        for row, factor, out in zip(p0, factors, stacked):
            single = chain.transient(row, t, float(factor))
            assert all(x == y for x, y in zip(out.tolist(), single.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(
        stack=chain_and_stack(),
        bad=st.sampled_from(["nan_p0", "nan_factor", "inf_factor"]),
        data=st.data(),
    )
    def test_bad_row_raises(self, stack, bad, data):
        chain, p0, factors = stack
        k = data.draw(st.integers(min_value=0, max_value=len(p0) - 1))
        if bad == "nan_p0":
            p0[k, 0] = np.nan
        else:
            factors[k] = np.nan if bad == "nan_factor" else np.inf
        with pytest.raises(MarkovModelError):
            chain.transient(p0, 1.0, factors)

    def test_factor_shape_must_match_rows(self):
        p0 = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(MarkovModelError):
            two_state().transient(p0, 1.0, 2.0)
        with pytest.raises(MarkovModelError):
            two_state().transient(p0, 1.0, np.ones(3))


class TestValidateOnce:
    def test_q_is_read_only(self):
        chain = two_state()
        with pytest.raises(ValueError):
            chain.q[0, 1] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.q = np.zeros((2, 2))

    def test_caller_array_is_not_captured(self):
        q = np.array([[0.0, 0.1], [0.0, 0.0]])
        chain = ContinuousMarkovChain(
            states=["up", "down"], q=q, absorbing=frozenset({"down"})
        )
        assert q[0, 0] == 0.0  # the diagonal is normalised in the chain's copy
        q[0, 1] = 0.2
        assert chain.q[0, 1] == 0.1


class TestNonFiniteInputs:
    def test_nan_in_p0_raises(self):
        with pytest.raises(MarkovModelError):
            two_state().transient(np.array([np.nan, 1.0]), 1.0)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_non_finite_factor_raises(self, factor):
        chain = two_state()
        with pytest.raises(MarkovModelError):
            chain.transient(np.array([1.0, 0.0]), 1.0, factor)
        with pytest.raises(MarkovModelError):
            chain.scaled(factor)

    def test_nan_time_raises(self):
        with pytest.raises(MarkovModelError):
            two_state().transient(np.array([1.0, 0.0]), np.nan)

    def test_infinite_time_raises(self):
        with pytest.raises(MarkovModelError):
            two_state().transient(np.array([1.0, 0.0]), np.inf)


class TestCompositions:
    def test_series_reliability(self):
        assert series_reliability([0.9, 0.9]) == pytest.approx(0.81)

    def test_parallel_reliability(self):
        assert parallel_reliability([0.9, 0.9]) == pytest.approx(0.99)

    def test_series_bounded_by_weakest(self):
        assert series_reliability([0.5, 0.99]) <= 0.5

    def test_parallel_at_least_best(self):
        assert parallel_reliability([0.5, 0.99]) >= 0.99

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            series_reliability([1.5])
        with pytest.raises(ValueError):
            parallel_reliability([-0.1])
