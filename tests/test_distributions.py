"""Every pmf or joint argument passes one rule, Pmf.of or Joint3Pmf.of: a
typed argument is used as it is, and anything else goes through the
checked constructor. So a nested list gives the very result the typed
object gives, and a list that does not sum to 1 raises ValueError."""

import dataclasses

import numpy as np
import pytest

from steinmac.channels import (
    BudgetLaw,
    ChannelClass,
    CostModel,
    Dmmac,
    cost_budget,
    find_markers,
)
from steinmac.exponents import local_stein_exponent, min_kl_fixed_marginals
from steinmac.prob import Joint3Pmf, Pmf, is_strongly_typical, marginal, typical_bounds
from steinmac.schemes import (
    Scheme,
    build_local_scheme,
    build_marker_scheme,
    build_scheme_for_class,
    class_exponent,
    class_projection,
)
from steinmac.simulate import TestProblem, importance_sample_beta


def noisy_sparse_kernel():
    k = np.zeros((2, 2, 3))
    k[0, 0] = [0.6, 0.4, 0.0]
    k[0, 1] = [0.0, 0.7, 0.3]
    k[1, 0] = [0.0, 0.5, 0.5]
    k[1, 1] = [0.0, 0.1, 0.9]
    return Dmmac(k)


CH = noisy_sparse_kernel()
CM = CostModel.unit(2, 2, BudgetLaw.power(1.0, 0.5))
MARKERS = find_markers(CH, ChannelClass.SPARSE)
BUDGET = cost_budget(CM, 100)
P = Joint3Pmf(np.full((2, 2, 2), 0.125))
Q = Joint3Pmf(np.einsum("a,b,c->abc", [0.75, 0.25], [0.6, 0.4], [0.7, 0.3]))
PV = Pmf([0.4, 0.6])
QV = Pmf([0.7, 0.3])
HALF = Pmf([0.5, 0.5])
PROBLEM = TestProblem(P, Q)
LOCAL = build_local_scheme(HALF, 0.2, 16)


def sparse_scheme(**refs):
    fields = {"ref_u1": HALF, "ref_u2": HALF, "ref_v": HALF, **refs}
    return Scheme(cls=ChannelClass.SPARSE, n=10, k=2, mu=0.2, markers=MARKERS,
                  p_marker1=0.6, p_marker2=0.3, **fields)


def marker_scheme(**refs):
    fields = {"p_u1": HALF, "p_u2": HALF, "p_v": HALF, **refs}
    return build_marker_scheme(CH, MARKERS, BUDGET, 0.2, **fields)


# (entry point, parameter, call with the distribution, the typed distribution)
SITES = [
    ("Scheme", "ref_u1", lambda p: sparse_scheme(ref_u1=p), PV),
    ("Scheme", "ref_u2", lambda p: sparse_scheme(ref_u2=p), PV),
    ("Scheme", "ref_v", lambda p: sparse_scheme(ref_v=p), PV),
    ("build_local_scheme", "p_v", lambda p: build_local_scheme(p, 0.2, 16), PV),
    ("build_marker_scheme", "p_u1", lambda p: marker_scheme(p_u1=p), PV),
    ("build_marker_scheme", "p_u2", lambda p: marker_scheme(p_u2=p), PV),
    ("build_marker_scheme", "p_v", lambda p: marker_scheme(p_v=p), PV),
    ("build_scheme_for_class", "p",
     lambda p: build_scheme_for_class(ChannelClass.SPARSE, CH, p, CM, 100, 0.2), P),
    ("class_projection", "p", lambda p: class_projection(ChannelClass.SPARSE, p, Q), P),
    ("class_projection", "q", lambda q: class_projection(ChannelClass.SPARSE, P, q), Q),
    ("class_exponent", "p", lambda p: class_exponent(ChannelClass.FULL, p, Q), P),
    ("class_exponent", "q", lambda q: class_exponent(ChannelClass.FULL, P, q), Q),
    ("TestProblem", "p", lambda p: TestProblem(p, Q), P),
    ("TestProblem", "q", lambda q: TestProblem(P, q), Q),
    ("importance_sample_beta", "tilt",
     lambda t: importance_sample_beta(PROBLEM, None, LOCAL, 16, 64, tilt=t, seed=0), Q),
    ("local_stein_exponent", "p_v", lambda p: local_stein_exponent(p, QV), PV),
    ("local_stein_exponent", "q_v", lambda q: local_stein_exponent(PV, q), QV),
    ("min_kl_fixed_marginals", "constraints",
     lambda t: min_kl_fixed_marginals(Q, {2: t}), PV),
    ("marginal", "joint", lambda j: marginal(j, 2), P),
    ("is_strongly_typical", "p", lambda p: is_strongly_typical([0, 1, 1, 0, 1], p, 0.2), PV),
    ("typical_bounds", "p", lambda p: typical_bounds(p, 0.2, 10), PV),
]
IDS = [f"{site}-{param}" for site, param, *_ in SITES]


def same(a, b) -> bool:
    """Equal field by field, arrays compared whole, types included."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("site, param, call, typed", SITES, ids=IDS)
class TestDistributionArguments:
    def test_nested_list_gives_the_typed_result(self, site, param, call, typed):
        assert same(call(typed.probs.tolist()), call(typed))

    def test_unnormalised_list_refused(self, site, param, call, typed):
        with pytest.raises(ValueError, match="must sum to 1 within 1e-12, got 1.2"):
            call((typed.probs * 1.2).tolist())


@pytest.mark.parametrize("field", ["ref_u1", "ref_u2", "ref_v"])
def test_scheme_names_the_reference_it_refuses(field):
    with pytest.raises(ValueError) as err:
        Scheme(cls=ChannelClass.FULL, n=10, k=0, mu=0.2,
               **{"ref_v": HALF, field: [0.5, 0.7]})
    assert str(err.value) == f"{field}: Pmf must sum to 1 within 1e-12, got 1.2"


@pytest.mark.parametrize("cls, x", [(Pmf, HALF), (Joint3Pmf, P)])
def test_of_returns_a_typed_argument_itself(cls, x):
    assert cls.of(x) is x
    assert type(cls.of(x.probs)) is cls and cls.of(x.probs) == x
