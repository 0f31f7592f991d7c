"""Field models: exact laws against combinatorial and enumerative oracles."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab import (BudgetExceededError, ValueSpace, affine_image,
                    conditioned, iid_field, make_box, markov_field,
                    pressure_finite, pressure_limit, product_of_marginals,
                    sample, sample_sums, scalarize)

from conftest import DOEBLIN_P, fresh_biased3, fresh_doeblin, fresh_rademacher
from oracles import (conditioned_box_sum_law, cylinder_prob, dict_sum_law,
                     iid_sum_law,
                     markov_path_law, multinomial_three_atom_law,
                     rademacher_sum_law, stationary_2x2)


def law_as_dict(law):
    return {k[0]: lp for k, lp in zip(law.keys, law.logp)}


# ---------------------------------------------------------------------------
# iid laws


@pytest.mark.parametrize("n", [1, 2, 7, 40, 100])
def test_rademacher_sum_law_matches_binomial(rademacher, n):
    law = rademacher.sum_law(n)
    want = rademacher_sum_law(n)
    got = law_as_dict(law)
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), abs=1e-12)
    assert law.total() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_three_atom_law_matches_multinomial(biased3, n):
    law = biased3.sum_law(n)
    want = multinomial_three_atom_law(
        Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), n)
    got = law_as_dict(law)
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), abs=1e-12)


def test_fractional_atoms_share_a_scaled_integer_support():
    model = iid_field([Fraction(1, 3), Fraction(1, 2)], [0.5, 0.5])
    law = model.sum_law(2)
    den, want = iid_sum_law([(Fraction(1, 3), Fraction(1, 2)),
                             (Fraction(1, 2), Fraction(1, 2))], 2)
    assert law.den == den == 6
    got = law_as_dict(law)
    assert set(got) == set(want)
    for key, p in want.items():
        assert got[key] == pytest.approx(math.log(p), abs=1e-12)


def test_float_atoms_read_as_their_decimal_form():
    # 0.1, 0.2, 0.3 as binary fractions would need a lattice 7e15 wide
    model = iid_field([0.1, 0.2, 0.3], [0.2, 0.3, 0.5])
    assert model.atom_fracs == ((Fraction(1, 10),), (Fraction(1, 5),),
                                (Fraction(3, 10),))
    assert model.den == 10
    law = model.sum_law(50)
    assert law.keys == tuple((s,) for s in range(50, 151))
    assert law.total() == pytest.approx(0.0, abs=1e-12)
    exact = iid_field([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)],
                      [0.2, 0.3, 0.5]).sum_law(50)
    assert law.keys == exact.keys
    np.testing.assert_array_equal(law.logp, exact.logp)


def test_iid_cylinder_probability_is_product_of_site_masses():
    model = fresh_biased3()
    lp = model.cylinder_log_prob({0: {0}, 3: {1, 2}, 7: {0, 1, 2}})
    assert lp == pytest.approx(math.log(0.2) + math.log(0.8), abs=1e-12)


def test_mean_law_total_mass_is_one_for_all_kinds():
    models = [fresh_rademacher(), fresh_biased3(), fresh_doeblin(),
              product_of_marginals(fresh_biased3(), 3),
              conditioned(fresh_biased3(), 3, [0, 2]),
              affine_image(fresh_rademacher(), [[2.0]], [1.0])]
    for model in models:
        law = model.sum_law(7)
        assert law.total() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# chains


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_markov_law_matches_path_enumeration(doeblin, n):
    law = doeblin.sum_law(n)
    start = stationary_2x2(DOEBLIN_P)
    want = markov_path_law(DOEBLIN_P, [-1.0, 1.0], start, n)
    got = {k[0]: lp for k, lp in zip(law.keys, law.logp)}
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), rel=1e-10)


def test_markov_stationary_start_solves_balance():
    model = fresh_doeblin()
    pi = np.exp(model.log_start)
    assert pi @ np.asarray(DOEBLIN_P) == pytest.approx(pi, abs=1e-12)
    assert pi == pytest.approx(stationary_2x2(DOEBLIN_P), abs=1e-12)


def test_markov_law_snapshots_resume_consistently():
    a = fresh_doeblin()
    direct = a.sum_law(9)
    b = fresh_doeblin()
    for n in (3, 6, 9):      # requested in stages
        staged = b.sum_law(n)
    assert staged.keys == direct.keys
    assert np.allclose(staged.logp, direct.logp, atol=1e-12)


# ---------------------------------------------------------------------------
# block measures


def test_product_block_law_equals_base_law():
    base = fresh_biased3()
    blocked = product_of_marginals(base, 3)
    for n in (3, 5, 7):
        a = base.sum_law(n)
        b = blocked.sum_law(n)
        assert a.keys == b.keys
        assert np.allclose(a.logp, b.logp, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 8])
def test_conditioned_block_law_matches_enumeration(n):
    base_probs = {0: Fraction(1, 5), 1: Fraction(3, 10), 2: Fraction(1, 2)}
    atoms = {0: -1, 1: 0, 2: 1}
    model = conditioned(fresh_biased3(), 3, [1, 2])
    law = model.sum_law(n)
    want = conditioned_box_sum_law(atoms, base_probs, 3, [1, 2], n)
    got = law_as_dict(law)
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), rel=1e-10, abs=1e-12)


def test_conditioned_block_cylinder_zero_on_excluded_atom():
    model = conditioned(fresh_biased3(), 3, [1, 2])
    assert model.cylinder_log_prob({1: {0}}) == -math.inf
    # within one block the kept atoms renormalize to 0.3/0.8 and 0.5/0.8
    lp = model.cylinder_log_prob({0: {1}})
    assert lp == pytest.approx(math.log(0.3 / 0.8), abs=1e-12)


def test_conditioned_markov_block_law_small_case():
    base = fresh_doeblin()
    model = conditioned(base, 2, [0, 1])   # full support: equals base blocks
    law = model.sum_law(4)
    start = stationary_2x2(DOEBLIN_P)
    # blocks of 2 are independent copies of the length-2 chain law
    short = markov_path_law(DOEBLIN_P, [-1.0, 1.0], start, 2)
    want = {}
    for s1, p1 in short.items():
        for s2, p2 in short.items():
            want[s1 + s2] = want.get(s1 + s2, 0.0) + p1 * p2
    got = law_as_dict(law)
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), rel=1e-10)


def test_blocks_are_independent_across_the_boundary():
    model = conditioned(fresh_biased3(), 3, [1, 2])
    left = model.cylinder_log_prob({2: {1}})
    right = model.cylinder_log_prob({3: {2}})
    joint = model.cylinder_log_prob({2: {1}, 3: {2}})
    assert joint == pytest.approx(left + right, abs=1e-12)


def test_conditioned_rejects_zero_mass_blocks():
    from ldplab import ModelError
    with pytest.raises((ModelError, ValueError)):
        conditioned(fresh_biased3(), 3, [])


# ---------------------------------------------------------------------------
# affine images


def test_affine_image_law_transforms_support_exactly():
    base = fresh_rademacher()
    # recentering convention: site value is 2*sigma - 1, so atoms {-3, 1}
    model = affine_image(base, [[2.0]], [1.0])
    assert sorted(v[0] for v in model.atom_fracs) == [-3, 1]
    law = model.sum_law(5)
    want = {}
    for s, p in rademacher_sum_law(5).items():
        want[2 * s - 5] = p
    got = law_as_dict(law)
    assert set(got) == set(want)
    for s, p in want.items():
        assert got[s] == pytest.approx(math.log(p), abs=1e-12)


def test_scalarize_projects_planar_atoms():
    base = iid_field([(Fraction(0), Fraction(0)),
                      (Fraction(1), Fraction(0)),
                      (Fraction(0), Fraction(1))], [0.5, 0.25, 0.25])
    model = scalarize(base, (1.0, 2.0))
    assert model.k == 1
    vals = sorted(v[0] for v in model.space.points)
    assert vals == [0, 1, 2]


def test_scalarize_identity_shortcut_returns_same_object():
    base = fresh_rademacher()
    assert scalarize(base, 1.0) is base


# ---------------------------------------------------------------------------
# the transfer recurrence against the dict dynamic program, every kind

F = Fraction
PLANAR = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
CHAIN3 = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
CHAIN4 = [[0.4, 0.3, 0.2, 0.1], [0.1, 0.4, 0.3, 0.2],
          [0.2, 0.1, 0.4, 0.3], [0.3, 0.2, 0.1, 0.4]]


def iid4():
    return iid_field([F(-1), F(0), F(1), F(2)], [0.1, 0.2, 0.3, 0.4])


def chain3(start=None):
    return markov_field([F(-1), F(0), F(1)], CHAIN3, start)


def chain4():
    return markov_field([F(-1), F(0), F(1), F(2)], CHAIN4)


# name -> (fresh model, emitting atom indices, chain states kept, dim)
KINDS = {
    "iid-k1": (fresh_biased3, (0, 1, 2), 1, 1),
    "iid-k2": (lambda: iid_field(PLANAR, [0.5, 0.3, 0.2]), (0, 1, 2), 1, 1),
    "iid-d2": (lambda: iid_field([F(-1), F(0), F(1)], [0.2, 0.3, 0.5],
                                 dim=2), (0, 1, 2), 1, 2),
    "markov-stationary": (chain3, (0, 1, 2), 3, 1),
    "markov-start": (lambda: chain3([0.6, 0.3, 0.1]), (0, 1, 2), 3, 1),
    "product-iid": (lambda: product_of_marginals(fresh_biased3(), 3),
                    (0, 1, 2), 1, 1),
    "product-chain": (lambda: product_of_marginals(chain3(), 3),
                      (0, 1, 2), 3, 1),
    "conditioned-chain-holes": (lambda: conditioned(chain4(), 3, [0, 1, 3]),
                                (0, 1, 3), 3, 1),
    "product-chain-block1": (lambda: product_of_marginals(chain3(), 1),
                             (0, 1, 2), 1, 1),
    "conditioned-chain-block1": (lambda: conditioned(chain4(), 1, [0, 1, 3]),
                                 (0, 1, 3), 1, 1),
    "conditioned-iid": (lambda: conditioned(iid4(), 2, [0, 3]), (0, 3), 1, 1),
    "affine": (lambda: affine_image(iid4(), [[0.5]], [0.25]),
               (0, 1, 2, 3), 1, 1),
    "scalarize-planar": (
        lambda: scalarize(iid_field(PLANAR, [0.5, 0.3, 0.2]), (1.0, 1.0)),
        (0, 1, 2), 1, 1),
}


# a d = 2 box of side n has n^2 sites: the dict program is the slow side
@pytest.mark.parametrize("kind,n", [
    (kind, n) for kind in sorted(KINDS) for n in (1, 2, 3, 5, 8, 13, 40)
    if KINDS[kind][3] == 1 or n <= 5])
def test_sum_law_matches_dict_dynamic_program(kind, n):
    make, _, _, dim = KINDS[kind]
    model = make()
    law = model.sum_law(n)
    want = dict_sum_law(model, n)
    keys = tuple(sorted(want))
    assert law.keys == keys
    assert law.den == model.den and law.count == n ** dim
    np.testing.assert_allclose(law.logp, [want[key] for key in keys],
                               rtol=1e-12, atol=0)
    assert model.sum_law(n) is law


def test_zero_mass_sums_leave_the_support():
    # the dict program also lists sums reached only through a zero start
    model = chain3([1.0, 0.0, 0.0])
    for n in (1, 2, 6):
        law = model.sum_law(n)
        want = {k: v for k, v in dict_sum_law(model, n).items()
                if v > -math.inf}
        assert law.keys == tuple(sorted(want))
        np.testing.assert_allclose(law.logp, [want[k] for k in law.keys],
                                   rtol=1e-12, atol=0)
    assert law.sums().max() == -1 + 5    # -1 first, then at most +1s


def stored_entries(keys, sites, states):
    """Dense (sum lattice x chain state) entries after ``sites`` sites."""
    entries = states
    for coords in zip(*keys):
        lo = min(coords)
        step = math.gcd(*(x - lo for x in coords)) or 1
        entries *= sites * (max(coords) - lo) // step + 1
    return entries


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_budget_raises_at_the_first_volume_over_it(kind):
    make, emitting, states, dim = KINDS[kind]
    model = make()
    core = model.base if model.kind == "affine" else model
    keys = [core.atom_keys[i] for i in emitting]
    n0 = 5
    budget = stored_entries(keys, n0 ** dim, states)
    model.budget = budget
    for n in range(1, n0 + 1):
        model.sum_law(n)
    assert stored_entries(keys, (n0 + 1) ** dim, states) > budget
    with pytest.raises(BudgetExceededError):
        model.sum_law(n0 + 1)


def random_cylinder(rng, model):
    """Up to 8 constrained sites around the origin (negative ones too, and
    off any block boundary), each allowing a random non-empty atom set."""
    if model.dim == 1:
        sites = [(x,) for x in range(-7, 8)]
    else:
        sites = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    pick = rng.choice(len(sites), size=int(rng.integers(1, 9)), replace=False)
    return {sites[i]: frozenset(rng.choice(
        model.n_atoms, size=int(rng.integers(1, model.n_atoms + 1)),
        replace=False).tolist()) for i in pick}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_cylinder_probability_matches_enumeration(kind):
    model = KINDS[kind][0]()
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    events = [random_cylinder(rng, model) for _ in range(40)]
    got = [math.exp(model.cylinder_log_prob(c)) for c in events]
    want = [cylinder_prob(model, c) for c in events]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert model.cylinder_log_prob({}) == 0.0


LIMIT_TILTS = np.linspace(-3.0, 3.0, 21)


@pytest.mark.parametrize("kind", sorted(
    kind for kind in KINDS if KINDS[kind][0]().kind == "block"))
def test_block_limit_pressure_is_the_one_block_pressure(kind):
    model = KINDS[kind][0]()
    got = [pressure_limit(model, lam) for lam in LIMIT_TILTS]
    want = [pressure_finite(model, model.block, lam) for lam in LIMIT_TILTS]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["affine", "scalarize-planar"])
def test_affine_limit_pressure_pulls_the_tilt_back(kind):
    model = KINDS[kind][0]()
    for lam in LIMIT_TILTS:
        v = np.array([lam])
        want = (pressure_limit(model.base, model.matrix.T @ v)
                - float(model.offset @ v))
        assert pressure_limit(model, lam) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling and validation


def test_sampling_is_deterministic_in_the_seed():
    box = make_box((0,), 12, 1)
    for model in (fresh_rademacher(), fresh_doeblin(),
                  conditioned(fresh_biased3(), 3, [1, 2])):
        a = sample(model, box, 42)
        b = sample(model, box, 42)
        c = sample(model, box, 43)
        assert a == b
        assert set(a) == {(i,) for i in range(12)}
        assert a != c
        # a Generator is used as given: the same stream, the same draw
        assert sample(model, box, np.random.default_rng(42)) == a


def within_bernstein(hits, samples, p, delta=1e-9):
    """Bernstein bound on a Binomial(samples, p) count at confidence delta."""
    L = math.log(2.0 / delta)
    return abs(hits - samples * p) <= (
        math.sqrt(2.0 * samples * p * (1.0 - p) * L) + 2.0 * L / 3.0)


# zero weights at the front of a start law and at the end of a kernel row
SAMPLED_KINDS = dict(KINDS, **{
    "markov-zero-start": (lambda: chain3([0.0, 0.5, 0.5]), None, None, 1),
    "conditioned-chain-tail": (lambda: conditioned(chain4(), 3, [0, 1]),
                               None, None, 1),
})


@pytest.mark.parametrize("kind", sorted(SAMPLED_KINDS))
def test_sampled_sums_follow_the_sum_law(kind):
    make, _, _, dim = SAMPLED_KINDS[kind]
    model = make()
    # side 7 ends chain-based blocks of side 3 inside a block
    n, samples = (3 if dim == 2 else 7), 40_000
    law = model.sum_law(n)
    sums = sample_sums(model, make_box((0,) * dim, n, dim), samples,
                       np.random.default_rng(11))
    assert sums.shape == (samples, model.k)
    hits = Counter(map(tuple, np.rint(sums * law.den).astype(int).tolist()))
    assert set(hits) <= set(law.keys)
    for key, lp in zip(law.keys, law.logp):
        assert within_bernstein(hits[key], samples, math.exp(lp)), key


def test_block_sampler_crops_unaligned_boxes_to_the_marginals():
    model = conditioned(chain4(), 3, [0, 1, 3])
    # sites -5..3: the box starts and ends inside a block
    box = make_box((-5,), 9, 1)
    samples = 40_000
    draws = model.sample_box(box, np.random.default_rng(3), samples)
    assert draws.shape == (samples, 9)
    assert set(np.unique(draws)) <= {0, 1, 3}
    for col, site in enumerate(box.sites()):
        for atom in (0, 1, 3):
            p = math.exp(model.cylinder_log_prob({site: frozenset((atom,))}))
            assert within_bernstein(
                int(np.count_nonzero(draws[:, col] == atom)), samples, p), \
                (site, atom)


def test_chain_sampler_starts_at_the_box_left_edge():
    model = chain3([0.6, 0.3, 0.1])
    # sites -5..3: the chain starts from ``start`` at site -5, not at 0
    box = make_box((-5,), 9, 1)
    samples = 40_000
    draws = model.sample_box(box, np.random.default_rng(4), samples)
    marginal = np.array([0.6, 0.3, 0.1])
    for col in range(box.size):
        for atom in range(3):
            assert within_bernstein(
                int(np.count_nonzero(draws[:, col] == atom)), samples,
                marginal[atom]), (col, atom)
        marginal = marginal @ np.array(CHAIN3)


class _TopUniform:
    """Stands in for a Generator whose uniforms are all just below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_sampler_never_draws_a_zero_weight_atom():
    # normalized and cumulated, these start weights end at 1 - 2^-52
    w = np.array([0.2, 1.5, 1.6, 0.0])
    model = markov_field([F(-1), F(0), F(1), F(2)], CHAIN4, w / w.sum())
    draws = model.sample_box(make_box((0,), 1, 1), _TopUniform(), 3)
    assert draws.tolist() == [[2], [2], [2]]


def test_sample_sums_temporary_stays_within_the_row_block():
    model = iid_field([F(-1), F(0), F(1)], [0.2, 0.3, 0.5], dim=2)
    box = make_box((0, 0), 64, 2)
    samples = 4000
    tracemalloc.start()
    try:
        sums = sample_sums(model, box, samples, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below a quarter of the (samples x sites) int64 array of one draw
    assert peak < samples * box.size * 8 / 4
    assert sums.shape == (samples, 1)
    assert abs(sums.mean() / box.size - 0.3) < 0.01


def test_conditioned_samples_respect_the_conditioning():
    model = conditioned(fresh_biased3(), 3, [1, 2])
    box = make_box((0,), 30, 1)
    config = sample(model, box, 5)
    assert all(idx in (1, 2) for idx in config.values())


def test_sample_frequencies_match_law_within_three_sigma():
    # binomial check on the block sampler: P(site value = 1) per site
    model = conditioned(fresh_biased3(), 2, [1, 2])
    box = make_box((0,), 2, 1)
    rng_hits = 0
    trials = 10_000
    for s in range(trials):
        config = sample(model, box, s)
        if config[(0,)] == 2:
            rng_hits += 1
    p = 0.5 / 0.8
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(rng_hits / trials - p) <= 3 * se


def test_law_sums_are_built_once_and_read_only(biased3):
    law = biased3.sum_law(12)
    assert law.sums() is law.sums()
    with pytest.raises(ValueError):
        law.sums()[0, 0] = 99.0
    assert law.means().tolist() == (law.sums() / 12).tolist()


def test_value_space_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError):
        ValueSpace.from_atoms([1, 1])
    with pytest.raises(ValueError):
        ValueSpace.from_atoms([(1, 2, 3)])
    with pytest.raises(ValueError):
        iid_field([1, 2], [0.5])
    with pytest.raises(ValueError):
        iid_field([1, 2], [-0.1, 1.1])
    with pytest.raises(ValueError):
        markov_field([1, 2], [[0.5, 0.5], [0.7, 0.4]])


def test_budget_exceeded_raises():
    model = fresh_biased3()
    model.budget = 5
    with pytest.raises(BudgetExceededError):
        model.sum_law(50)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30))
def test_law_mass_and_support_bounds_random_volumes(n):
    model = fresh_biased3()
    law = model.sum_law(n)
    assert law.total() == pytest.approx(0.0, abs=1e-12)
    assert len(law.keys) == 2 * n + 1
    means = law.means()
    assert means.min() == pytest.approx(-1.0) and \
        means.max() == pytest.approx(1.0)
