"""si_plus and si_minus of split-step walks against identities that need no closed form.

The closed form (``oracles.split_step_indices``) needs |a(x)| < 1 on the
coin table.  These identities hold for every table, so the seeded tables
here put about half of their defect sites at a(x) = +-1, b(x) = 0:

1. Grading swap.  On Ker(U - 1), G1 psi = G0 psi, and on Ker(U + 1),
   G1 psi = -G0 psi (Suzuki 2019), so grading Ker(U - 1) by G1 gives
   si_plus and grading Ker(U + 1) by G1 gives -si_minus.  G1 is a
   multiplication operator: the kernels are graded by band radius 0.
2. Translation.  Moving both coin tables by k sites keeps si_plus,
   si_minus and both kernel dimensions.
3. Complex conjugation.  Conjugating b and d conjugates U, G0 and the
   kernels, and keeps si_plus and si_minus.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from chiralwalk import transfer
from chiralwalk.operators import identity
from chiralwalk.verification import scalar_profile
from chiralwalk.walks import SplitStepParams, build_walk

CLEARANCE = 0.05     # the limits keep |a -+ c| above this: both gaps open
DEFECT_REACH = 3     # defect sites lie in [-DEFECT_REACH, DEFECT_REACH]
MAX_SHIFT = 4        # tables move by at most this many sites
SEEDS = st.integers(0, 2**32 - 1)


def seeded_coin(seed):
    """Limits (a_left, a_right), (b_left, b_right), a {site: (a, b)} table of one to four
    defect sites, each at a(x) = +-1, b(x) = 0 with probability 1/2, the coin (c, d) and
    a shift exponent 1-3; b and d carry random phases."""
    rng = np.random.default_rng(seed)

    def phase():
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    while True:
        theta_left, theta_right, theta2 = rng.uniform(0.05, np.pi - 0.05, size=3)
        a_limits, c = np.cos([theta_left, theta_right]), float(np.cos(theta2))
        if min(abs(a - s * c) for a in a_limits for s in (1, -1)) > CLEARANCE:
            break
    b_limits = [np.sin(t) * phase() for t in (theta_left, theta_right)]
    table = {}
    for x in rng.choice(np.arange(-DEFECT_REACH, DEFECT_REACH + 1), rng.integers(1, 5), False):
        if rng.random() < 0.5:
            table[int(x)] = (float(rng.choice([-1.0, 1.0])), 0.0)
        else:
            theta = rng.uniform(0.0, np.pi)
            table[int(x)] = (float(np.cos(theta)), np.sin(theta) * phase())
    return a_limits, b_limits, table, c, np.sin(theta2) * phase(), int(rng.integers(1, 4))


def coin_walk(coin, shift=0, conjugate=False):
    """The split-step pair of a ``seeded_coin``, its coin moved ``shift`` sites to the right,
    b and d conjugated if asked.  Every site that either placement can tell apart is
    tabulated (untabulated sites take the left limit below 0, the right one from 0 on),
    so the step of the limits moves with the defects."""
    (a_left, a_right), (b_left, b_right), table, c, d, m = coin
    reach = DEFECT_REACH + MAX_SHIFT
    values = {}
    for x in range(-reach, reach + 1):
        values[x] = table.get(x - shift, (a_left, b_left) if x - shift < 0 else (a_right, b_right))
    conj = np.conj if conjugate else (lambda z: z)
    params = SplitStepParams(
        a=scalar_profile(a_left, a_right, {x: a for x, (a, _) in values.items()}),
        b=scalar_profile(conj(b_left), conj(b_right), {x: conj(b) for x, (_, b) in values.items()}),
        c=c, d_coin=complex(conj(d)), shift_exponent=m)
    return build_walk(params)


def graded_kernels(pair, grading):
    """(dimension, graded signature) of Ker(U - 1) and of Ker(U + 1), graded by ``grading``."""
    kernels = [transfer.exact_kernel(pair.u + identity(2).scaled(s), grading) for s in (-1, 1)]
    return [(k.dimension, k.graded_signature) for k in kernels]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=SEEDS)
def test_grading_swap(seed):
    pair = coin_walk(seeded_coin(seed))
    (dim_plus, si_plus), (dim_minus, si_minus) = graded_kernels(pair, pair.gamma0)
    assert graded_kernels(pair, pair.gamma1) == [(dim_plus, si_plus), (dim_minus, -si_minus)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=SEEDS, shift=st.integers(-MAX_SHIFT, MAX_SHIFT).filter(bool))
def test_translation(seed, shift):
    coin = seeded_coin(seed)
    pair, moved = coin_walk(coin), coin_walk(coin, shift)
    assert graded_kernels(moved, moved.gamma0) == graded_kernels(pair, pair.gamma0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=SEEDS)
def test_conjugation(seed):
    coin = seeded_coin(seed)
    pair, conjugated = coin_walk(coin), coin_walk(coin, conjugate=True)
    assert graded_kernels(conjugated, conjugated.gamma0) == graded_kernels(pair, pair.gamma0)
