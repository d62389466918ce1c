"""Property tests of the exact-error kernels over drawn inputs."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenogate import gate
from zenogate.gate import AbsorberRates, GateGeometry

# decay exponents: no absorber, a perfect one, and the log-spread range that
# the design search and the curves use
DECAYS = st.sampled_from((0.0, math.inf)) | st.floats(-8.0, 1.0).map(lambda e: 10.0**e)
# N and the beam-splitter angle of one element (None: the default angle)
GEOMETRIES = st.tuples(st.integers(1, 100_000), st.none() | st.floats(1e-6, 3.0))


@settings(max_examples=10_000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    branches=st.sampled_from((2, 3)),
    uniform=st.booleans(),
    elements=st.lists(st.tuples(GEOMETRIES, DECAYS, DECAYS), min_size=1, max_size=3),
)
def test_batch_equals_scalar_bit_for_bit(branches, uniform, elements):
    # one geometry for the whole batch, or one per element
    geometries = [GateGeometry(branches, n, angle) for (n, angle), _, _ in elements]
    if uniform:
        geometries = [geometries[0]] * len(elements)
    x1 = [e[1] for e in elements]
    x2 = [e[2] for e in elements]
    p1, p2 = gate.exact_errors_batch(geometries[0] if uniform else geometries, x1, x2)
    for i, geometry in enumerate(geometries):
        scalar = gate.exact_errors(geometry, AbsorberRates(x1[i], x2[i]))
        # the same bits: equal doubles, with -0.0 and 0.0 told apart
        assert [np.float64(v).tobytes() for v in scalar] == [p1[i].tobytes(), p2[i].tobytes()]
