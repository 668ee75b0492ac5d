"""Property tests: identities that must hold for every input, not just
the seeded instances of the other suites."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssnt.fileio import read_tensor, write_tensor
from ssnt.network import forward_f, init_weights, loss_and_grad, reconstruct
from ssnt.problems import ObservationModel, assemble, interpolate_tubes
from ssnt.solvers import SolverConfig
from ssnt.tensors import diff_p, diff_p_adj

PROPS = settings(deadline=None, max_examples=60)

shapes = st.tuples(*(st.integers(1, 6) for _ in range(3)))
bounded = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def tensors(shape, elements=bounded):
    return arrays(np.float64, shape, elements=elements)


def tensor_pair(shape):
    return st.tuples(tensors(shape), tensors(shape))


def masks(shape):
    return arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0]))


def ulps(*ts):
    """A few units in the last place of the largest magnitude involved:
    the rounding of one subtraction and one addition."""
    return 4.0 * np.spacing(max(float(np.abs(t).max()) for t in ts))


@PROPS
@given(shapes.flatmap(tensor_pair), st.sampled_from([1, 2]))
def test_diff_p_adjoint_identity(pair, p):
    x, y = pair
    lhs = float(np.vdot(diff_p(x, p), y))
    rhs = float(np.vdot(x, diff_p_adj(y, p)))
    scale = 1.0 + 2.0 * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPS
@given(shapes.flatmap(tensors), st.integers(1, 4), st.integers(0, 2**16))
def test_slice_major_view_gives_the_c_ordered_bytes(t, width, seed):
    """The network gives the same bytes for a C-ordered tensor and for a
    slice-major view of the same values."""
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 2, 0)), 0, 2)
    cfg = SolverConfig(lam=0.1, width=width, p=1, q=1, seed=seed)
    params = init_weights(t.shape[2], cfg)
    model = ObservationModel("tc", t, np.ones(t.shape))
    (y, tape), (y_v, tape_v) = forward_f(t, params), forward_f(view, params)
    assert y.tobytes() == y_v.tobytes()
    assert [m.tobytes() for pair in tape for m in pair] == [m.tobytes() for pair in tape_v for m in pair]
    assert reconstruct(t, params).tobytes() == reconstruct(view, params).tobytes()
    (loss, grads), (loss_v, grads_v) = (loss_and_grad(x, params, model, cfg) for x in (t, view))
    assert loss == loss_v
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_v]


@PROPS
@given(
    shapes.flatmap(lambda s: tensors(s, st.floats(allow_nan=False, allow_infinity=False))),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308]),
    st.booleans(),
)
def test_tensor_file_roundtrip_is_bit_exact(t, special, fortran):
    """Finite values, with a negative zero or a subnormal planted, come
    back bit for bit and C-ordered, whatever the memory order written."""
    t = t.copy()
    t.flat[0] = special
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ssnt")
        write_tensor(path, np.asfortranarray(t) if fortran else t)
        back = read_tensor(path)
    assert back.shape == t.shape and back.flags.c_contiguous
    assert back.tobytes() == t.tobytes()


@PROPS
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 40)).flatmap(
        lambda s: st.tuples(tensors(s, bounded | st.just(-0.0)), masks(s))
    )
)
def test_interpolate_tubes_is_np_interp_bit_for_bit(case):
    """Every tube comes out as ``np.interp`` over its observed entries
    gives it, bit for bit; tubes with none hold the observed mean."""
    obs, mask = case
    filled = interpolate_tubes(obs, mask)
    fallback = float(obs.sum() / mask.sum()) if mask.sum() > 0 else 0.0
    grid = np.arange(obs.shape[2])
    for i, j in np.ndindex(obs.shape[:2]):
        seen = mask[i, j] == 1.0
        expected = np.interp(grid, grid[seen], obs[i, j, seen]) if seen.any() else np.full(grid.size, fallback)
        assert filled[i, j].tobytes() == expected.tobytes()


@PROPS
@given(shapes.flatmap(lambda s: st.tuples(tensors(s), tensors(s), masks(s))))
def test_assemble_tc_keeps_observed_entries(case):
    raw, meas, mask = case
    x = assemble(raw, ObservationModel("tc", meas, mask)).x
    seen = mask == 1.0
    assert np.array_equal(x[seen], meas[seen])
    assert np.array_equal(x[~seen], raw[~seen])


@PROPS
@given(shapes.flatmap(lambda s: st.tuples(tensors(s), tensors(s), masks(s))))
def test_assemble_rtc_splits_the_measurement_on_the_mask(case):
    raw, meas, mask = case
    res = assemble(raw, ObservationModel("rtc", meas, mask))
    seen = mask == 1.0
    assert np.array_equal(res.x, raw)
    assert np.abs((res.x + res.sparse - meas)[seen]).max(initial=0.0) <= ulps(raw, meas)
    assert not res.sparse[~seen].any()


@PROPS
@given(shapes.flatmap(tensor_pair))
def test_assemble_bs_splits_the_video(pair):
    raw, video = pair
    res = assemble(raw, ObservationModel("bs", video))
    assert np.abs(res.x + res.sparse - video).max() <= ulps(raw, video)


@PROPS
@given(
    st.integers(1, 8), st.integers(1, 5), st.integers(1, 5), st.integers(1, 12) | st.none(),
    st.sampled_from(["identity", "relu", "leaky_relu"]),
)
def test_init_weights_chain_from_n3_back_to_n3(n3, p, q, width, activation):
    params = init_weights(n3, SolverConfig(p=p, q=q, width=width, activation=activation))
    layers = params.f_layers + params.g_layers
    sizes = [lay.weight.shape for lay in layers]
    assert (len(params.f_layers), len(params.g_layers)) == (p, q)
    assert {lay.activation.kind for lay in layers} == {activation}
    assert sizes[0][1] == n3 and sizes[-1][0] == n3
    assert sizes[0][0] == (2 * n3 if width is None else width)
    for (out_prev, _), (_, in_next) in zip(sizes, sizes[1:]):
        assert out_prev == in_next
