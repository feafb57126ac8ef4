import numpy as np
import pytest


@pytest.fixture
def slices_3x3x2():
    """3x3x2 tensor with multilinear rank (2, 2, 2) whose {0,1}^3 core
    subtensor drops to multilinear rank (1, 2, 2)."""
    a = np.zeros((3, 3, 2))
    a[:, :, 0] = [[1, 2, 1], [2, 4, 2], [3, 8, 5]]
    a[:, :, 1] = [[2, 5, 3], [4, 10, 6], [3, 7, 4]]
    return a


def random_low_rank(dims, ranks, rng):
    """Tensor of exact multilinear rank ``ranks`` from Gaussian factors."""
    from tensorcur import multi_mode_product

    core = rng.standard_normal(tuple(ranks))
    factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
    return multi_mode_product(core, factors)


def tensor_with_layout(dims, layout, seed):
    """Standard-normal tensor of shape ``dims`` stored C-ordered, F-ordered,
    or as a strided (non-contiguous) view with one mode reversed."""
    rng = np.random.default_rng(seed)
    if layout == "C":
        return rng.standard_normal(dims)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(dims))
    base = rng.standard_normal(tuple(2 * d for d in dims))
    view = base[(slice(None, None, -2),) + (slice(None, None, 2),) * (len(dims) - 1)]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous) or view.size <= 1
    return view
