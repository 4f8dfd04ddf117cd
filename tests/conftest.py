import pytest

import surfep as s


@pytest.fixture(scope="session")
def cat():
    return s.catalog()


@pytest.fixture(scope="session")
def v4_instance():
    """K = C2, H = C2, trivial action, g = 64, beta_bar hitting 1 at x1."""
    c2 = s.cyclic_group(2)
    action = s.trivial_action(c2, c2)
    beta = s.make_surface_tuple(c2, [1] + [0] * 63, [0] * 64)
    return s.make_split_ep(c2, c2, action, beta)


def element_order(group, a: int) -> int:
    """The least k >= 1 with a^k the identity of group."""
    acc, k = a, 1
    while acc != group.identity:
        acc, k = group.mul[acc][a], k + 1
    return k
