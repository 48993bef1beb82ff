import pytest

from ginvlab import (build_example_ring, build_matrix_ring, build_table_algebra,
                     build_zmod)


def squarefree(n: int) -> bool:
    """Exact integer-factorization check, used to cross-check is_semiprime."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def truncated_polynomials(p, dim):
    """GF(p)[t]/(t^dim) on the basis 1, t, ..., t^(dim-1)."""
    basis = ["1"] + [f"t{k}" for k in range(1, dim)]
    constants = [[i, j, i + j, 1] for i in range(dim) for j in range(dim - i)]
    return build_table_algebra(p, basis, [1] + [0] * (dim - 1), constants)


@pytest.fixture(scope="session")
def z4():
    return build_zmod(4)


@pytest.fixture(scope="session")
def z6():
    return build_zmod(6)


@pytest.fixture(scope="session")
def z30():
    return build_zmod(30)


@pytest.fixture(scope="session")
def m2gf2():
    return build_matrix_ring(2, 2)


@pytest.fixture(scope="session")
def m2gf3():
    return build_matrix_ring(2, 3)


@pytest.fixture(scope="session")
def example():
    return build_example_ring()


@pytest.fixture(scope="session")
def gf3t3():
    return truncated_polynomials(3, 3)  # an odd-p table algebra
