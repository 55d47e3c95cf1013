import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffdigits.field import (
    FieldError,
    FieldSpec,
    _mod,
    add,
    digits,
    get_field,
    madd,
    matmul,
    negate,
    undigits,
)
from ffdigits.polys import Poly, pow_mod

F2 = get_field(2)
F3 = get_field(3)
F4 = get_field(2, 2)
F5 = get_field(5)
F9 = get_field(3, 2)

U = 2  # code of the generator u in F_4 = F_2[u]/(u^2+u+1)


def test_char_two_addition():
    assert F2.add(1, 1) == 0


def test_f4_generator_square():
    # u * u reduces to u + 1 under u^2 + u + 1
    assert F4.mul(U, U) == F4.encode((1, 1))


def test_f5_inverse():
    assert F5.mul(3, 2) == 1
    assert F5.inv(3) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_default_modulus_f4():
    assert F4.modulus == (1, 1, 1)


def test_bad_constructions():
    with pytest.raises(FieldError):
        FieldSpec(4)
    with pytest.raises(FieldError):
        FieldSpec(2, 2, modulus=(0, 0, 1))  # t^2 is reducible
    with pytest.raises(FieldError):
        # t^2 + 2 = (t + 1)(t + 2), though t^2 + t + 2 is irreducible
        FieldSpec(3, 2, modulus=(2, 0, 1))
    with pytest.raises(FieldError):
        FieldSpec(5, 1, modulus=(1, 1))


def test_trace_prime_field_is_identity():
    assert all(F5.trace(a) == a for a in F5.elements())


def test_trace_f4():
    assert F4.trace(U) == 1
    assert F4.trace(0) == 0


def test_trace_linear_over_prime_subfield():
    for c in range(F9.p):
        for d in range(F9.p):
            for a in F9.elements():
                for b in F9.elements():
                    lhs = F9.trace(F9.add(F9.mul(c, a), F9.mul(d, b)))
                    rhs = (c * F9.trace(a) + d * F9.trace(b)) % F9.p
                    assert lhs == rhs


def test_psi_values():
    assert abs(F2.psi(0) - 1) < 1e-12
    assert abs(F2.psi(1) + 1) < 1e-12
    assert abs(sum(F3.psi(a) for a in F3.elements())) < 1e-12


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_psi_is_additive(field):
    for a in field.elements():
        for b in field.elements():
            lhs = field.psi(field.add(a, b))
            assert abs(lhs - field.psi(a) * field.psi(b)) < 1e-12


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
def test_character_orthogonality(field):
    q = field.q
    for b in field.elements():
        total = sum(field.psi(field.mul(a, b)) for a in field.elements())
        expected = q if b == 0 else 0
        assert abs(total - expected) < 1e-9 * q


@pytest.mark.parametrize("field", [F3, F4, F9])
def test_every_nonzero_element_invertible(field):
    for a in range(1, field.q):
        assert field.mul(a, field.inv(a)) == 1


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_ring_axioms(a, b, c):
    assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b), F9.mul(a, c))
    assert F9.mul(a, b) == F9.mul(b, a)
    assert F9.mul(F9.mul(a, b), c) == F9.mul(a, F9.mul(b, c))


def test_pow_matches_repeated_multiplication():
    for a in range(1, F9.q):
        acc = 1
        for e in range(10):
            assert F9.pow(a, e) == acc
            acc = F9.mul(acc, a)
    assert F9.pow(2, -1) == F9.inv(2)


def test_spec_string_round_trip():
    # the wire form carries (q, modulus), which rebuild the field
    for field in (F2, F5, F4, F9):
        assert FieldSpec.from_q(field.q, field.modulus) == field
    assert F4.spec_string() == "2^2:1,1,1"
    assert F9.spec_string() == "3^2:1,0,1"
    assert F5.spec_string() == "5"


def test_from_q():
    assert FieldSpec.from_q(8).k == 3
    assert FieldSpec.from_q(9).p == 3
    with pytest.raises(FieldError):
        FieldSpec.from_q(6)


def test_element_formatting():
    assert F5.format_element(3) == "3"
    assert F4.format_element(3) == "[1 1]"
    assert F4.parse_element("[1 1]") == 3
    assert F4.parse_element("2") == 2
    with pytest.raises(FieldError):
        F5.parse_element("7")


def test_coords_encode_round_trip():
    for a in F9.elements():
        assert F9.encode(F9.coords(a)) == a


def test_psi_unit_modulus():
    for a in F9.elements():
        assert abs(abs(F9.psi(a)) - 1) < 1e-12


@pytest.mark.parametrize(
    "q, modulus",
    [
        (8, (1, 1, 0, 1)),
        (9, (1, 0, 1)),
        (16, (1, 1, 0, 0, 1)),
        (25, (2, 0, 1)),
        (27, (1, 2, 0, 1)),
        (81, (2, 1, 0, 0, 1)),
    ],
)
def test_default_modulus_pinned(q, modulus):
    # the modulus fixes every element code, so it must never drift
    assert FieldSpec.from_q(q).modulus == modulus


def test_digits_int_and_array_agree():
    assert digits(11, 3, 4) == (2, 0, 1, 0)
    values = np.arange(81, dtype=np.int64)
    assert digits(values, 3, 4).tolist() == [list(digits(v, 3, 4)) for v in range(81)]


@pytest.mark.parametrize("base", [2, 3, 7, 17])
@pytest.mark.parametrize("width", [0, 1, 5])
def test_undigits_inverts_digits(base, width):
    top = base**width
    values = np.unique(np.r_[np.arange(0, top, max(1, top // 997)), top - 1])
    assert np.array_equal(undigits(digits(values, base, width), base), values)


def test_table_build_sums_one_coordinate_at_a_time():
    # a (q, q, k) coordinate array would peak at about 170 MB for F_1024
    field = FieldSpec(2, 10)  # not interned: every table is built here
    tracemalloc.start()
    try:
        for table in ("mul_table", "add_table", "neg_table", "inv_table", "trace_table", "psi_table"):
            getattr(field, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 81])
def test_op_tables_match_polynomial_arithmetic(q):
    field = FieldSpec.from_q(q)
    Fp = get_field(field.p)
    m = Poly(Fp, field.modulus or (0, 1))  # prime fields reduce mod t
    elems = [Poly(Fp, field.coords(a)) for a in field.elements()]

    def code(f):
        return field.encode(f.coeffs)

    mul = np.array([[code(x * y % m) for y in elems] for x in elems])
    add = np.array([[code(x + y) for y in elems] for x in elems])
    neg = [code(-x) for x in elems]
    inv = [0] + [int(np.flatnonzero(mul[a] == 1)[0]) for a in range(1, q)]
    trace = [
        code(sum((pow_mod(x, field.p**i, m) for i in range(field.k)), Poly.zero(Fp)))
        for x in elems
    ]
    assert field.mul_table.tolist() == mul.tolist()
    assert field.add_table.tolist() == add.tolist()
    assert field.neg_table.tolist() == neg
    assert field.inv_table.tolist() == inv
    assert field.trace_table.tolist() == trace


@pytest.mark.parametrize("q", [256, 243])
def test_mul_table_equals_the_int64_product(q):
    # the table's float64 products are exact: no sum passes k (p - 1)^2
    field = FieldSpec.from_q(q)  # not interned: the table is built here
    p, k = field.p, field.k
    C = digits(np.arange(q, dtype=np.int64), p, k)
    # the coefficients of a(t) b(t) in int64, then reduced mod the modulus from the top
    prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, :, i : i + k] += C[:, None, i, None] * C[None, :, :]
    for top in range(2 * k - 2, k - 1, -1):
        prod[:, :, top - k : top] -= prod[:, :, top, None] * np.array(field.modulus[:k])
        prod %= p
    assert field.mul_table.dtype == np.int64
    assert np.array_equal(field.mul_table, undigits(prod[:, :, :k], p))


def _scalar_matmul(field, A, B):
    out = [[0] * B.shape[1] for _ in range(len(A))]
    for i in range(len(A)):
        for j in range(B.shape[1]):
            for k in range(B.shape[0]):
                out[i][j] = field.add(out[i][j], field.mul(int(A[i, k]), int(B[k, j])))
    return out


@pytest.mark.parametrize("q", [2, 5, 17, 4, 9, 8])
def test_matmul_matches_scalar_ops(q):
    field = FieldSpec.from_q(q)
    rng = np.random.default_rng(q)
    A = rng.integers(0, q, size=(6, 4))
    B = rng.integers(0, q, size=(4, 3))
    assert matmul(field, A, B).tolist() == _scalar_matmul(field, A, B)
    # leading dimensions broadcast: one vector-matrix product per batch row
    A = rng.integers(0, q, size=(5, 1, 4))
    B = rng.integers(0, q, size=(5, 4, 3))
    expected = [_scalar_matmul(field, A[b], B[b]) for b in range(5)]
    assert matmul(field, A, B).tolist() == expected


@pytest.mark.parametrize("q", [2, 5, 17, 4, 9, 8])
def test_elementwise_ops_match_scalar_ops(q):
    F = FieldSpec.from_q(q)
    A, B, C = np.random.default_rng(q).integers(0, q, size=(3, 40))
    rows = list(zip(A.tolist(), B.tolist(), C.tolist()))
    assert negate(F, A).tolist() == [F.neg(a) for a, *_ in rows]
    assert add(F, A, B).tolist() == [F.add(a, b) for a, b, *_ in rows]
    assert madd(F, C, A, B).tolist() == [F.add(c, F.mul(a, b)) for a, b, c, *_ in rows]
    # scalars broadcast against arrays
    assert add(F, A, 1).tolist() == [F.add(a, 1) for a, *_ in rows]


@pytest.mark.parametrize(
    "X", [-7, 12, np.int64(-7), np.arange(-600, 400), np.arange(-3000, 2000)], ids=repr
)
def test_mod_reduces_ints_and_arrays(X):
    # a Python int stays an int (every scalar FieldSpec op reaches _mod); an array
    # of 1024 entries or more is reduced in place by floor division
    expected = np.asarray(X) % 5
    out = _mod(X.copy() if isinstance(X, np.ndarray) else X, 5)
    assert type(out) is type(X)
    assert np.array_equal(out, expected) and np.asarray(out).dtype == expected.dtype
    if isinstance(X, np.ndarray) and X.size >= 1024:
        Y = X.copy()
        assert _mod(Y, 5) is Y
