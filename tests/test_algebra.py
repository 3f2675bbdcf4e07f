"""Structure-constant algebra construction, products, ideals, quotients."""

import warnings
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve.algebra import (
    Subspace,
    _find_identity,
    cyclic_group_table,
    function_algebra,
    group_algebra,
    induced_subalgebra,
    make_algebra,
    matrix_algebra,
    multiply,
    opposite_algebra,
    product_algebra,
    quotient,
    verify_group_table,
)
from trivolve.duality import verify_character
from trivolve.instances import instance_battery, remark_pair
from trivolve.linalg import EPS, echelon_rows, max_abs, reduce_vector
from trivolve.errors import CertificationFailure, UsageError
from trivolve.serialization import load_element
from trivolve.starmap import apply, kernel_image
from trivolve.trivolution import hermitian_decomposition
from trivolve.unitization import find_type1_solutions, range_identity, verify_extension

from spec_writers import count_calls

complex_scalars = st.builds(complex,
                            st.floats(-5, 5, allow_nan=False),
                            st.floats(-5, 5, allow_nan=False))


def brute_force_associativity(structure):
    """Independent oracle: worst residual of the associativity identity."""
    n = structure.shape[0]
    worst = 0.0
    where = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    left = sum(structure[i, j, m] * structure[m, k, l] for m in range(n))
                    right = sum(structure[j, k, m] * structure[i, m, l] for m in range(n))
                    if abs(left - right) > worst:
                        worst = abs(left - right)
                        where = (i, j, k, l)
    return worst, where


class TestMakeAlgebra:
    def test_pointwise_identity(self, c2):
        assert c2.is_unital()
        assert np.allclose(c2.identity_coords, [1.0, 1.0])

    def test_group_algebra_identity(self, z2):
        assert z2.basis_labels == ("e", "g")
        assert np.allclose(z2.identity_coords, [1.0, 0.0])

    def test_associativity_violation_reports_worst_quadruple(self):
        structure = np.zeros((2, 2, 2), dtype=complex)
        structure[0, 0, 0] = 1.0
        structure[0, 1, 0] = 1.0
        structure[1, 0, 0] = 2.0
        oracle_worst, oracle_where = brute_force_associativity(structure)
        assert oracle_worst > 1.0  # genuinely non-associative
        with pytest.raises(CertificationFailure) as excinfo:
            make_algebra(2, structure)
        assert excinfo.value.law == "(b_i b_j) b_k = b_i (b_j b_k)"
        assert excinfo.value.residual == pytest.approx(oracle_worst)
        assert tuple(excinfo.value.details["quadruple"]) == oracle_where

    def test_declared_identity_verified(self):
        structure = np.zeros((2, 2, 2), dtype=complex)
        structure[0, 0, 0] = 1.0
        structure[1, 1, 1] = 1.0
        with pytest.raises(CertificationFailure) as info:
            make_algebra(2, structure, declared_identity=[1.0, 0.0])
        assert info.value.law == "e b_i = b_i = b_i e"

    def test_non_finite_input_rejected(self, c2):
        # NaN residuals compare false against eps, so the checks alone would pass
        structure = np.array(c2.structure)
        structure[0, 1, 0] = np.nan
        with pytest.raises(UsageError):
            make_algebra(2, structure, declared_identity=[1, 1])
        with pytest.raises(UsageError):
            make_algebra(2, c2.structure, declared_identity=[1, np.inf])

    def test_identity_residual_invariant(self, battery):
        for inst in battery[::20]:
            algebra = inst.algebra
            if not algebra.is_unital():
                continue
            e = algebra.identity_coords
            for i in range(algebra.dim):
                basis = np.eye(algebra.dim, dtype=complex)[i]
                left = multiply(algebra, e, basis)
                right = multiply(algebra, basis, e)
                assert np.max(np.abs(left - basis)) <= 1e-9
                assert np.max(np.abs(right - basis)) <= 1e-9


def lstsq_identity(structure):
    """The identity as ``lstsq`` finds it from the stacked system, or None."""
    n = structure.shape[0]
    system = np.stack([structure.transpose(1, 2, 0), structure.transpose(0, 2, 1)],
                      axis=1).reshape(2 * n * n, n)
    target = np.broadcast_to(np.eye(n)[:, None, :], (n, 2, n)).reshape(-1)
    e, *_ = np.linalg.lstsq(system, target, rcond=None)
    return e if max_abs(system @ e - target) <= EPS else None


def random_basis_m3(scale):
    """M_3 with its constants in a random basis (cond about 37), times ``scale``."""
    p = np.random.default_rng(3).standard_normal((9, 9))
    c = np.asarray(matrix_algebra(3).structure)
    return scale * np.einsum("ai,bj,abm,km->ijk", p, p, c, np.linalg.inv(p))


def identity_cases():
    seen = {}
    for seed in (0, 1, 7):
        for inst in instance_battery(seed):
            c = np.asarray(inst.algebra.structure)
            seen.setdefault(c.tobytes(), (inst.name, c))
    cases = list(seen.values())
    cases.append(("zero product", np.zeros((3, 3, 3), dtype=complex)))
    for n in (1, 4):  # b_i b_j = b_j: every stacked row b_m b_i holds n non-zeros
        right_zero = np.zeros((n, n, n), dtype=complex)
        right_zero[:, np.arange(n), np.arange(n)] = 1
        cases.append((f"right zero {n}", right_zero))
    cases += [(f"M3 random basis x{scale:g}", random_basis_m3(scale))
              for scale in (1, 10, 100, 1e3, 1e4)]
    return cases


def test_identity_verdict_matches_lstsq():
    cases = identity_cases()
    assert len(cases) > 30
    unital = 0
    for name, c in cases:
        found, expected = _find_identity(c), lstsq_identity(c)
        assert (found is None) == (expected is None), name
        if found is not None:
            unital += 1
            np.testing.assert_allclose(found, expected, rtol=0, atol=1e-9, err_msg=name)
    assert 0 < unital < len(cases)


def test_identity_search_on_subnormal_constants_warns_nothing():
    # the lstsq fallback overflows here; the residual fails, and numpy stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not make_algebra(1, [[[2.2250738585072014e-309j]]]).is_unital()


def test_identity_of_a_group_algebra_is_exact():
    c = np.asarray(group_algebra(cyclic_group_table(12)).structure)
    p = np.random.default_rng(2).permutation(12)
    e = _find_identity(np.ascontiguousarray(c[np.ix_(p, p, p)]))
    assert e.tobytes() == np.eye(12, dtype=complex)[np.argmax(p == 0)].tobytes()


class TestMultiply:
    def test_pointwise(self, c2):
        out = multiply(c2, np.array([1, 2], dtype=complex), np.array([3, 4], dtype=complex))
        assert np.allclose(out, [3, 8])

    def test_group_algebra_zero_divisor(self, z2):
        # oracle: expand (e+g)(e-g) by the Z2 table
        def convolve(a, b):
            table = cyclic_group_table(2).table
            out = np.zeros(2, dtype=complex)
            for i in range(2):
                for j in range(2):
                    out[table[i, j]] += a[i] * b[j]
            return out

        prod = multiply(z2, np.array([1, 1], dtype=complex), np.array([1, -1], dtype=complex))
        assert np.allclose(prod, convolve([1, 1], [1, -1]))
        assert np.allclose(prod, 0.0)

    def test_matrix_units(self, m2):
        e11 = np.eye(m2.dim, dtype=complex)[0]
        e12 = np.eye(m2.dim, dtype=complex)[1]
        assert np.allclose(multiply(m2, e11, e12), e12)

    @given(a=st.lists(complex_scalars, min_size=3, max_size=3),
           b=st.lists(complex_scalars, min_size=3, max_size=3),
           c=st.lists(complex_scalars, min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_associativity_on_elements(self, a, b, c):
        z3 = group_algebra(cyclic_group_table(3))
        x, y, z = (np.array(v, dtype=complex) for v in (a, b, c))
        left = multiply(z3, multiply(z3, x, y), z)
        right = multiply(z3, x, multiply(z3, y, z))
        assert np.max(np.abs(left - right)) < 1e-9


def _returned_vectors(algebra, tau):
    """One element or functional returned by each API that hands one out, by name."""
    x = np.array([1j, 0.0], dtype=complex)
    _, image = kernel_image(tau)
    e_b = range_identity(algebra, image)
    return {
        "multiply": lambda: multiply(algebra, x, x),
        "apply": lambda: apply(tau, x),
        "range_identity": lambda: e_b,
        "hermitian_decomposition": lambda: hermitian_decomposition(tau, x)[1],
        "find_type1_solutions": lambda: find_type1_solutions(algebra, tau).solutions[-1],
        "verify_character": lambda: verify_character(algebra, [1.0, 0.0]),
        "load_element": lambda: load_element("[1, 2]", algebra),
        "ExtensionSpec.x0": lambda: verify_extension(algebra, tau, 0.0, e_b.copy(),
                                                     e_b=e_b, image=image).x0,
    }


@pytest.mark.parametrize("api", list(_returned_vectors(*remark_pair())))
def test_an_element_is_a_complex_array(api):
    algebra, tau = remark_pair()
    value = _returned_vectors(algebra, tau)[api]()
    assert isinstance(value, np.ndarray)
    assert value.dtype == complex and value.shape == (algebra.dim,)
    if api == "ExtensionSpec.x0":  # the spec keeps its own read-only copy
        assert not value.flags.writeable


def test_battery_size_does_not_depend_on_the_seed():
    assert [len(instance_battery(seed)) for seed in (0, 1, 41)] == [215, 215, 215]


class TestConstructStandard:
    def test_function(self):
        f3 = function_algebra(3)
        assert np.allclose(f3.identity_coords, [1, 1, 1])

    def test_group_z3(self, z3):
        assert z3.dim == 3
        # commutative
        assert np.allclose(z3.structure, z3.structure.transpose(1, 0, 2))

    def test_opposite_matrix_units(self, m2):
        op = opposite_algebra(m2)
        e11, e12 = np.eye(4, dtype=complex)[0], np.eye(4, dtype=complex)[1]
        # oracle: E12 E11 = 0 in M2, so the opposite product E11 . E12 vanishes
        assert np.allclose(multiply(op, e11, e12), 0.0)

    def test_opposite_involutive_bit_identical(self, m2, z3):
        for algebra in (m2, z3):
            back = opposite_algebra(opposite_algebra(algebra))
            assert np.array_equal(back.structure, algebra.structure)

    def test_product_identity(self, c2, z2):
        prod = product_algebra(c2, z2)
        assert prod.dim == 4
        assert np.allclose(prod.identity_coords, [1, 1, 1, 0])

    def test_bad_group_table(self):
        with pytest.raises(CertificationFailure) as info:
            verify_group_table([[0, 0], [0, 0]])
        assert info.value.law == "identity axiom"
        with pytest.raises(CertificationFailure) as info:
            verify_group_table([[0, 1], [1, 1]])
        assert info.value.law == "inverse axiom"


# the smallest loop that is not a group: a Latin square with identity 0
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4],
                        [1, 0, 3, 4, 2],
                        [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1],
                        [4, 3, 1, 2, 0]]


def axiom_failure(table):
    """Independent oracle: the first failing axiom of a square table, element by element."""
    n = len(table)
    if any(v < 0 or v >= n for row in table for v in row):
        return "closure", "table entries must index group elements"
    if not any(all(table[e][i] == i and table[i][e] == i for i in range(n)) for e in range(n)):
        return "identity axiom", "no identity element in table"
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or sorted(row[i] for row in table) != list(range(n)):
            return "inverse axiom", f"element {i} has no inverse (table not a Latin square)"
    for i, j, k in iter_product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return "associativity", f"associativity fails at ({i},{j},{k})"
    return None


class TestVerifyGroupTable:
    @pytest.mark.parametrize("table, law, message", [
        ([[0, 1]], "group table shape", "group table must be square"),
        ([[0, 2], [1, 0]], "closure", "table entries must index group elements"),
        ([[0, -1], [1, 0]], "closure", "table entries must index group elements"),
        # row 0 reads 0, 1 but column 0 does not, and no row 1 reads 0, 1
        ([[0, 1], [0, 1]], "identity axiom", "no identity element in table"),
        ([[0, 0], [0, 0]], "identity axiom", "no identity element in table"),
        # column 1 repeats 2 and so does row 2: element 1 fails first
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 2, 0, 1], [3, 0, 1, 2]], "inverse axiom",
         "element 1 has no inverse (table not a Latin square)"),
        # element 1's row and column are permutations; element 2's are not
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "inverse axiom",
         "element 2 has no inverse (table not a Latin square)"),
        (NON_ASSOCIATIVE_LOOP, "associativity", "associativity fails at (1,1,2)"),
    ])
    def test_each_failure_names_its_axiom(self, table, law, message):
        with pytest.raises(CertificationFailure) as info:
            verify_group_table(table)
        assert info.value.law == law
        assert str(info.value) == message

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                                     min_size=n, max_size=n),
                            st.booleans())))
    def test_agrees_with_elementwise_axioms(self, drawn):
        table, unital = drawn
        n = len(table)
        if unital:  # make 0 an identity, so the later axioms get reached
            table = [list(range(n))] + [[i] + row[1:] for i, row in enumerate(table[1:], 1)]
        expected = axiom_failure(table)
        if expected is None:
            group = verify_group_table(table)
            assert [table[g][group.inverse[g]] for g in range(n)] == [group.identity] * n
            return
        with pytest.raises(CertificationFailure) as info:
            verify_group_table(table)
        assert (info.value.law, str(info.value)) == expected


class TestQuotient:
    def test_coordinate_projection(self, c3):
        s = Subspace(np.array([[0.0], [0.0], [1.0]]), c3)
        quot, qmap = quotient(c3, s)
        assert quot.dim == 2
        expected = function_algebra(2)
        assert np.allclose(quot.structure, expected.structure)

    def test_group_algebra_line(self, z2):
        # oracle: span{e-g} is an ideal and the quotient is one-dimensional
        s = Subspace(np.array([[1.0], [-1.0]]), z2)
        quot, qmap = quotient(z2, s)
        assert quot.dim == 1
        assert np.allclose(quot.structure, [[[1.0]]])
        x = np.array([1, 0], dtype=complex)
        y = np.array([0, 1], dtype=complex)
        from trivolve.starmap import apply

        qx, qy = apply(qmap, x), apply(qmap, y)
        qxy = apply(qmap, multiply(z2, x, y))
        assert np.allclose(qxy, multiply(quot, qx, qy))

    @pytest.mark.parametrize("units, witness", [
        ((0, 2), "s_0 . b_1"),  # first column {E11, E21}: a left ideal only
        ((0, 1), "b_2 . s_0"),  # first row {E11, E12}: a right ideal only
    ])
    def test_one_sided_ideal_witness(self, m2, units, witness):
        basis = np.zeros((4, 2), dtype=complex)
        basis[list(units), [0, 1]] = 1.0
        with pytest.raises(CertificationFailure) as caught:
            quotient(m2, Subspace(basis, m2))
        assert caught.value.law == "A.S and S.A contained in S"
        assert str(caught.value) == (
            f"subspace is not a two-sided ideal: {witness} escapes the subspace")

    def test_zero_subspace_gives_the_algebra_itself(self, z3, monkeypatch):
        # the X* of X = A*: X^perp is 0, and A / 0 is A with the identity map, neither
        # built nor certified again
        built = count_calls(monkeypatch, "make_algebra")
        checked = count_calls(monkeypatch, "classify_multiplicativity")
        quot, qmap = quotient(z3, Subspace(np.zeros((3, 0)), z3))
        assert quot is z3 and qmap.source is z3 and qmap.target is z3
        assert np.array_equal(qmap.matrix, np.eye(3)) and not qmap.conjugating
        assert built == checked == []

    def test_whole_algebra_gives_the_zero_algebra(self, z2):
        # the X* of X = 0: X^perp is all of A
        quot, qmap = quotient(z2, Subspace(np.eye(2), z2))
        assert quot.dim == 0 and quot.structure.shape == (0, 0, 0)
        assert qmap.matrix.shape == (0, 2)

    def test_identity_span_not_ideal(self, c2):
        s = Subspace(np.array([[1.0], [1.0]]), c2)
        # oracle: (1,1).(1,0) = (1,0) is outside span{(1,1)}
        with pytest.raises(CertificationFailure) as info:
            quotient(c2, s)
        assert info.value.law == "A.S and S.A contained in S"


class TestAnalyzeSubspace:
    """Subalgebra and ideal verdicts, as ``induced_subalgebra`` and ``quotient`` certify them."""

    def test_coordinate_axis(self, c2):
        s = Subspace(np.array([[1.0], [0.0]]), c2)
        sub, _ = induced_subalgebra(c2, s)
        quot, _ = quotient(c2, s)  # a two-sided ideal
        assert sub.dim == quot.dim == 1

    def test_first_column_of_m2(self, m2):
        basis = np.zeros((4, 2), dtype=complex)
        basis[0, 0] = 1.0  # E11
        basis[2, 1] = 1.0  # E21
        s = Subspace(basis, m2)
        assert induced_subalgebra(m2, s)[0].dim == 2
        # a left ideal: b_i s_j stays in s for every basis vector and column
        assert all(s.residual(multiply(m2, np.eye(4, dtype=complex)[i], col)) <= EPS
                   for i in range(4) for col in basis.T)
        with pytest.raises(CertificationFailure) as caught:  # but not a right ideal
            quotient(m2, s)
        assert "s_0 . b_1 escapes" in str(caught.value)

    def test_augmentation_fixed_line(self, z2):
        # oracle: g(e+g) = g + e, so span{e+g} is a two-sided ideal
        s = Subspace(np.array([[1.0], [1.0]]), z2)
        assert induced_subalgebra(z2, s)[0].dim == 1
        assert quotient(z2, s)[0].dim == 1


def reduce_one(x, ech_rows, pivots):
    """Reference: one vector at a time, pivot value as the left factor."""
    y = np.array(x, dtype=complex)
    for row, p in zip(ech_rows, pivots):
        y = y - y[p] * row
    return y


class TestBatchedReduction:
    """Column batches must reproduce the one-vector arithmetic bit for bit."""

    @pytest.mark.parametrize("n, span_dim, cols", [(1, 1, 3), (5, 2, 7), (9, 4, 1),
                                                   (16, 7, 12), (33, 20, 5)])
    def test_reduce_vector_columns(self, n, span_dim, cols):
        rng = np.random.default_rng(n)
        span = rng.standard_normal((span_dim, n)) + 1j * rng.standard_normal((span_dim, n))
        ech, piv = echelon_rows(span)
        x = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
        expected = np.column_stack([reduce_one(x[:, j], ech, piv) for j in range(cols)])
        assert np.array_equal(reduce_vector(x, ech, piv), expected)
        assert np.array_equal(reduce_vector(x[:, 0], ech, piv), expected[:, 0])

    @pytest.mark.parametrize("n, span_dim", [(4, 1), (9, 5), (16, 11)])
    def test_subspace_residuals(self, n, span_dim):
        rng = np.random.default_rng(100 + n)
        algebra = function_algebra(n)
        basis = rng.standard_normal((n, span_dim)) + 1j * rng.standard_normal((n, span_dim))
        s = Subspace(basis, algebra)
        x = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        x[:, 0] = basis @ rng.standard_normal(span_dim)  # a member: residual near zero
        expected = np.array([np.max(np.abs(reduce_one(x[:, j], s.echelon, s.pivots)))
                             for j in range(6)])
        assert np.array_equal(s.residuals(x), expected)
        assert [s.residual(x[:, j]) for j in range(6)] == expected.tolist()
        assert s.residuals(np.zeros((n, 0))).shape == (0,)

    @pytest.mark.parametrize("n", [1, 4, 24])
    def test_a_full_subspace_reduces_nothing(self, n, monkeypatch):
        # every vector lies in a subspace of full dimension: 0.0 with no reduction, which is
        # what the reduction gives on the identity echelon, and inf for a non-finite column
        rng = np.random.default_rng(n)
        algebra = function_algebra(n)
        x = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        x[0, 3], x[-1, 4] = np.inf, complex(0.0, np.nan)
        identity = Subspace(np.eye(n), algebra)
        reduced = np.abs(reduce_vector(x[:, :3], identity.echelon, identity.pivots)).max(axis=0)
        spanning = Subspace(rng.standard_normal((n, n + 2)), algebra)
        monkeypatch.setattr(Subspace, "reduce", lambda self, columns: pytest.fail("reduced"))
        for s in (identity, spanning):
            residuals = s.residuals(x)
            assert residuals[:3].tobytes() == reduced.tobytes() == np.zeros(3).tobytes()
            assert residuals[3:].tolist() == [np.inf, np.inf]
            assert s.residual(x[:, 0]) == 0.0


def lstsq_coordinates(s, columns):
    """Coordinates in ``s``'s echelon columns by ``lstsq``, and the worst residual."""
    q = s.canonical_columns()
    coords, *_ = np.linalg.lstsq(q, columns, rcond=None)
    return coords, max_abs(q @ coords - columns)


class TestCoordinates:
    """``Subspace.coordinates`` reads the pivot entries; ``lstsq`` is the reference."""

    @pytest.fixture(scope="class")
    def subspaces(self, battery):
        return [(f"{inst.name} {side}", s) for inst in battery
                for side, s in zip(("kernel", "image"), kernel_image(inst.tau)) if s.dim]

    def test_members_match_lstsq(self, subspaces):
        assert len(subspaces) == 380
        rng = np.random.default_rng(0)
        for name, s in subspaces:
            weights = rng.standard_normal((s.dim, 3)) + 1j * rng.standard_normal((s.dim, 3))
            members = s.canonical_columns() @ weights
            coords, residual = s.coordinates(members)
            expected, expected_residual = lstsq_coordinates(s, members)
            assert max_abs(coords - expected) <= 1e-12, name
            assert max(residual, expected_residual) <= 1e-12, name
            one, one_residual = s.coordinates(members[:, 0])
            assert one.shape == (s.dim,) and one_residual <= 1e-12, name

    def test_induced_structure_matches_lstsq(self, subspaces):
        images = [(name, s) for name, s in subspaces if name.endswith("image")]
        assert images
        for name, s in images:
            q = s.canonical_columns()
            k = q.shape[1]
            products = np.einsum("ai,bj,abm->mij", q, q, s.algebra.structure).reshape(-1, k * k)
            coeffs, residual = lstsq_coordinates(s, products)
            assert residual <= EPS, name
            sub, embedding = induced_subalgebra(s.algebra, s)
            assert np.array_equal(embedding, q), name
            expected = coeffs.reshape(k, k, k).transpose(1, 2, 0)
            assert max_abs(sub.structure - expected) <= 1e-12, name

    def test_a_column_outside_fails_both_routes(self, subspaces):
        outside = [(name, s) for name, s in subspaces if s.free]
        assert outside
        for name, s in outside:
            column = np.eye(s.algebra.dim, dtype=complex)[:, s.free[0]]
            column += s.canonical_columns().sum(axis=1)
            assert s.coordinates(column)[1] > EPS, name
            assert lstsq_coordinates(s, column)[1] > EPS, name
