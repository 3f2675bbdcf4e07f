"""Built-in instance battery: algebras with known trivolutions.

The generators here feed the randomized property suites, the CLI
``suite`` command and the acceptance battery.  Each instance records the
algebra, the trivolution and an involution on its kernel ideal (when the
kernel is nonzero, for the splitting factorization).  Everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import (
    Algebra,
    GroupTable,
    cyclic_group_table,
    function_algebra,
    group_algebra,
    matrix_algebra,
    opposite_algebra,
    product_algebra,
    verify_group_table,
)
from .starmap import AlgMap, conjugation_map, make_map


@dataclass(frozen=True)
class TrivolutionInstance:
    name: str
    algebra: Algebra
    tau: AlgMap
    kernel_involution: AlgMap | None = None  # ambient map restricting to ker(tau)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def indicator_trivolution(algebra: Algebra, k_set, perm: dict[int, int] | None = None) -> AlgMap:
    """On a pointwise algebra: project onto the coordinates in ``k_set``,
    conjugate, and optionally permute them by an involutive permutation."""
    n = algebra.dim
    matrix = np.zeros((n, n), dtype=complex)
    for j in k_set:
        matrix[j, perm[j] if perm else j] = 1.0
    return make_map(matrix, conjugating=True, source=algebra)


def standard_group_involution(algebra: Algebra, group: GroupTable) -> AlgMap:
    """g -> g^{-1} with conjugated coefficients."""
    n = len(group.inverse)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[group.inverse, np.arange(n)] = 1.0
    return make_map(matrix, conjugating=True, source=algebra)


def averaging_trivolution(algebra: Algebra, group: GroupTable, subgroup) -> AlgMap:
    """Standard involution composed with averaging over a normal subgroup."""
    n = len(group.table)
    members = [int(s) for s in subgroup]
    averaging = np.zeros((n, n), dtype=complex)
    for g in range(n):
        for s in members:
            averaging[group.table[g, s], g] += 1.0 / len(members)
    standard = standard_group_involution(algebra, group)
    return make_map(standard.matrix @ averaging, conjugating=True, source=algebra)


def conjugate_transpose_involution(algebra: Algebra, n: int) -> AlgMap:
    """E_ij -> E_ji with conjugated coefficients on M_n (row-major units)."""
    dim = n * n
    matrix = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            matrix[j * n + i, i * n + j] = 1.0
    return make_map(matrix, conjugating=True, source=algebra)


def block_map(product: Algebra, left: AlgMap | None, right: AlgMap | None,
              left_dim: int) -> AlgMap:
    """Block-diagonal map on a product algebra; ``None`` blocks are zero."""
    n = product.dim
    matrix = np.zeros((n, n), dtype=complex)
    if left is not None:
        matrix[:left_dim, :left_dim] = left.matrix
    if right is not None:
        matrix[left_dim:, left_dim:] = right.matrix
    return make_map(matrix, conjugating=True, source=product)


def remark_pair() -> tuple[Algebra, AlgMap]:
    """C^2 pointwise with the map (z1, z2) -> (conj z1, 0)."""
    algebra = function_algebra(2)
    tau = make_map([[1.0, 0.0], [0.0, 0.0]], conjugating=True, source=algebra)
    return algebra, tau


def c4_indicator_pair() -> tuple[Algebra, AlgMap]:
    """C^4 pointwise with conjugation on the first two coordinates."""
    algebra = function_algebra(4)
    return algebra, indicator_trivolution(algebra, (0, 1))


def klein_table() -> GroupTable:
    return verify_group_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def s3_table() -> GroupTable:
    """Symmetric group on three letters, elements indexed 0..5."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[t]] for t in range(3))
            table[i, j] = index[composed]
    return verify_group_table(table)


def _involutive_permutations_canonical(k_sorted: tuple[int, ...]) -> list[dict[int, int]]:
    """Canonical involutive permutations of a coordinate set, one per cycle type.

    For ``t`` transpositions the first ``2t`` coordinates (in sorted
    order) are paired consecutively; remaining coordinates are fixed.
    """
    out = []
    size = len(k_sorted)
    for t in range(size // 2 + 1):
        perm = {c: c for c in k_sorted}
        for pair in range(t):
            a, b = k_sorted[2 * pair], k_sorted[2 * pair + 1]
            perm[a], perm[b] = b, a
        out.append(perm)
    return out


def _involutive_perms_all(k_set: tuple[int, ...]) -> list[dict[int, int]]:
    """Every involutive permutation of the coordinate set (not just canonical)."""
    if not k_set:
        return [{}]
    first, rest = k_set[0], k_set[1:]
    out = []
    for sub in _involutive_perms_all(rest):
        fixed = dict(sub)
        fixed[first] = first
        out.append(fixed)
    for partner in rest:
        remaining = tuple(c for c in rest if c != partner)
        for sub in _involutive_perms_all(remaining):
            paired = dict(sub)
            paired[first], paired[partner] = partner, first
            out.append(paired)
    return out


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

def _function_instances(seed: int) -> list[TrivolutionInstance]:
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 6):
        algebra = function_algebra(n)
        for size in range(1, n + 1):
            for k_set in combinations(range(n), size):
                # all involutive permutations up to dim 4, canonical ones at dim 5
                perms = (_involutive_perms_all(k_set) if n <= 4
                         else _involutive_permutations_canonical(k_set))
                for perm in perms:
                    tau = indicator_trivolution(algebra, k_set, perm)
                    kernel_inv = conjugation_map(algebra) if size < n else None
                    out.append(TrivolutionInstance(
                        name=f"function{n}_K{''.join(map(str, k_set))}",
                        algebra=algebra, tau=tau, kernel_involution=kernel_inv))
    for n in range(6, 9):
        algebra = function_algebra(n)
        for _ in range(12):
            size = int(rng.integers(1, n + 1))
            k_set = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            perms = _involutive_perms_all(k_set)
            perm = perms[int(rng.integers(len(perms)))]
            tau = indicator_trivolution(algebra, k_set, perm)
            kernel_inv = conjugation_map(algebra) if size < n else None
            out.append(TrivolutionInstance(
                name=f"function{n}_K{''.join(map(str, k_set))}",
                algebra=algebra, tau=tau, kernel_involution=kernel_inv))
    return out


def _group_instances() -> list[TrivolutionInstance]:
    out = []
    group_specs: list[tuple[str, GroupTable, list[list[int]]]] = []
    for n in range(2, 7):
        table = cyclic_group_table(n)
        subgroups = [[0]]
        for d in range(2, n):
            if n % d == 0:
                subgroups.append(list(range(0, n, n // d)))
        subgroups.append(list(range(n)))
        group_specs.append((f"Z{n}", table, subgroups))
    group_specs.append(("V4", klein_table(), [[0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]]))
    group_specs.append(("S3", s3_table(), [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5]]))
    for name, table, subgroups in group_specs:
        algebra = group_algebra(table)
        natural = standard_group_involution(algebra, table)
        for subgroup in subgroups:
            tau = averaging_trivolution(algebra, table, subgroup)
            proper = len(subgroup) > 1
            out.append(TrivolutionInstance(
                name=f"group_{name}_N{len(subgroup)}",
                algebra=algebra, tau=tau,
                kernel_involution=natural if proper else None))
    return out


def _matrix_instances() -> list[TrivolutionInstance]:
    out = []
    for n in (2, 3):
        algebra = matrix_algebra(n)
        ct = conjugate_transpose_involution(algebra, n)
        out.append(TrivolutionInstance(name=f"M{n}_conj_transpose", algebra=algebra, tau=ct))
    # second involution on M_2: conjugate-transpose twisted by u = diag(1, -1)
    m2 = matrix_algebra(2)
    ct = conjugate_transpose_involution(m2, 2)
    u = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # Ad(diag(1,-1)) on units
    twisted = make_map(u @ ct.matrix, conjugating=True, source=m2)
    out.append(TrivolutionInstance(name="M2_twisted", algebra=m2, tau=twisted))
    return out


def _product_instances() -> list[TrivolutionInstance]:
    factors: list[tuple[str, Algebra, AlgMap]] = []
    f2 = function_algebra(2)
    factors.append(("F2", f2, conjugation_map(f2)))
    f3 = function_algebra(3)
    factors.append(("F3", f3, conjugation_map(f3)))
    for name, labels in (("Z2", ["e", "g"]), ("Z3", ["e", "g", "g2"])):
        group = cyclic_group_table(len(labels))
        algebra = group_algebra(group, labels=labels)
        factors.append((name, algebra, standard_group_involution(algebra, group)))
    m2 = matrix_algebra(2)
    factors.append(("M2", m2, conjugate_transpose_involution(m2, 2)))

    out = []
    for (lname, la, linv), (rname, ra, rinv) in combinations(factors, 2):
        prod = product_algebra(la, ra)
        natural = block_map(prod, linv, rinv, la.dim)
        out.append(TrivolutionInstance(
            name=f"prod_{lname}x{rname}_both", algebra=prod,
            tau=block_map(prod, linv, rinv, la.dim)))
        out.append(TrivolutionInstance(
            name=f"prod_{lname}x{rname}_first", algebra=prod,
            tau=block_map(prod, linv, None, la.dim),
            kernel_involution=natural))
        out.append(TrivolutionInstance(
            name=f"prod_{lname}x{rname}_second", algebra=prod,
            tau=block_map(prod, None, rinv, la.dim),
            kernel_involution=natural))
    m2xm2 = product_algebra(m2, m2)
    ct = conjugate_transpose_involution(m2, 2)
    nat = block_map(m2xm2, ct, ct, m2.dim)
    out.append(TrivolutionInstance(name="prod_M2xM2_first", algebra=m2xm2,
                                   tau=block_map(m2xm2, ct, None, m2.dim),
                                   kernel_involution=nat))
    return out


def _opposite_instances() -> list[TrivolutionInstance]:
    out = []
    group = s3_table()
    s3 = group_algebra(group)
    op = opposite_algebra(s3)
    inv = standard_group_involution(s3, group)
    # an anti-homomorphism of A stays one on the opposite algebra
    out.append(TrivolutionInstance(
        name="opposite_S3", algebra=op,
        tau=make_map(inv.matrix, conjugating=True, source=op)))
    m2op = opposite_algebra(matrix_algebra(2))
    ct = conjugate_transpose_involution(matrix_algebra(2), 2)
    out.append(TrivolutionInstance(
        name="opposite_M2", algebra=m2op,
        tau=make_map(ct.matrix, conjugating=True, source=m2op)))
    return out


def first_column_algebra() -> Algebra:
    """Two-dimensional algebra of first-column matrices inside M_2.

    Non-unital, with a one-parameter family of right identities; the
    canonical demonstration ground for the right-identity extension.
    """
    from .algebra import make_algebra

    structure = np.zeros((2, 2, 2), dtype=complex)
    structure[0, 0, 0] = 1.0  # E11 . E11 = E11
    structure[1, 0, 1] = 1.0  # E21 . E11 = E21
    return make_algebra(2, structure, ["E11", "E21"])


def instance_battery(seed: int = 0) -> list[TrivolutionInstance]:
    """Deterministic battery of 215 trivolution instances, whatever the seed.

    158 function, 21 group, 3 matrix, 31 product and 2 opposite instances.
    """
    return (_function_instances(seed) + _group_instances() + _matrix_instances()
            + _product_instances() + _opposite_instances())
