"""Seeded inputs and their expected results for the benchmark workloads.

Every algebra is built here from its definition with plain numpy (a
function algebra, a group table, matrix units, products and opposites),
never through ``trivolve``.  Each construction carries the facts that
follow from the definition: the kind of the map, ``dim I`` and ``dim B``,
the characters and invariant means of a commutative algebra, its
spectra, and the number of family-I extensions.  The oracle compares
reports against these facts, so a classifier bug cannot vouch for itself.

A seed fixes everything: the spec files written and the op list.  A
basis permutation is applied to every instance; it is an exact
relabelling, so no verdict depends on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("battery", "scale", "derive")


# ---------------------------------------------------------------------------
# algebras from their definitions
# ---------------------------------------------------------------------------

@dataclass
class Alg:
    """An algebra with the facts its definition gives."""

    name: str
    structure: np.ndarray            # c[i, j, k]: b_i b_j = sum_k c[i, j, k] b_k
    natural: np.ndarray              # matrix of its natural involution (conjugate-linear)
    characters: list | None = None   # [(phi, invariant mean)] when commutative semisimple
    spectrum: Callable | None = None  # coords -> eigenvalues of left multiplication
    table: np.ndarray | None = None  # group table, for group algebras

    @property
    def dim(self) -> int:
        return self.structure.shape[0]


def _from_characters(chars) -> Callable:
    phis = np.array([phi for phi, _ in chars])
    return lambda x: phis @ x


def function_alg(n: int) -> Alg:
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    eye = np.eye(n, dtype=complex)
    chars = [(eye[i], eye[i]) for i in range(n)]
    return Alg(f"C^{n}", c, eye, chars, _from_characters(chars))


def cyclic_table(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def klein_table() -> np.ndarray:
    return np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def s3_table() -> np.ndarray:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[t]] for t in range(3))] for q in perms] for p in perms])


def group_alg(name: str, table: np.ndarray, characters=None) -> Alg:
    """C[G]; ``characters`` are the group's linear characters as value rows."""
    n = table.shape[0]
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            c[i, j, table[i, j]] = 1.0
    e = next(g for g in range(n) if all(table[g] == np.arange(n)))
    standard = np.zeros((n, n), dtype=complex)
    for g in range(n):
        standard[int(np.flatnonzero(table[g] == e)[0]), g] = 1.0
    chars = None
    if characters is not None:
        # the minimal idempotent of phi is (1/|G|) sum_g conj(phi(g)) g
        chars = [(np.asarray(phi, dtype=complex), np.conj(phi) / n) for phi in characters]
    return Alg(name, c, standard, chars,
               _from_characters(chars) if chars else None, table)


def cyclic_alg(n: int) -> Alg:
    omega = np.exp(2j * np.pi / n)
    chars = [omega ** (k * np.arange(n)) for k in range(n)]
    return group_alg(f"C[Z{n}]", cyclic_table(n), chars)


def klein_alg() -> Alg:
    signs = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    return group_alg("C[V4]", klein_table(), signs)


def s3_alg() -> Alg:
    return group_alg("C[S3]", s3_table())


def matrix_alg(n: int) -> Alg:
    dim = n * n
    c = np.zeros((dim, dim, dim), dtype=complex)
    star = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            star[j * n + i, i * n + j] = 1.0
            for l in range(n):
                c[i * n + j, j * n + l, i * n + l] = 1.0

    def spectrum(x):
        return np.repeat(np.linalg.eigvals(np.asarray(x).reshape(n, n)), n)

    return Alg(f"M{n}", c, star, None, spectrum)


def product_alg(a: Alg, b: Alg) -> Alg:
    n, m = a.dim, b.dim
    c = np.zeros((n + m,) * 3, dtype=complex)
    c[:n, :n, :n] = a.structure
    c[n:, n:, n:] = b.structure
    chars = None
    if a.characters is not None and b.characters is not None:
        left, right = np.zeros(n), np.zeros(m)
        chars = ([(np.r_[phi, right], np.r_[mean, right]) for phi, mean in a.characters]
                 + [(np.r_[left, phi], np.r_[left, mean]) for phi, mean in b.characters])
    spectrum = None
    if a.spectrum is not None and b.spectrum is not None:
        def spectrum(x):
            return np.r_[a.spectrum(x[:n]), b.spectrum(x[n:])]
    return Alg(f"{a.name}x{b.name}", c, _blocks(a.natural, b.natural), chars, spectrum)


def opposite_alg(a: Alg) -> Alg:
    # left multiplication in A^op is right multiplication in A; for the
    # algebras used here (commutative ones and M_n) the spectra agree
    return Alg(f"op({a.name})", a.structure.transpose(1, 0, 2).copy(), a.natural,
               a.characters, a.spectrum, None)


def _blocks(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    n, m = left.shape[0], right.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = left
    out[n:, n:] = right
    return out


# ---------------------------------------------------------------------------
# trivolutions from their definitions
# ---------------------------------------------------------------------------

@dataclass
class Triv:
    """A trivolution ``tau`` on ``alg`` (conjugate-linear matrix) and its facts.

    ``dim_b`` is the rank of ``tau``.  ``dim_n`` is the dimension of
    ``ker tau`` meet the annihilator of ``tau(A)`` when that algebra is
    a copy of ``C^d`` (so it has ``2^d`` idempotents), else None.
    """

    alg: Alg
    tau: np.ndarray
    dim_b: int
    dim_n: int | None

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def kind(self) -> str:
        return "involution" if self.dim_b == self.dim else "trivolution_proper"

    def permuted(self, perm: np.ndarray) -> "Triv":
        """Relabel the basis: new ``b_i`` is old ``b_perm[i]``."""
        ix = np.ix_(perm, perm)
        a = self.alg
        chars = None if a.characters is None else [(phi[perm], mean[perm])
                                                   for phi, mean in a.characters]
        spectrum = None
        if a.spectrum is not None:
            def spectrum(x, inner=a.spectrum):
                old = np.empty_like(np.asarray(x, dtype=complex))
                old[perm] = x
                return inner(old)
        table = None
        if a.table is not None:
            inverse = np.argsort(perm)
            table = inverse[a.table[np.ix_(perm, perm)]]
        alg = Alg(a.name, a.structure[np.ix_(perm, perm, perm)], a.natural[ix],
                  chars, spectrum, table)
        return Triv(alg, self.tau[ix], self.dim_b, self.dim_n)


def indicator(n: int, k_set, swaps) -> Triv:
    """On ``C^n``: keep the coordinates in ``k_set``, conjugate, apply ``swaps``."""
    sigma = {j: j for j in k_set}
    for a, b in swaps:
        sigma[a], sigma[b] = b, a
    tau = np.zeros((n, n), dtype=complex)
    for j in k_set:
        tau[j, sigma[j]] = 1.0
    return Triv(function_alg(n), tau, len(k_set), n - len(k_set))


def averaging(alg: Alg, subgroup, commutative: bool) -> Triv:
    """Standard involution composed with averaging over a normal subgroup."""
    n = alg.dim
    avg = np.zeros((n, n), dtype=complex)
    for g in range(n):
        for s in subgroup:
            avg[alg.table[g, s], g] += 1.0 / len(subgroup)
    dim_b = n // len(subgroup)
    # for an abelian group B I = 0, so the annihilator of B contains I = ker tau;
    # the trivial subgroup gives an involution, with I = 0
    dim_n = n - dim_b if commutative or dim_b == n else None
    return Triv(alg, alg.natural @ avg, dim_b, dim_n)


def twisted_star(n: int, signs) -> Triv:
    """``x -> u x* u`` on ``M_n`` with ``u = diag(signs)``: an involution."""
    alg = matrix_alg(n)
    tau = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            tau[j * n + i, i * n + j] = signs[i] * signs[j]
    return Triv(alg, tau, n * n, 0)


def product_triv(a: Alg, ta: Triv | None, b: Alg, tb: Triv | None) -> Triv:
    """Block map on ``A x B``; a ``None`` side is the zero map."""
    alg = product_alg(a, b)
    n, m = a.dim, b.dim
    tau = _blocks(ta.tau if ta else np.zeros((n, n)), tb.tau if tb else np.zeros((m, m)))

    def n_part(alg_side, t):
        if t is not None:
            return t.dim_n
        # zero map: the whole factor is killed and annihilates the range
        return alg_side.dim if alg_side.characters is not None else None

    na, nb = n_part(a, ta), n_part(b, tb)
    dim_n = None if na is None or nb is None else na + nb
    return Triv(alg, tau, (ta.dim_b if ta else 0) + (tb.dim_b if tb else 0), dim_n)


def opposite_triv(t: Triv) -> Triv:
    """An anti-homomorphism of A stays one on A^op, with the same matrix."""
    return Triv(opposite_alg(t.alg), t.tau, t.dim_b, t.dim_n)


def cyclic_subgroup(n: int, order: int) -> list[int]:
    return list(range(0, n, n // order))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# battery templates: fixed sizes, seeded parameters
# ---------------------------------------------------------------------------
# ``want`` narrows the parameters: "proper" forces a nonzero kernel (for
# factor), "extend" forces a commutative N of fixed dimension, so the
# extension count is 2^dim N and the cost does not drift with the seed.

def _random_pairs(rng, k_set) -> list[tuple[int, int]]:
    order = list(rng.permutation(k_set))
    pairs = []
    while len(order) >= 2 and rng.random() < 0.5:
        pairs.append((int(order.pop()), int(order.pop())))
    return pairs


def _t_function(n):
    def make(rng, want):
        if want == "extend":
            size = n // 2
        else:
            size = int(rng.integers(1, n if want == "proper" else n + 1))
        k_set = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        return indicator(n, k_set, _random_pairs(rng, k_set))
    return make


def _t_cyclic(n):
    def make(rng, want):
        orders = _divisors(n)
        if want == "extend":
            order = 2
        else:
            order = int(rng.choice(orders[1:] if want == "proper" else orders))
        return averaging(cyclic_alg(n), cyclic_subgroup(n, order), True)
    return make


def _t_klein(rng, want):
    subgroups = [[0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]]
    if want == "extend":
        choices = subgroups[1:4]
    else:
        choices = subgroups[1:] if want == "proper" else subgroups
    return averaging(klein_alg(), choices[int(rng.integers(len(choices)))], True)


def _s3_triv(rng, want):
    normal = [[0], [0, 1, 2], [0, 1, 2, 3, 4, 5]]
    if want == "extend":
        choices = normal[:1]
    else:
        choices = normal[1:] if want == "proper" else normal
    return averaging(s3_alg(), choices[int(rng.integers(len(choices)))], False)


def _t_opposite_s3(rng, want):
    return opposite_triv(_s3_triv(rng, want))


def _signs(rng, n):
    return [float(s) for s in rng.choice([-1.0, 1.0], size=n)]


def _t_matrix(n):
    def make(rng, want):
        return twisted_star(n, _signs(rng, n))
    return make


def _t_opposite_m2(rng, want):
    return opposite_triv(twisted_star(2, _signs(rng, 2)))


def _t_product(left, right, extend_modes):
    """``left``/``right`` are (algebra constructor, trivolution template)."""
    def make(rng, want):
        a, b = left[0](), right[0]()
        if want == "extend":
            modes = extend_modes
        else:
            modes = ("first", "second") if want == "proper" else ("both", "first", "second")
        mode = modes[int(rng.integers(len(modes)))]
        ta = left[1](rng, None) if mode in ("both", "first") else None
        tb = right[1](rng, None) if mode in ("both", "second") else None
        # the factor templates build fresh algebras; rebind them to a and b
        ta = ta and Triv(a, ta.tau, ta.dim_b, ta.dim_n)
        tb = tb and Triv(b, tb.tau, tb.dim_b, tb.dim_n)
        return product_triv(a, ta, b, tb)
    return make


def _natural_full(n):
    """Template for the identity-like involution of a factor: conjugation on C^n."""
    return lambda rng, want: indicator(n, list(range(n)), [])


def _ct(n):
    return lambda rng, want: twisted_star(n, [1.0] * n)


def _std(construct):
    return lambda rng, want: averaging(construct(), [0], True)


TEMPLATES: dict[str, Callable] = {
    "F4": _t_function(4),
    "F6": _t_function(6),
    "F8": _t_function(8),
    "F16": _t_function(16),
    "Z4": _t_cyclic(4),
    "Z5": _t_cyclic(5),
    "Z6": _t_cyclic(6),
    "V4": _t_klein,
    "S3": _s3_triv,
    "M2": _t_matrix(2),
    "M3": _t_matrix(3),
    "F3xM2": _t_product((lambda: function_alg(3), _natural_full(3)),
                        (lambda: matrix_alg(2), _ct(2)), ("both", "second")),
    "Z3xZ2": _t_product((lambda: cyclic_alg(3), _std(lambda: cyclic_alg(3))),
                        (lambda: cyclic_alg(2), _std(lambda: cyclic_alg(2))),
                        ("both", "first", "second")),
    "M3xF4": _t_product((lambda: matrix_alg(3), _ct(3)),
                        (lambda: function_alg(4), _natural_full(4)), ("first",)),
    "op(S3)": _t_opposite_s3,
    "op(M2)": _t_opposite_m2,
}

_ALL = ["F4", "F8", "F16", "Z5", "Z6", "V4", "S3", "M2", "M3",
        "F3xM2", "Z3xZ2", "M3xF4", "op(S3)", "op(M2)"]
_PROPER = ["F4", "F6", "F8", "F16", "Z4", "Z6", "V4", "S3",
           "F3xM2", "Z3xZ2", "M3xF4", "op(S3)"]
_EXTEND = ["F4", "F6", "F8", "Z4", "Z6", "V4", "S3", "M2", "M3",
           "F3xM2", "Z3xZ2", "M3xF4", "op(S3)", "op(M2)"]
_SPECTRAL = ["F4", "F6", "F8", "Z4", "Z5", "Z6", "V4", "M2", "M3",
             "F3xM2", "Z3xZ2", "M3xF4", "op(M2)"]
_SMALL = ["F4", "F6", "Z4", "Z6", "V4", "S3", "M2", "M3",
          "F3xM2", "Z3xZ2", "op(S3)", "op(M2)"]
_COMMUTATIVE = ["F4", "F6", "F8", "Z4", "Z5", "Z6", "V4", "Z3xZ2"]

# (command, templates, want); every pair runs once per pass
BATTERY_PLAN = [
    ("check", _ALL, None),
    ("decompose", _ALL, None),
    ("hom", _ALL, None),
    ("factor", _PROPER, "proper"),
    ("extend", _EXTEND, "extend"),
    ("spectra", _SPECTRAL, None),
    ("arens", _SMALL, None),
    ("tim", _COMMUTATIVE + _COMMUTATIVE[:6], None),
]
SEARCH_FUNCTION_SIZES = (3, 4, 5, 6, 3, 4, 5)
SEARCH_GROUPS = ("Z4", "Z6", "V4", "S3", "Z5", "Z6")


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def pairs(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


class SpecWriter:
    """Writes numbered spec files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, payload) -> str:
        self.count += 1
        path = self.directory / f"{self.count:04d}-{stem}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def algebra(self, alg: Alg, as_group: bool = False) -> str:
        if as_group and alg.table is not None:
            return self.write("group", {"group": {"order": alg.dim,
                                                  "table": alg.table.tolist()}})
        return self.write("algebra", {"dim": alg.dim,
                                      "labels": [f"b{i}" for i in range(alg.dim)],
                                      "structure": pairs(alg.structure), "norm": "ell1"})

    def map(self, matrix, conjugating: bool = True, **extra) -> str:
        return self.write("map", {"matrix": pairs(matrix), "conjugating": conjugating, **extra})


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI call and what its report must show.

    ``expect`` always has ``exit``; the other keys depend on the command
    and are read by ``oracle.check_report``.  ``defect`` names a known
    program defect that makes this op fail today (see README).
    """

    label: str
    command: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    defect: str | None = None


def _check_op(w: SpecWriter, t: Triv, label: str) -> Op:
    a, m = w.algebra(t.alg), w.map(t.tau)
    return Op(label, "check", ["check", "--algebra", a, "--map", m],
              {"exit": 0, "kind": t.kind, "dim": t.dim,
               "norm": float(np.abs(t.tau).sum(axis=0).max())})


def _decompose_op(w: SpecWriter, t: Triv, label: str) -> Op:
    a, m = w.algebra(t.alg), w.map(t.tau)
    return Op(label, "decompose", ["decompose", "--algebra", a, "--map", m],
              {"exit": 0, "kind": t.kind, "dim": t.dim, "dim_b": t.dim_b, "tau": t.tau})


def _factor_op(w: SpecWriter, t: Triv, label: str, natural_j: bool) -> Op:
    a, m = w.algebra(t.alg), w.map(t.tau)
    argv = ["factor", "--algebra", a, "--map", m]
    j = np.eye(t.dim, dtype=complex)
    if natural_j:
        j = t.alg.natural
        argv += ["--map2", w.map(j)]
    return Op(label, "factor", argv, {"exit": 0, "dim": t.dim, "tau": t.tau, "j": j})


def _hom_op(w: SpecWriter, t: Triv, label: str, use_p: bool) -> Op:
    a, m = w.algebra(t.alg), w.map(t.tau)
    pi = t.tau @ np.conj(t.tau) if use_p else np.eye(t.dim, dtype=complex)
    return Op(label, "hom",
              ["hom", "--algebra", a, "--map", m, "--map3", w.map(pi, conjugating=False)],
              {"exit": 0, "dim_i": t.dim - t.dim_b, "dim_b": t.dim_b, "pi_is_p": use_p})


def _extend_op(w: SpecWriter, t: Triv, label: str) -> Op:
    a, m = w.algebra(t.alg), w.map(t.tau)
    return Op(label, "extend", ["extend", "--algebra", a, "--map", m],
              {"exit": 0, "type_I": 2 ** t.dim_n, "type_II": 1})


def _spectra_op(w: SpecWriter, t: Triv, label: str, rng, with_map: bool) -> Op:
    x = rng.standard_normal(t.dim) + 1j * rng.standard_normal(t.dim)
    argv = ["spectra", "--algebra", w.algebra(t.alg),
            "--element", w.write("element", {"coords": pairs(x)})]
    if with_map:
        argv += ["--map", w.map(t.tau)]
    return Op(label, "spectra", argv,
              {"exit": 0, "spectrum": t.alg.spectrum(x), "inclusion": with_map})


def _arens_op(w: SpecWriter, alg: Alg, label: str, with_map: bool) -> Op:
    argv = ["arens", "--algebra", w.algebra(alg)]
    if with_map:
        argv += ["--map", w.map(alg.natural)]
    return Op(label, "arens", argv,
              {"exit": 0, "structure": alg.structure,
               "theta": alg.natural if with_map else None})


def _tim_op(w: SpecWriter, alg: Alg, label: str, with_map: bool) -> Op:
    argv = ["tim", "--algebra", w.algebra(alg)]
    if with_map:
        argv += ["--map", w.map(alg.natural)]
    return Op(label, "tim", argv,
              {"exit": 0, "characters": alg.characters, "obstruction": with_map})


def _search_function_op(w: SpecWriter, n: int) -> Op:
    # a basis permutation maps C^n onto itself, so there is none to apply
    expected = sum(comb(n, s) * (s // 2 + 1) for s in range(1, n + 1))
    return Op(f"search function C^{n}", "search",
              ["search", "--algebra", w.algebra(function_alg(n)), "--family", "function"],
              {"exit": 0, "count": expected})


_SEARCH_GROUPS = {
    "Z4": (lambda: cyclic_alg(4), [[0], [0, 2], [0, 1, 2, 3]]),
    "Z5": (lambda: cyclic_alg(5), [[0], [0, 1, 2, 3, 4]]),
    "Z6": (lambda: cyclic_alg(6), [[0], [0, 3], [0, 2, 4], list(range(6))]),
    "V4": (klein_alg, [[0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]]),
    "S3": (s3_alg, [[0], [0, 1, 2], list(range(6))]),
}


def _search_group_op(w: SpecWriter, name: str, rng) -> Op:
    construct, subgroups = _SEARCH_GROUPS[name]
    alg = construct()
    perm = rng.permutation(alg.dim)
    inverse = np.argsort(perm)
    t = Triv(alg, alg.natural, alg.dim, 0).permuted(perm)
    relabelled = [sorted(int(inverse[g]) for g in s) for s in subgroups]
    params = w.write("params", {"table": t.alg.table.tolist(), "normal_subgroups": relabelled})
    return Op(f"search group {name}", "search",
              ["search", "--algebra", w.algebra(t.alg, as_group=True),
               "--family", "group", "--params", params],
              {"exit": 0, "count": len(subgroups)})


def _bad_ops(w: SpecWriter, rng) -> list[Op]:
    """Malformed inputs, each with the exit code the CLI promises."""
    good = TEMPLATES["F4"](rng, None)
    a, m = w.algebra(good.alg), w.map(good.tau)
    ops = []

    text = json.dumps({"dim": 4, "structure": pairs(good.alg.structure), "norm": "ell1"})
    trunc_a = w.write("truncated", {})
    Path(trunc_a).write_text(text[: len(text) // 2])
    ops.append(Op("bad: truncated algebra JSON", "check",
                  ["check", "--algebra", trunc_a, "--map", m], {"exit": 2}))
    text = json.dumps({"matrix": pairs(good.tau), "conjugating": True})
    trunc_m = w.write("truncated", {})
    Path(trunc_m).write_text(text[: len(text) // 3])
    ops.append(Op("bad: truncated map JSON", "decompose",
                  ["decompose", "--algebra", a, "--map", trunc_m], {"exit": 2}))

    for command in ("check", "arens"):
        c = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        na = w.write("nonassoc", {"dim": 3, "structure": pairs(c)})
        argv = [command, "--algebra", na] + (["--map", m] if command == "check" else [])
        ops.append(Op(f"bad: non-associative tensor ({command})", command, argv, {"exit": 2}))

    linear = w.map(np.eye(4), conjugating=False)
    ops.append(Op("bad: non-star map under decompose", "decompose",
                  ["decompose", "--algebra", a, "--map", linear], {"exit": 1}))

    for command in ("check", "decompose"):
        missing = w.map(good.tau, source=f"missing-{command}-algebra.json")
        ops.append(Op(f"bad: map source names a missing file ({command})", command,
                      [command, "--algebra", a, "--map", missing], {"exit": 2},
                      defect="missing_source"))
    return ops


def battery_ops(seed: int, w: SpecWriter) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = [Op(f"suite --seed {seed}", "suite", ["suite", "--seed", str(seed)],
              {"exit": 0, "suite": True})]
    stream: list[Op] = []
    for command, names, want in BATTERY_PLAN:
        for k, name in enumerate(names):
            t = TEMPLATES[name](rng, want)
            t = t.permuted(rng.permutation(t.dim))
            label = f"{command} {name}"
            if command == "check":
                stream.append(_check_op(w, t, label))
            elif command == "decompose":
                stream.append(_decompose_op(w, t, label))
            elif command == "hom":
                stream.append(_hom_op(w, t, label, use_p=bool(k % 2)))
            elif command == "factor":
                # conjugation restricts to an involution of I only when I is commutative
                natural_j = bool(k % 2) or t.alg.characters is None
                stream.append(_factor_op(w, t, label, natural_j))
            elif command == "extend":
                stream.append(_extend_op(w, t, label))
            elif command == "spectra":
                stream.append(_spectra_op(w, t, label, rng, with_map=bool(k % 2)))
            elif command == "arens":
                stream.append(_arens_op(w, t.alg, label, with_map=bool(k % 2)))
            elif command == "tim":
                stream.append(_tim_op(w, t.alg, label, with_map=bool(k % 2)))
    for n in SEARCH_FUNCTION_SIZES:
        stream.append(_search_function_op(w, n))
    for name in SEARCH_GROUPS:
        stream.append(_search_group_op(w, name, rng))
    stream.extend(_bad_ops(w, rng))
    order = rng.permutation(len(stream))
    return ops + [stream[i] for i in order]


# ---------------------------------------------------------------------------
# scale and derive
# ---------------------------------------------------------------------------

# subgroup orders the scale seed chooses from, per cyclic rung: the ones
# whose decompose costs agree within a few percent (order 2 doubles
# dim B and costs half as much again on C[Z48])
SCALE_ORDERS = {48: (6, 8, 12, 16), 64: (8, 16, 32), 16: (2, 4, 8)}


def _scale_cyclic(rng, m: int) -> Triv:
    order = int(rng.choice(SCALE_ORDERS[m]))
    return averaging(cyclic_alg(m), cyclic_subgroup(m, order), True).permuted(rng.permutation(m))


def _scale_matrix(rng, n: int) -> Triv:
    return twisted_star(n, _signs(rng, n)).permuted(rng.permutation(n * n))


# trimmed to fit one pass in a run: the dim-64 check and the dim-48
# decompose carry the contraction cost; M_6 takes the matrix-unit path
SCALE_PLAN = (("check", "Z", 64), ("decompose", "Z", 48), ("decompose", "M", 6),
              ("factor", "Z", 16))


def scale_ops(seed: int, w: SpecWriter) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for command, family, size in SCALE_PLAN:
        t = _scale_cyclic(rng, size) if family == "Z" else _scale_matrix(rng, size)
        label = f"{command} {'C[Z%d]' % size if family == 'Z' else 'M%d' % size}"
        if command == "check":
            ops.append(_check_op(w, t, label))
        elif command == "decompose":
            ops.append(_decompose_op(w, t, label))
        else:
            ops.append(_factor_op(w, t, label, natural_j=False))
    return ops


DERIVE_DUAL = (12, 16, 24)
# C[Z16] (257 extensions, about 12 s) is left out so a pass fits a run
DERIVE_EXTEND = (8, 12)


def derive_ops(seed: int, w: SpecWriter) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for m in DERIVE_DUAL:
        alg = averaging(cyclic_alg(m), [0], True).permuted(rng.permutation(m)).alg
        ops.append(_arens_op(w, alg, f"arens --map theta C[Z{m}]", with_map=True))
        ops.append(_tim_op(w, alg, f"tim --map theta C[Z{m}]", with_map=True))
    for name, t in (("S3", averaging(s3_alg(), [0], False)), ("M3", twisted_star(3, [1.0] * 3))):
        alg = t.permuted(rng.permutation(t.dim)).alg
        ops.append(_arens_op(w, alg, f"arens {name}", with_map=False))
    for m in DERIVE_EXTEND:
        t = averaging(cyclic_alg(m), cyclic_subgroup(m, 2), True).permuted(rng.permutation(m))
        ops.append(_extend_op(w, t, f"extend C[Z{m}]"))
    return ops


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the spec files of one workload and return its op list."""
    make_ops = {"battery": battery_ops, "scale": scale_ops, "derive": derive_ops}[workload]
    return make_ops(seed, SpecWriter(directory))
