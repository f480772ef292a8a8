"""Lattice models, gap-creating observables and exact commutator terms.

Conventions: spin-1/2 operators are the Pauli matrices, spin-1 operators
the standard S=1 matrices with hbar = 1.  A model lives on the simple
cubic lattice of its ``dimension`` d (chain, square or cubic), whose
coordination number is 2d; the unit cell belongs to the state that evolves
it, not to the model.  A Hamiltonian or observable is stored as a
translation-invariant list of local terms; each term carries the site
offsets of its support (relative to an arbitrary base site) and a dense
matrix on the joint local space, factor order = sorted offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

_S = 1.0 / np.sqrt(2.0)
SPIN1_X = _S * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
SPIN1_Y = _S * np.array([[0.0, -1.0j, 0.0], [1.0j, 0.0, -1.0j], [0.0, 1.0j, 0.0]])
SPIN1_Z = np.diag([1.0, 0.0, -1.0])


@dataclass(frozen=True)
class LocalTerm:
    """One local term: site offsets (sorted) and the matrix on their joint space."""

    sites: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(tuple(int(x) for x in s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "matrix", np.asarray(self.matrix))


@dataclass
class OperatorTerms:
    """Translation-invariant operator as a list of local terms."""

    terms: list[LocalTerm]
    local_dim: int

    def check_hermitian(self, tol: float = 1e-12) -> None:
        for t in self.terms:
            defect = np.max(np.abs(t.matrix - t.matrix.conj().T))
            if defect > tol * max(1.0, np.max(np.abs(t.matrix))):
                raise ValueError(f"term on {t.sites} is not Hermitian ({defect:.2e})")


@dataclass
class Model:
    """A lattice model: its dimension, Hamiltonian and gap-creating
    observable."""

    dimension: int
    hamiltonian: OperatorTerms
    gap_operator: OperatorTerms

    def commutator(self) -> OperatorTerms:
        """i[H, O] as local terms (Hermitian, real for the built-in models)."""
        return commutator_terms(self.hamiltonian, self.gap_operator)


# ---------------------------------------------------------------------------
# model constructors


def _origin(dimension: int) -> tuple[int, ...]:
    return (0,) * dimension


def tfim(dimension: int, J: float, g: float) -> OperatorTerms:
    """Transverse-field Ising model -J sum_<ij> z z - g sum_i x on d = 1, 2, 3."""
    if dimension not in (1, 2, 3):
        raise ValueError("tfim is defined for dimension 1, 2 or 3")
    for name, value in (("J", J), ("g", g)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if J == 0.0 and g == 0.0:
        raise ValueError("J and g cannot both vanish")
    origin = _origin(dimension)
    bond = -J * np.kron(PAULI_Z, PAULI_Z)
    terms = [LocalTerm((origin,), -g * PAULI_X)]
    for a in range(dimension):
        unit = tuple(int(j == a) for j in range(dimension))
        terms.append(LocalTerm((origin, unit), bond))
    return OperatorTerms(terms, local_dim=2)


def tfim_gap_operator(dimension: int) -> OperatorTerms:
    """sum_i sigma^y_i: purely imaginary entries, Hermitian."""
    return OperatorTerms([LocalTerm((_origin(dimension),), PAULI_Y)], local_dim=2)


def haldane() -> OperatorTerms:
    """Spin-1 antiferromagnetic Heisenberg chain H = sum_i S_i . S_{i+1}."""
    bond = (
        np.kron(SPIN1_X, SPIN1_X)
        + np.kron(SPIN1_Y, SPIN1_Y)
        + np.kron(SPIN1_Z, SPIN1_Z)
    )
    assert np.max(np.abs(bond.imag)) < 1e-15
    return OperatorTerms([LocalTerm(((0,), (1,)), bond.real)], local_dim=3)


def haldane_gap_operator() -> OperatorTerms:
    """sum_i S^y_i S^z_{i+1}: Hermitian with purely imaginary entries."""
    return OperatorTerms(
        [LocalTerm(((0,), (1,)), np.kron(SPIN1_Y, SPIN1_Z))], local_dim=3
    )


def tfim_model(dimension: int, J: float, g: float) -> Model:
    return Model(dimension, tfim(dimension, J, g), tfim_gap_operator(dimension))


def tfim_chain_model(J: float, g: float) -> Model:
    return tfim_model(1, J, g)


def haldane_model() -> Model:
    return Model(1, haldane(), haldane_gap_operator())


# ---------------------------------------------------------------------------
# bond Hamiltonians of the evolutions


def split_hamiltonian(ham: OperatorTerms, dimension: int) -> tuple[np.ndarray, list]:
    """On-site part and one two-site bond matrix per positive axis, in the
    dtype of the terms; only sites and nearest-neighbor pairs are allowed."""
    d = ham.local_dim
    dtype = np.result_type(float, *(t.matrix for t in ham.terms))
    site = np.zeros((d, d), dtype)
    bonds = [np.zeros((d * d, d * d), dtype) for _ in range(dimension)]
    for t in ham.terms:
        if len(t.sites) == 1:
            site = site + t.matrix
        elif len(t.sites) == 2:
            offset = np.subtract(t.sites[1], t.sites[0])
            axes_hit = np.flatnonzero(offset)
            if axes_hit.size != 1 or offset[axes_hit[0]] != 1:
                raise ValueError(f"non-nearest-neighbor bond {t.sites}")
            bonds[axes_hit[0]] = bonds[axes_hit[0]] + t.matrix
        else:
            raise ValueError("bond evolution supports 1- and 2-site terms only")
    return site, bonds


def bond_hamiltonian(site: np.ndarray, bond: np.ndarray, z: int) -> np.ndarray:
    """Two-site bond Hamiltonian with the on-site part spread over the z
    bonds of a site."""
    eye = np.eye(site.shape[0])
    return bond + (np.kron(site, eye) + np.kron(eye, site)) / z


# ---------------------------------------------------------------------------
# dense embeddings and commutators


def embed_on_sites(
    matrix: np.ndarray,
    op_sites,
    all_sites,
    local_dim: int,
) -> np.ndarray:
    """Embed ``matrix`` (acting on op_sites, in that factor order) on all_sites.

    all_sites fixes the factor order of the result (first site slowest).
    """
    op_sites = [tuple(s) for s in op_sites]
    all_sites = [tuple(s) for s in all_sites]
    n, k = len(all_sites), len(op_sites)
    pos = []
    for s in op_sites:
        if s not in all_sites:
            raise ValueError(f"site {s} not in embedding support")
        pos.append(all_sites.index(s))
    if len(set(pos)) != k:
        raise ValueError("operator sites must be distinct")
    d = local_dim
    full = np.kron(matrix, np.eye(d ** (n - k)))
    # axis order is (op rows, identity rows, op cols, identity cols);
    # permute so site order matches all_sites on both row and column sides
    full = full.reshape((d,) * (2 * n))
    rest = [i for i in range(n) if i not in pos]
    cur_to_site = pos + rest  # axis j of `full` acts on site cur_to_site[j]
    perm = [cur_to_site.index(i) for i in range(n)]
    full = np.transpose(full, perm + [n + p for p in perm])
    return full.reshape(d**n, d**n)


def commutator_terms(H: OperatorTerms, O: OperatorTerms) -> OperatorTerms:
    """Local terms of i[H, O] for translation-invariant H and O.

    Every (h-term, o-translate) pair with overlapping support contributes
    i(h o - o h) on the joint support; disjoint supports drop out.  Terms
    with identical (translated-to-origin) support are merged.  The result
    is Hermitian, and real for the built-in models; a real array is
    returned whenever the imaginary part is negligible.
    """
    if H.local_dim != O.local_dim:
        raise ValueError("H and O act on different local dimensions")
    d = H.local_dim
    merged: dict[tuple, np.ndarray] = {}
    for ht in H.terms:
        for ot in O.terms:
            shifts = {
                tuple(np.subtract(hs, os)) for hs in ht.sites for os in ot.sites
            }
            for delta in sorted(shifts):
                o_sites = [tuple(np.add(s, delta)) for s in ot.sites]
                union = sorted(set(ht.sites) | set(o_sites))
                hm = embed_on_sites(ht.matrix, ht.sites, union, d)
                om = embed_on_sites(ot.matrix, o_sites, union, d)
                comm = 1j * (hm @ om - om @ hm)
                scale = max(np.max(np.abs(hm)) * np.max(np.abs(om)), 1e-300)
                if np.max(np.abs(comm)) <= 1e-14 * scale:
                    continue
                base = union[0]
                key = tuple(tuple(np.subtract(s, base)) for s in union)
                if key in merged:
                    merged[key] = merged[key] + comm
                else:
                    merged[key] = comm
    terms = []
    for sites, mat in merged.items():
        if np.max(np.abs(mat)) <= 1e-14:
            continue
        if np.max(np.abs(mat.imag)) <= 1e-12 * max(1.0, np.max(np.abs(mat.real))):
            mat = np.ascontiguousarray(mat.real)
        terms.append(LocalTerm(sites, mat))
    out = OperatorTerms(terms, local_dim=d)
    out.check_hermitian(1e-12)
    return out


def terms_to_dense(terms: OperatorTerms, shape) -> np.ndarray:
    """Sum of all translates of the terms on a periodic cluster of ``shape``.

    Site order of the result is the lexicographic order of the cluster
    coordinates, first site slowest.  Raises if a term wraps onto itself
    (cluster too small along some axis).
    """
    shape = tuple(shape)
    coords = [tuple(c) for c in np.ndindex(shape)]
    d = terms.local_dim
    n = len(coords)
    dense = np.zeros((d**n, d**n), dtype=complex)
    for t in terms.terms:
        for base in coords:
            placed = [
                tuple((b + o) % s for b, o, s in zip(base, off, shape))
                for off in t.sites
            ]
            if len(set(placed)) != len(placed):
                raise ValueError(
                    f"term support {t.sites} wraps onto itself on cluster {shape}"
                )
            dense += embed_on_sites(t.matrix, placed, coords, d)
    if np.max(np.abs(dense.imag)) <= 1e-12 * max(1.0, np.max(np.abs(dense.real))):
        return np.ascontiguousarray(dense.real)
    return dense
