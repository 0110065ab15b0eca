"""Bivector fields on coordinate boxes of R^n.

Entries are expression trees in x1..xn, stored as the strict upper
triangle; the lower triangle is the exact negated tree, so antisymmetry
is structural.  The entries and their partials are compiled once into
numpy kernels (expr.compile_kernel).  Loading certifies the Jacobi
identity on a seeded sample of the domain box.

Conventions (see also the report convention string):
  sharp(a)  = PI(x) @ a        (anchor applied to a covector)
  pi(a, b)  = <b, sharp(a)>    (bivector as a bilinear form on covectors)
The bracket is {f, g} = pi(df, dg), and hamiltonian_vf(f) = sharp(df).
"""

from __future__ import annotations

import numpy as np

from . import expr
from .expr import Expression, Neg, Num, compile_kernel, derive
from .linear import rank_svd


class JacobiError(ValueError):
    """Jacobi certification failed; carries .residual and .point."""

    def __init__(self, message, residual, point):
        super().__init__(message)
        self.residual = float(residual)
        self.point = tuple(float(v) for v in point)


class BivectorField:
    """Poisson bivector with expression-tree entries.

    Args:
        dim: ambient dimension n (2 <= n <= 12).
        entries: mapping (i, j) -> Expression or text, 0-based, i != j.
            Entries given below the diagonal are negated into the upper
            triangle; missing entries are zero.
        domain: (n, 2) box bounds, defaults to [-1, 1]^n.
        jacobi_tol: certification threshold for the Schouten residual.
        certify: sample the Jacobi identity at load (seeded, 1000 points).
    """

    def __init__(self, dim, entries, domain=None, jacobi_tol=1e-10, certify=True, seed=0):
        if not 2 <= dim <= 12:
            raise ValueError("ambient dimension must be between 2 and 12")
        self.dim = dim
        self.jacobi_tol = float(jacobi_tol)
        if domain is None:
            domain = np.array([[-1.0, 1.0]] * dim)
        self.domain = np.asarray(domain, dtype=float).reshape(dim, 2)
        grid = [[Num(0.0) for _ in range(dim)] for _ in range(dim)]
        for (i, j), e in entries.items():
            if isinstance(e, str):
                e = expr.parse(e, dim)
            if i == j or not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bad entry index ({i}, {j})")
            if i > j:
                i, j, e = j, i, expr.neg(e)
            grid[i][j] = expr.add(grid[i][j], e)
        for i in range(dim):
            for j in range(i + 1, dim):
                grid[j][i] = expr.neg(grid[i][j])
        self._grid = grid
        upper = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        dgrid = {(i, j): [derive(grid[i][j], k) for k in range(dim)] for i, j in upper}
        self._matrix_kernel = compile_kernel(
            [pair for i, j in upper if grid[i][j] != Num(0.0)
             for pair in (((i, j), grid[i][j]), ((j, i), Neg(grid[i][j])))],
            (dim, dim),
        )
        self._jac_kernel = compile_kernel(
            [pair for (i, j), row in dgrid.items() for k, d in enumerate(row) if d != Num(0.0)
             for pair in (((i, j, k), d), ((j, i, k), Neg(d)))],
            (dim, dim, dim),
        )
        if certify:
            rng = np.random.default_rng(seed)
            pts = rng.uniform(self.domain[:, 0], self.domain[:, 1], size=(1000, dim))
            res = jacobi_residual(self, pts)
            worst = int(np.argmax(res))
            if res[worst] > self.jacobi_tol:
                raise JacobiError(
                    f"Jacobi residual {res[worst]:.3e} exceeds {self.jacobi_tol:.1e} "
                    f"at {tuple(pts[worst])}",
                    res[worst],
                    pts[worst],
                )

    def entry(self, i, j) -> Expression:
        return self._grid[i][j]

    def matrix(self, pts):
        """Evaluate PI at a point batch; returns (m, n, n)."""
        return self._matrix_kernel(np.atleast_2d(np.asarray(pts, dtype=float)))

    def matrix_at(self, x):
        return self.matrix(np.asarray(x, dtype=float)[None, :])[0]

    def matrix_jac(self, pts):
        """Entry derivatives; returns (m, n, n, n) with [.., i, j, k] = d_k PI^ij."""
        return self._jac_kernel(np.atleast_2d(np.asarray(pts, dtype=float)))

    def inside(self, pts):
        """Boolean mask: rows of pts inside the declared domain box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return np.all((pts >= lo) & (pts <= hi), axis=1)


def sharp(bv: BivectorField, x, alpha):
    """Anchor: sharp(a)^i = sum_j PI^ij a_j, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if x.ndim == 1:
        return bv.matrix_at(x) @ alpha
    return np.einsum("mij,mj->mi", bv.matrix(x), alpha)


def pi_form(bv: BivectorField, x, a, b):
    """Bivector as a bilinear form on covectors: pi(a, b) = <b, sharp(a)>."""
    return float(np.asarray(b, dtype=float) @ sharp(bv, x, a))


def jacobi_residual(bv: BivectorField, pts):
    """Max-abs Schouten residual per point.

    J^ijk = sum_l (PI^lk d_l PI^ij + PI^li d_l PI^jk + PI^lj d_l PI^ki);
    the residual is max_{ijk} |J^ijk|, zero exactly when PI is Poisson.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    p = bv.matrix(pts)
    dj = bv.matrix_jac(pts)
    t1 = np.einsum("mlk,mijl->mijk", p, dj)
    t2 = np.einsum("mli,mjkl->mijk", p, dj)
    t3 = np.einsum("mlj,mkil->mijk", p, dj)
    return np.max(np.abs(t1 + t2 + t3), axis=(1, 2, 3))


def hamiltonian_vf(bv: BivectorField, f: Expression):
    """Hamiltonian vector field sharp(df) as a list of expression trees."""
    n = bv.dim
    df = [derive(f, j) for j in range(n)]
    comps = []
    for i in range(n):
        acc = Num(0.0)
        for j in range(n):
            acc = expr.add(acc, expr.mul(bv.entry(i, j), df[j]))
        comps.append(acc)
    return comps


def leaf_dim(bv: BivectorField, x, tol_rel=None):
    """Dimension of the symplectic leaf through x: rank of PI(x)."""
    return rank_svd(bv.matrix_at(x), tol_rel)[0]


# Standard structures used across tests and shipped scenes.


def so3_star(**kw):
    """Lie-Poisson structure on so(3)*: PI^12 = z, PI^23 = x, PI^31 = y."""
    kw.setdefault("domain", [[-2, 2], [-2, 2], [-2, 2]])
    return BivectorField(3, {(0, 1): "z", (1, 2): "x", (2, 0): "y"}, **kw)


def log_symplectic_plane(**kw):
    """x d/dx ^ d/dy on R^2; rank drops along the y-axis."""
    kw.setdefault("domain", [[-2, 2], [-2, 2]])
    return BivectorField(2, {(0, 1): "x"}, **kw)


def flat_rank2_r3(**kw):
    """Constant d/dx ^ d/dy on R^3; leaves are the z = const planes."""
    kw.setdefault("domain", [[-2, 2], [-2, 2], [-2, 2]])
    return BivectorField(3, {(0, 1): "1"}, **kw)


def symplectic_r4(**kw):
    """Standard symplectic R^4 as a bivector: rank 4 everywhere."""
    kw.setdefault("domain", [[-2, 2]] * 4)
    return BivectorField(4, {(0, 1): "1", (2, 3): "1"}, **kw)


def flat_rank2_r3s1(**kw):
    """d/dz ^ d/dtheta on a chart of R^3 x S^1 (theta = x4)."""
    kw.setdefault("domain", [[-2, 2], [-2, 2], [-4, 4], [-4, 4]])
    return BivectorField(4, {(2, 3): "1"}, **kw)


def zero_structure(dim=3, **kw):
    """The zero bivector: every point is a leaf."""
    kw.setdefault("domain", [[-2, 2]] * dim)
    return BivectorField(dim, {}, **kw)
