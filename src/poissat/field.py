"""Bivector fields on coordinate boxes of R^n.

Entries are expression trees in x1..xn, stored as the strict upper
triangle; the lower triangle is the exact negated tree, so antisymmetry
is structural.  The entries and their partials are compiled once into
numpy kernels (expr.compile_kernel).  Loading certifies the Jacobi
identity on a seeded sample of the domain box; a constant bivector
(no entry reads a coordinate) is Poisson outright.

Conventions (see also the report convention string):
  sharp(a)  = PI(x) @ a        (anchor applied to a covector)
  pi(a, b)  = <b, sharp(a)>    (bivector as a bilinear form on covectors)
The bracket is {f, g} = pi(df, dg).
"""

from __future__ import annotations

import numpy as np

from . import expr
from .expr import Expression, Neg, Num, compile_kernel, derive

JACOBI_TOL = 1e-10


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
        certify: sample the Jacobi identity at load (seed 0, 1000 points)
            and raise JacobiError where the Schouten residual exceeds
            JACOBI_TOL.
    """

    def __init__(self, dim, entries, domain=None, certify=True):
        if not 2 <= dim <= 12:
            raise ValueError("ambient dimension must be between 2 and 12")
        self.dim = dim
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
            rng = np.random.default_rng(0)
            pts = rng.uniform(self.domain[:, 0], self.domain[:, 1], size=(1000, dim))
            res = jacobi_residual(self, pts)
            worst = int(np.argmax(res))
            if res[worst] > JACOBI_TOL:
                raise JacobiError(
                    f"Jacobi residual {res[worst]:.3e} exceeds {JACOBI_TOL:.1e} "
                    f"at {tuple(pts[worst].tolist())}",
                    res[worst],
                    pts[worst],
                )

    @property
    def constant(self):
        """True when no entry reads a coordinate, so PI is one matrix and dPI = 0.

        Every partial of such an entry folds to Num(0.0).  The converse
        fails: (x + 1) - x has zero partials but rounds differently at
        different x, so it is not constant here.
        """
        return self._matrix_kernel.constant

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


def jacobi_residual(bv: BivectorField, pts):
    """Max-abs Schouten residual per point.

    J^ijk = sum_l (PI^lk d_l PI^ij + PI^li d_l PI^jk + PI^lj d_l PI^ki);
    the residual is max_{ijk} |J^ijk|, zero exactly when PI is Poisson.
    A constant PI is evaluated (so a non-finite entry still raises) and
    then certified without its partials: every term carries a zero one.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    p = bv.matrix(pts)
    if bv.constant:
        return np.zeros(len(pts))
    dj = bv.matrix_jac(pts)
    t1 = np.einsum("mlk,mijl->mijk", p, dj)
    t2 = np.einsum("mli,mjkl->mijk", p, dj)
    t3 = np.einsum("mlj,mkil->mijk", p, dj)
    return np.max(np.abs(t1 + t2 + t3), axis=(1, 2, 3))


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
