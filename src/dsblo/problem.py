"""Bilevel problem model: coupled polyhedral constraints, the quadratic
instance family the solver works against, and instance generation /
serialization.

The quadratic family is

    f(x, y) = ||x||^2 + 0.1 x'Q1 y + ||y||^2 + cx_i'x + cy_i'y   (component i)
    g(x, y) = ||x||^2 + x'Q2 y + ||y||^2

with the upper objective the mean over components. g is 2-strongly convex in
y with constant Hessian 2I and constant cross Jacobian Q2'.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import lower_level
from .errors import GeneratorError

GENERATOR_VERSION = 1

# Default half-width of the box rows appended by the generator so the
# feasible set is compact for every x.
DEFAULT_BOX_RADIUS = 10.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Polyhedron:
    """Coupled feasible set {y : A y + B x <= b}.

    A is (k, d_l), B is (k, d_u), b is (k,). Rows may include generator-added
    box rows; ``n_random_rows`` counts the genuinely random ones.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    n_random_rows: int = -1

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(np.atleast_2d(self.A)))
        object.__setattr__(self, "B", _freeze(np.atleast_2d(self.B)))
        object.__setattr__(self, "b", _freeze(np.atleast_1d(self.b)))
        k, d_l = self.A.shape
        if self.B.shape[0] != k or self.b.shape != (k,):
            raise ValueError(
                f"inconsistent constraint shapes: A {self.A.shape}, "
                f"B {self.B.shape}, b {self.b.shape}"
            )
        if self.n_random_rows < 0:
            object.__setattr__(self, "n_random_rows", k)

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @property
    def d_l(self) -> int:
        return self.A.shape[1]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """Right-hand side b - Bx of the inequality A y <= b - B x."""
        return self.b - self.B @ x

    def slacks(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.rhs(x) - self.A @ y


def empty_polyhedron(d_l: int, d_u: int) -> Polyhedron:
    return Polyhedron(np.zeros((0, d_l)), np.zeros((0, d_u)), np.zeros(0))


@dataclass(frozen=True)
class QuadraticBilevel:
    """Concrete quadratic instance; immutable, every array read-only.

    ``cx`` and ``cy`` hold the per-component linear terms, one row per
    component; the full-batch objective averages them. With a single
    component both default to all-ones.
    """

    Q1: np.ndarray
    Q2: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    constraints: Polyhedron
    seed: Optional[int] = None
    box_radius: Optional[float] = DEFAULT_BOX_RADIUS
    generator_version: int = GENERATOR_VERSION

    def __post_init__(self):
        object.__setattr__(self, "Q1", _freeze(np.atleast_2d(self.Q1)))
        object.__setattr__(self, "Q2", _freeze(np.atleast_2d(self.Q2)))
        object.__setattr__(self, "cx", _freeze(np.atleast_2d(self.cx)))
        object.__setattr__(self, "cy", _freeze(np.atleast_2d(self.cy)))
        d_u, d_l = self.Q1.shape
        if self.Q2.shape != (d_u, d_l):
            raise ValueError("Q1 and Q2 must share shape (d_u, d_l)")
        if self.cx.shape[1] != d_u or self.cy.shape[1] != d_l:
            raise ValueError("component linear terms have wrong dimension")
        if self.cx.shape[0] != self.cy.shape[0]:
            raise ValueError("cx and cy must have one row per component")
        if self.constraints.d_l != d_l or self.constraints.d_u != d_u:
            raise ValueError("constraint dimensions do not match Q1/Q2")

    @property
    def d_u(self) -> int:
        return self.Q1.shape[0]

    @property
    def d_l(self) -> int:
        return self.Q1.shape[1]

    @property
    def n_components(self) -> int:
        return self.cx.shape[0]

    @cached_property
    def cx_mean(self) -> np.ndarray:
        """The full-batch linear term in x, the mean of the rows of ``cx``."""
        return _freeze(self.cx.mean(axis=0))

    @cached_property
    def cy_mean(self) -> np.ndarray:
        """The full-batch linear term in y, the mean of the rows of ``cy``."""
        return _freeze(self.cy.mean(axis=0))

    @cached_property
    def fingerprint(self) -> str:
        """``fingerprint(self)``, computed once: the instance cannot change."""
        return fingerprint(self)

    @cached_property
    def active_set_cache(self) -> "lower_level.ActiveSetCache":
        """The instance's ``lower_level.ActiveSetCache``, shared by its solves
        and implicit gradients: H and A cannot change."""
        return lower_level.ActiveSetCache(self.hess_yy_diag, self.constraints.A)

    @cached_property
    def interior_gradient(self) -> "InteriorGradient":
        """The instance's ``InteriorGradient``, the implicit gradient of
        every solve with no active row: Q1, Q2, H, cx and cy cannot
        change."""
        return InteriorGradient(self)

    # -- upper level -------------------------------------------------------

    def grad_f(self, x: np.ndarray, y: np.ndarray):
        """Full-batch (grad_x f, grad_y f); the shapes of x and y are checked."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        self._check_dims(x, y)
        return self._grad_f(x, y, self.cx_mean, self.cy_mean)

    def _grad_f(self, x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray):
        """(grad_x f, grad_y f) with the linear terms cx and cy, at the float
        vectors x and y, or one row of each per row of the float matrices x
        and y (either may be one vector for every row). Their shapes are
        not checked here: ``grad_f`` and the implicit gradients check them,
        and the rows come from solves of the instance. On vectors,
        ``y @ Q1.T`` and ``x @ Q1`` give the bits of ``Q1 @ y`` and
        ``Q1.T @ x``."""
        gx = 2.0 * x + 0.1 * (y @ self.Q1.T) + cx
        gy = 0.1 * (x @ self.Q1) + 2.0 * y + cy
        return gx, gy

    # -- lower level -------------------------------------------------------

    def grad_y_g(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.Q2.T @ np.asarray(x, dtype=float) + 2.0 * np.asarray(y, dtype=float)

    @cached_property
    def hess_yy_diag(self) -> np.ndarray:
        """The diagonal of the constant Hessian 2I of g in y; ``mu_g`` is
        read from it. The cross Jacobian d(grad_y g)/dx is the constant Q2'."""
        return _freeze(np.full(self.d_l, 2.0))

    @property
    def mu_g(self) -> float:
        """Strong-convexity modulus of g in y, the Hessian's least eigenvalue."""
        return float(self.hess_yy_diag.min())

    def _check_dims(self, x: np.ndarray, y: np.ndarray):
        d_u, d_l = self.Q1.shape
        if x.shape != (d_u,) or y.shape != (d_l,):
            raise ValueError(
                f"expected x of shape ({d_u},) and y of shape "
                f"({d_l},), got {x.shape} and {y.shape}"
            )


class InteriorGradient:
    """The implicit gradient grad_x f + jac_y' grad_y f of a solve with no
    active row, as one affine map of (x, y).

    With no row active jac_y = -H^-1 Q2' is constant, so with
    QH = Q2 diag(H)^-1 the gradient of component i is G [x; y] + g0_i,

        G    = [2I - 0.1 QH Q1' | 0.1 Q1 - 2 QH]   (d_u x (d_u + d_l)),
        g0_i = cx_i - QH cy_i,

    ``offsets`` holding one g0_i per row and ``g0``, their mean, the
    full-batch offset. All three are read-only. G takes 8 d_u (d_u + d_l)
    bytes (0.64 MB at d = 200), built in place with one d_u x d_l
    temporary; it is not charged to ``lower_level.ACTIVE_SET_CACHE_BYTES``."""

    def __init__(self, inst: QuadraticBilevel):
        d_u = inst.d_u
        QH = inst.Q2 / inst.hess_yy_diag
        G = np.empty((d_u, d_u + inst.d_l))
        Gx, Gy = G[:, :d_u], G[:, d_u:]
        np.matmul(QH, inst.Q1.T, out=Gx)
        Gx *= -0.1
        Gx[np.diag_indices(d_u)] += 2.0
        self.offsets = _freeze(inst.cx - inst.cy @ QH.T)
        self.g0 = _freeze(self.offsets.mean(axis=0))
        np.multiply(inst.Q1, 0.1, out=Gy)
        QH *= 2.0
        Gy -= QH
        G.flags.writeable = False
        self.G = G

    def __call__(self, x: np.ndarray, y: np.ndarray, g0=None) -> np.ndarray:
        """G [x; y] + g0 (the full-batch ``g0`` by default) at the float
        vectors x and y, or one gradient row per row of the float matrices x
        and y; their shapes are taken as given."""
        g0 = self.g0 if g0 is None else g0
        if x.ndim == 1:
            return self.G @ np.concatenate((x, y)) + g0
        return np.concatenate((x, y), axis=1) @ self.G.T + g0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def eval_f(inst: QuadraticBilevel, x: np.ndarray, y: np.ndarray) -> float:
    """Full-batch upper objective (mean over components)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inst._check_dims(x, y)
    base = float(x @ x + 0.1 * (x @ (inst.Q1 @ y)) + y @ y)
    return base + float(inst.cx_mean @ x + inst.cy_mean @ y)


def eval_f_rows(inst: QuadraticBilevel, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``eval_f`` at x for every row of Y at once, summed in ``eval_f``'s
    order, so each entry equals ``eval_f``'s to round-off."""
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    base = x @ x + 0.1 * ((Y @ inst.Q1.T) @ x) + np.einsum("ij,ij->i", Y, Y)
    return base + (inst.cx_mean @ x + Y @ inst.cy_mean)


def sample_component(problem: QuadraticBilevel, rng: np.random.Generator) -> int:
    """Uniform component index; the finite-sum mean of per-component
    gradients equals the full-batch gradient to round-off."""
    return int(rng.integers(problem.n_components))


def _boundedness_certified(A: np.ndarray, rng: np.random.Generator, trials: int = 512) -> bool:
    """LP-free heuristic: the recession cone {v : A v <= 0} should be {0}.
    Probes random directions; any escaping direction refutes boundedness."""
    d = A.shape[1]
    if A.shape[0] < d:
        return False
    for _ in range(trials):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if np.max(A @ v) <= 0:
            return False
    return True


def generate_instance(
    d_u: int,
    d_l: int,
    k: int,
    seed: int,
    n_components: int = 1,
    box_radius: Optional[float] = DEFAULT_BOX_RADIUS,
) -> QuadraticBilevel:
    """Seeded random instance: Q1, Q2, A, B, b entrywise uniform on [0, 1],
    b shifted so y = 0 is strictly feasible at x = 0, and box rows
    -R <= y <= R appended so the feasible set is bounded for every x.

    The box does not keep it nonempty: A and B are nonnegative, so once B x
    is large enough a random row of A y <= b - B x cannot hold with
    y >= -R, and a solve at such an x raises ``Infeasible``. With the
    paper's d=10 loop constants, ``run_dsblo`` on
    ``generate_instance(6, 6, 12, seed=1, box_radius=0.2)`` walks x there.

    ``k`` counts the random constraint rows only and may be zero (box rows
    remain). With ``box_radius=None`` no box is added and a heuristic
    boundedness certificate is required instead.
    """
    if d_u < 1 or d_l < 1:
        raise ValueError("d_u and d_l must be at least 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n_components < 1:
        raise ValueError("n_components must be at least 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    Q1 = rng.uniform(0.0, 1.0, size=(d_u, d_l))
    Q2 = rng.uniform(0.0, 1.0, size=(d_u, d_l))
    A = rng.uniform(0.0, 1.0, size=(k, d_l))
    B = rng.uniform(0.0, 1.0, size=(k, d_u))
    b = rng.uniform(0.0, 1.0, size=k)
    # strict feasibility of y = 0 at x = 0
    b = np.maximum(b, 0.1)

    if n_components == 1:
        cx = np.ones((1, d_u))
        cy = np.ones((1, d_l))
    else:
        # per-component linear terms with mean ~ the all-ones default
        cx = rng.uniform(0.0, 2.0, size=(n_components, d_u))
        cy = rng.uniform(0.0, 2.0, size=(n_components, d_l))

    if box_radius is not None:
        if box_radius <= 0:
            raise ValueError("box_radius must be positive")
        eye = np.eye(d_l)
        A = np.vstack([A, eye, -eye])
        B = np.vstack([B, np.zeros((2 * d_l, d_u))])
        b = np.concatenate([b, np.full(2 * d_l, float(box_radius))])
    elif not _boundedness_certified(A, rng):
        raise GeneratorError(
            f"cannot certify a bounded feasible set for seed={seed}, k={k} "
            "without box rows; pass a box_radius"
        )

    poly = Polyhedron(A, B, b, n_random_rows=k)
    return QuadraticBilevel(
        Q1=Q1, Q2=Q2, cx=cx, cy=cy, constraints=poly,
        seed=seed, box_radius=box_radius,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def instance_to_dict(inst: QuadraticBilevel) -> dict:
    return {
        "format": "dsblo-instance",
        "generator_version": inst.generator_version,
        "seed": inst.seed,
        "d_u": inst.d_u,
        "d_l": inst.d_l,
        "n_random_rows": inst.constraints.n_random_rows,
        "n_components": inst.n_components,
        "box_radius": inst.box_radius,
        "mu_g": inst.mu_g,
        "Q1": inst.Q1.tolist(),
        "Q2": inst.Q2.tolist(),
        "cx": inst.cx.tolist(),
        "cy": inst.cy.tolist(),
        "A": inst.constraints.A.tolist(),
        "B": inst.constraints.B.tolist(),
        "b": inst.constraints.b.tolist(),
    }


def instance_from_dict(doc: dict) -> QuadraticBilevel:
    """The instance a document describes; any malformed document, one with
    a missing key or a mistyped field included, raises ``ValueError``."""
    if not isinstance(doc, dict) or doc.get("format") != "dsblo-instance":
        raise ValueError("not an instance document")
    if "mu_g" in doc and doc["mu_g"] != 2.0:
        raise ValueError(f"mu_g must be 2.0, the family's g has Hessian 2I; "
                         f"got {doc['mu_g']!r}")
    try:
        poly = Polyhedron(
            np.array(doc["A"], dtype=float).reshape(-1, doc["d_l"]),
            np.array(doc["B"], dtype=float).reshape(-1, doc["d_u"]),
            np.array(doc["b"], dtype=float),
            n_random_rows=doc["n_random_rows"],
        )
        return QuadraticBilevel(
            Q1=np.array(doc["Q1"], dtype=float),
            Q2=np.array(doc["Q2"], dtype=float),
            cx=np.array(doc["cx"], dtype=float),
            cy=np.array(doc["cy"], dtype=float),
            constraints=poly,
            seed=doc.get("seed"),
            box_radius=doc.get("box_radius"),
            generator_version=doc.get("generator_version", GENERATOR_VERSION),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc!r}") from exc


def save_instance(inst: QuadraticBilevel, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> QuadraticBilevel:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def fingerprint(inst: QuadraticBilevel) -> str:
    """Stable content hash of an instance (canonical JSON, sha256)."""
    canon = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
