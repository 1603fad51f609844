"""Mirror maps, Bregman divergences and projections, and the
mirror-descent update."""

from __future__ import annotations

import numpy as np

from gdcert.core import (
    FeasibleSet,
    Norm,
    Simplex,
    Unconstrained,
    Vector,
    as_points,
    as_vector,
    check_same_dim,
    frozen_scalar,
)
from gdcert.problems import OnlineAdversary
from gdcert.trace import Trace, drive

# the entropy map's shift, 1 + ln x and its inverse exp(theta - 1)
_ONE = frozen_scalar(1.0)


class MirrorMap:
    """Strongly convex generator h carrying points to the dual space via its
    gradient and back via the inverse gradient."""

    norm: Norm
    alpha_h: float
    map_id: str

    def h(self, x) -> float:
        raise NotImplementedError

    def grad_h(self, x) -> Vector:
        raise NotImplementedError

    def grad_h_star(self, theta) -> Vector:
        raise NotImplementedError

    def interior(self, x) -> bool:
        """Whether grad_h is defined at x; for an (n, d) stack of points,
        one flag per row."""
        return True

    def bregman(self, y, x) -> float:
        """h(y) - h(x) - <grad h(x), y - x>: the linearization error at y."""
        raise NotImplementedError


class EuclideanMap(MirrorMap):
    """h = 0.5 ||x||_2^2: the identity mirror map; divergence is half the
    squared Euclidean distance."""

    norm = Norm.EUCLIDEAN
    alpha_h = 1.0
    map_id = "euclidean"

    def h(self, x) -> float:
        v = as_vector(x)
        return 0.5 * float(np.dot(v, v))

    def grad_h(self, x) -> Vector:
        return np.asarray(x, dtype=float)

    def grad_h_star(self, theta) -> Vector:
        return np.asarray(theta, dtype=float)

    def bregman(self, y, x) -> float:
        # x may be an (n, d) stack of points: one divergence per row
        d = as_vector(y) - as_points(x)
        div = 0.5 * np.vecdot(d, d)
        return float(div) if d.ndim == 1 else div


class NegEntropyMap(MirrorMap):
    """h = sum_i x_i ln x_i on the positive orthant, measured against the
    l1 norm; the divergence restricted to the simplex is the KL divergence."""

    norm = Norm.L1
    alpha_h = 1.0
    map_id = "negentropy"

    def h(self, x) -> float:
        v = as_vector(x)
        if np.any(v < 0):
            raise ValueError("negative entry outside the entropy domain")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(v > 0, v * np.log(v), 0.0)  # 0 ln 0 = 0
        return float(np.sum(terms))

    def grad_h(self, x) -> Vector:
        v = np.asarray(x, dtype=float)
        if not np.minimum.reduce(v) > 0.0:  # nan fails too
            raise ValueError("gradient of entropy needs strictly positive entries")
        return 1.0 + np.log(v)

    def grad_h_star(self, theta) -> Vector:
        return np.exp(np.asarray(theta, dtype=float) - 1.0)

    def interior(self, x) -> bool:
        return np.all(np.asarray(x, dtype=float) > 0, axis=-1)

    def bregman(self, y, x) -> float:
        # sum_i y_i ln(y_i / x_i) + sum(x) - sum(y); reduces to KL on the
        # simplex, and stays finite when y has zero entries. x may be an
        # (n, d) stack of points: one divergence per row, nan on the rows
        # outside the interior
        y = as_vector(y)
        x = as_points(x)
        check_same_dim(y, x[0] if x.ndim == 2 else x)
        inside = self.interior(x)
        if x.ndim == 1 and not inside:
            raise ValueError("second argument must lie in the entropy interior")
        if np.any(y < 0):
            raise ValueError("first argument outside the entropy domain")
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(y > 0, y * np.log(y / x), 0.0)
        div = np.sum(terms, axis=-1) + np.sum(x, axis=-1) - np.sum(y)
        return float(div) if x.ndim == 1 else np.where(inside, div, np.nan)


MAPS = {
    "euclidean": EuclideanMap,
    "negentropy": NegEntropyMap,
}


def get_map(map_id: str) -> MirrorMap:
    if map_id not in MAPS:
        raise KeyError(f"unknown mirror map {map_id!r}")
    return MAPS[map_id]()


def bregman_project(mirror_map: MirrorMap, feasible: FeasibleSet, x_prime) -> Vector:
    """argmin over the set of the divergence from x_prime.

    Supported pairs: any map on the unconstrained set (x_prime itself), the
    Euclidean map with any set (reduces to Euclidean projection) and
    negative entropy with the simplex (an l1 rescale).
    """
    if isinstance(feasible, Unconstrained):
        return np.asarray(x_prime, dtype=float)
    if isinstance(mirror_map, EuclideanMap):
        return feasible.project(x_prime)
    if isinstance(mirror_map, NegEntropyMap) and isinstance(feasible, Simplex):
        x_prime = np.asarray(x_prime, dtype=float)
        if not mirror_map.interior(x_prime):
            raise ValueError("entropy projection needs a positive point")
        return x_prime / float(np.sum(x_prime))
    raise ValueError(
        f"unsupported (map, set) pair: ({mirror_map.map_id}, {type(feasible).__name__})")


def mirror_step(mirror_map: MirrorMap, feasible: FeasibleSet, x, g,
                eta: float) -> Vector:
    """Dual-space gradient step pulled back and Bregman-projected:
    project(grad_h_star(grad_h(x) - eta * g))."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    check_same_dim(x, g)
    if not mirror_map.interior(x):
        raise ValueError("iterate left the mirror map's interior")
    return _mirror(mirror_map, feasible)(0, x, g, eta)


def _mirror(mirror_map: MirrorMap, feasible: FeasibleSet):
    """mirror_step's arithmetic as the transition ``trace.record`` calls,
    bound to the (map, set) pair once: a run checks x0 and eta once, and a
    pair ``bregman_project`` does not support raises here. A weight that
    underflows to 0 fails at the next step's ``np.log(0)``, which the
    loop's errstate raises."""
    entropy = isinstance(mirror_map, NegEntropyMap)
    if entropy and isinstance(feasible, Simplex):
        top, total = np.empty(()), np.empty(())

        def step(t, x, g, eta):
            # multiplicative update in log space; subtracting the max
            # exponent is absorbed by the rescaling projection and avoids
            # overflow. The max and the sum go into the run's 0-d arrays,
            # which the next ufunc takes on its array path
            logits = np.log(x) - eta * g
            w = np.exp(logits - np.maximum.reduce(logits, out=top))
            return w / np.add.reduce(w, out=total)
    elif entropy and isinstance(feasible, Unconstrained):
        def step(t, x, g, eta):
            # grad_h_star(grad_h(x) - eta g); the projection is the identity
            return np.exp(_ONE + np.log(x) - eta * g - _ONE)
    elif isinstance(mirror_map, EuclideanMap):
        # grad_h and grad_h_star are the identity, the Bregman projection
        # the Euclidean one
        if isinstance(feasible, Unconstrained):
            def step(t, x, g, eta):
                return x - eta * g
        else:
            def step(t, x, g, eta):
                return feasible.project(x - eta * g)
    else:
        raise ValueError(
            f"unsupported (map, set) pair: ({mirror_map.map_id}, {type(feasible).__name__})")
    return step


def run_mirror_descent(adversary: OnlineAdversary, mirror_map: MirrorMap,
                       feasible: FeasibleSet, x0, eta: float, T: int,
                       comparator: Vector | None = None) -> Trace:
    """T rounds of mirror descent; gradients are recorded so the certifier
    can evaluate their dual norms against the regret guarantee."""
    x = as_vector(x0)
    if not (feasible.member(x) and mirror_map.interior(x)):
        raise ValueError("starting point must be an interior member")
    if not eta > 0:
        raise ValueError("step size must be positive")
    if comparator is None:
        comparator = adversary.comparator_over(feasible, T)
    comparator = as_vector(comparator)
    trace = drive(adversary, x, T, _mirror(mirror_map, feasible), lambda t: eta,
                  comparator=comparator)
    trace.meta["method"] = f"mirror-{mirror_map.map_id}"
    trace.constants["eta"] = eta
    trace.constants["alpha_h"] = mirror_map.alpha_h
    trace.constants["x_star"] = comparator
    trace.meta["map"] = mirror_map.map_id
    return trace


def tuned_eta(mirror_map: MirrorMap, x_star, x0, G_dual: float, T: int) -> float:
    """Step size balancing the two terms of the mirror-descent regret bound:
    sqrt(2 alpha_h D(x*||x0) / (T G^2))."""
    div = mirror_map.bregman(x_star, x0)
    if div <= 0:
        return 1.0 / (G_dual * np.sqrt(T))
    return float(np.sqrt(2.0 * mirror_map.alpha_h * div / (T * G_dual ** 2)))
