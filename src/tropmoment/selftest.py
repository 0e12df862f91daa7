"""Seeded cross-module invariant suite behind the ``selftest`` subcommand.

Each check exercises an identity that couples at least two independent
computation paths (exact theta vs quadratic forms, graph pipeline vs
lattice pipeline, archimedean series vs closed forms).  All randomness is
drawn from one ``random.Random(seed)`` stream, so a given seed always
replays the same suite.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .heights import (
    EllipticPlaces,
    NonArchPlace,
    arch_local_invariant,
    height_identity_report,
)
from .lattice import GramLattice, closest_vector, norm_sq, validate
from .metricgraph import (
    MetricGraph,
    Edge,
    effective_resistance,
    moment_identity_residual,
    tau,
)
from .neron import (
    b2,
    component_multiplicity,
    tate_local_height,
    tate_local_height_tropical,
    tate_theta_log_abs,
)
from .polytope import second_moment, voronoi_cell, volume
from .troptheta import (
    functional_equation_residual,
    trop_theta,
    trop_theta_norm,
    trop_theta_norm_shifted0,
)

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_lattice(rng: random.Random, max_rank: int = 3) -> GramLattice:
    g = rng.randint(1, max_rank)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        if _linalg.int_det(a) != 0:
            break
    scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    gram = [
        [scale * sum(a[k][i] * a[k][j] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]
    return validate(gram)


def random_point(rng: random.Random, g: int, den: int = 12):
    return tuple(
        Fraction(rng.randint(-2 * den, 2 * den), rng.randint(1, den))
        for _ in range(g)
    )


def random_graph(rng: random.Random, max_edges: int = 6) -> MetricGraph:
    edge_count = rng.randint(1, max_edges)
    n = rng.randint(1, edge_count + 1)
    edges = [Edge(rng.randrange(v), v, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
             for v in range(1, n)]
    while len(edges) < edge_count:
        edges.append(Edge(rng.randrange(n), rng.randrange(n),
                          Fraction(rng.randint(1, 12), rng.randint(1, 12))))
    return MetricGraph(vertex_count=n, edges=tuple(edges))


def _check_theta_identities(rng, count) -> CheckResult:
    for _ in range(count):
        lat = random_lattice(rng)
        nu = random_point(rng, lat.rank)
        u = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        if functional_equation_residual(lat, nu, u) != 0:
            return CheckResult("theta-functional-equation", False, f"{lat} {nu} {u}")
        if trop_theta_norm(lat, nu) != trop_theta(lat, nu) + norm_sq(lat, nu) / 2:
            return CheckResult("theta-norm-identity", False, f"{lat} {nu}")
        shifted = tuple(a + b for a, b in zip(nu, u))
        if trop_theta_norm(lat, shifted) != trop_theta_norm(lat, nu):
            return CheckResult("theta-periodicity", False, f"{lat} {nu} {u}")
        cv = closest_vector(lat, nu)
        cv_shift = closest_vector(lat, shifted)
        if tuple(a + b for a, b in zip(cv, u)) != cv_shift:
            return CheckResult("cvp-translation", False, f"{lat} {nu} {u}")
    return CheckResult("theta-functional-equation", True, f"{count} seeded triples")


def _check_cell_geometry(rng, count) -> CheckResult:
    for _ in range(count):
        lat = random_lattice(rng)
        if volume(voronoi_cell(lat)) != 1:
            return CheckResult("cell-volume-one", False, str(lat))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = validate([[c * x for x in row] for row in lat.gram])
        if second_moment(scaled) != c * second_moment(lat):
            return CheckResult("moment-scaling", False, str(lat))
    return CheckResult("cell-volume-one", True, f"{count} seeded lattices (+scaling)")


def _check_graph_identity(rng, count) -> CheckResult:
    for _ in range(count):
        graph = random_graph(rng)
        if moment_identity_residual(graph) != 0:
            return CheckResult("graph-moment-identity", False, str(graph))
    return CheckResult("graph-moment-identity", True, f"{count} seeded graphs")


def _check_tau_base_point(rng, count) -> CheckResult:
    for _ in range(count):
        graph = random_graph(rng, max_edges=4)
        values = {tau(graph, q) for q in range(graph.vertex_count)}
        if len(values) != 1:
            return CheckResult("tau-base-point", False, str(graph))
    return CheckResult("tau-base-point", True, f"{count} seeded graphs")


def _check_foster(rng, count) -> CheckResult:
    # Foster's theorem: the edge Foster coefficients r(e)/L_e sum to |V| - 1
    for _ in range(count):
        graph = random_graph(rng)
        total = sum(effective_resistance(graph, e.tail, e.head) / e.length
                    for e in graph.edges)
        if total != graph.vertex_count - 1:
            return CheckResult("foster-theorem", False, str(graph))
    return CheckResult("foster-theorem", True, f"{count} seeded graphs")


def _check_tate_cross(rng, count) -> CheckResult:
    for _ in range(count):
        ell = Fraction(rng.randint(1, 24), rng.randint(1, 4))
        lat = validate([[ell]])
        kappa = (Fraction(1, 2),)
        nu = Fraction(rng.randint(0, 7 * 24), 7)
        if nu > ell:
            nu = ell
        lhs = tate_local_height_tropical(ell, nu)
        rhs = trop_theta_norm_shifted0(lat, kappa, (nu / ell,))
        if lhs != rhs:
            return CheckResult("tate-cross-identity", False, f"ell={ell} nu={nu}")
    for ell_int in (2, 3, 5, 12):
        for i in range(ell_int):
            if component_multiplicity(i, ell_int) != tate_local_height_tropical(
                ell_int, i
            ):
                return CheckResult("tate-cross-identity", False, f"i={i} ell={ell_int}")
    return CheckResult("tate-cross-identity", True, f"{count} seeded + multiplicities")


def _check_tate_arch(rng, count) -> CheckResult:
    for _ in range(count):
        q = _random_modulus(rng)
        z = _random_unit(rng, scale=math.exp(rng.uniform(-0.3, 0.3)))
        theta_qz = tate_theta_log_abs(q, q * z, 256).value
        theta_z = tate_theta_log_abs(q, z, 256).value
        if abs(theta_qz - theta_z + math.log(abs(z))) > 1e-10:
            return CheckResult("tate-theta-quasi-periodicity", False, f"q={q} z={z}")
        lam = tate_local_height(q, z, 256)
        if abs(tate_local_height(q, q * z, 256) - lam) > 1e-10:
            return CheckResult("tate-lambda-periodicity", False, f"q={q} z={z}")
        # the reduced pair against the raw product at q and z
        log_q = math.log(abs(q))
        raw = (-log_q / 2) * b2(math.log(abs(z)) / log_q) - _raw_theta_log_abs(q, z, 256)
        if abs(lam - raw) > 1e-10:
            return CheckResult("tate-lambda-raw-product", False, f"q={q} z={z}")
        # the same curve and point in another period basis
        tau, u = cmath.log(q) / (2j * math.pi), cmath.log(z) / (2j * math.pi)
        a, b, c, d = _random_sl2z(rng)
        j = c * tau + d
        moved = tate_local_height(cmath.exp(2j * math.pi * (a * tau + b) / j),
                                  cmath.exp(2j * math.pi * u / j), 256)
        if abs(moved - lam) > 1e-10 * max(1.0, abs(lam)):
            return CheckResult("tate-lambda-sl2z", False, f"q={q} z={z} g={(a, b, c, d)}")
        t = rng.uniform(-3, 3)
        if abs(float(b2(t + 1) - b2(t)) - 2 * t) > 1e-12:
            return CheckResult("b2-step-identity", False, f"t={t}")
    return CheckResult("tate-lambda-periodicity", True, f"{count} seeded (q, z) pairs")


def _raw_theta_log_abs(q: complex, z: complex, n_terms: int) -> float:
    """log|theta(z)| term by term at the unreduced q and z, one log per
    factor: for |q| <= 0.7 and |z| near 1, 256 terms leave less than 1e-38."""
    total = math.log(abs(1.0 - z))
    q_n = complex(1.0)
    for _ in range(n_terms):
        q_n *= q
        total += math.log(abs(1.0 - q_n * z)) + math.log(abs(1.0 - q_n / z))
    return total


def _random_sl2z(rng) -> tuple[int, int, int, int]:
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c == 1:
            return a, b, c, d


def _random_modulus(rng) -> complex:
    r = rng.uniform(0.05, 0.7)
    phi = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _random_unit(rng, scale: float = 1.0) -> complex:
    phi = rng.uniform(0.2, 2 * math.pi - 0.2)
    return complex(scale * math.cos(phi), scale * math.sin(phi))


def _check_heights(rng, count) -> CheckResult:
    for _ in range(count):
        degree = rng.randint(1, 3)
        nonarch = tuple(
            NonArchPlace(ord_delta=rng.randint(0, 20), log_nv=rng.uniform(0.5, 3.0))
            for _ in range(rng.randint(0, 3))
        )
        arch = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(0.3, 10.0)) for _ in range(degree)
        )
        places = EllipticPlaces(degree=degree, nonarch=nonarch, arch=arch)
        report = height_identity_report(places)
        if abs(report.residual) > 1e-10:
            return CheckResult("height-identity", False, f"residual={report.residual}")
        for tau_v in arch:
            inv = arch_local_invariant(tau_v)
            if not inv > 0:
                return CheckResult("arch-invariant-positive", False, f"tau={tau_v}")
            # |delta| (Im tau)^6 is invariant under SL2(Z)
            a, b, c, d = _random_sl2z(rng)
            moved = arch_local_invariant((a * tau_v + b) / (c * tau_v + d))
            if abs(moved - inv) > 1e-10 * inv:
                return CheckResult("arch-invariant-sl2z", False, f"tau={tau_v} g={(a, b, c, d)}")
    return CheckResult("height-identity", True, f"{count} seeded place systems")


def run_selftest(
    seed: int = 7,
    theta_count: int = 60,
    lattice_count: int = 20,
    graph_count: int = 20,
    height_count: int = 20,
    tate_count: int = 30,
) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        _check_theta_identities(rng, theta_count),
        _check_cell_geometry(rng, lattice_count),
        _check_graph_identity(rng, graph_count),
        _check_tau_base_point(rng, max(2, graph_count // 2)),
        _check_tate_cross(rng, tate_count),
        _check_tate_arch(rng, tate_count),
        _check_heights(rng, height_count),
        _check_foster(rng, graph_count),
    ]
