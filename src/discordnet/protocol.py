"""The discord distribution protocol: circuit execution, the bipartite
closed form, its variants (B92 resource generation, single-memory, GHZ
carriers, partial interaction subsets, noisy memories) and the effective
memory-channel classification analyses.

A circuit runs in two steps.  ``_prepare`` builds the angle-independent part:
memory noise, the carrier (x) memory tensor and the controlled gates.
``_measure`` projects the interacting carriers at one point of measurement
angles, or at a block of k points in one pass, one row per point on a
leading axis, and traces out what is not retained.  ``run_circuit`` does
both for one config; ``angle_sweep`` prepares a config once and measures it
at one point or a whole block of carrier angles, for the outer angle
searches.  Both go through the same two steps, so there is one simulation
path.

Retention rule for partial-interaction runs: an index i whose carrier-memory
pair does interact contributes M_i to the final state (C_i is measured and
discarded); a non-interacting index contributes C_i and its unused memory
M_i is traced out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import states
from .channels import (
    GateSpec,
    KrausChannel,
    MeasurementBasis,
    apply_gate,
    apply_kraus,
    measure_all_outcomes,
    measure_project,
)
from .states import DensityMatrix, DensityStack, StateError, partial_trace, tensor, trace_distance

# "Generic" angles for structure tests: away from the degenerate sets
# {0, pi/2, pi} where one of the discord directions collapses.
GENERIC_THETA = 0.9
GENERIC_PHI = 0.3

KET_PLUS = states.KET_PLUS
KET_MINUS = states.KET_MINUS


# Default registers, built once per n: DensityMatrix is frozen and its matrix
# read-only, so every run can share them.
_default_carriers = functools.lru_cache(maxsize=None)(states.classical_carriers)
_default_memories = functools.lru_cache(maxsize=None)(states.plus_memories)


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete specification of one protocol run."""

    n: int
    carriers: DensityMatrix | None = None  # default: classical carrier mixture
    memories: DensityMatrix | None = None  # default: |+>^n
    interactions: tuple[int, ...] | None = None  # default: all pairs
    gate_kind: str = "cz"
    carrier_angles: Mapping[int, tuple[float, float]] = field(default_factory=dict)
    outcome: tuple[int, ...] | str = "zeros"  # bits, "zeros" or "all"
    memory_noise: KrausChannel | None = None  # acts on memory labels only

    def resolved(self) -> "ProtocolConfig":
        if self.n < 1:
            raise StateError("protocol needs n >= 1")
        carriers = self.carriers if self.carriers is not None else _default_carriers(self.n)
        memories = self.memories if self.memories is not None else _default_memories(self.n)
        interactions = (
            tuple(sorted(self.interactions))
            if self.interactions is not None
            else tuple(range(1, self.n + 1))
        )
        if any(i < 1 or i > self.n for i in interactions):
            raise StateError(f"interaction set {interactions} outside 1..{self.n}")
        missing = [i for i in interactions if i not in self.carrier_angles]
        if missing:
            raise StateError(f"no measurement angles for interacting carriers {missing}")
        return replace(
            self,
            carriers=carriers,
            memories=memories,
            interactions=interactions,
        )


@dataclass(frozen=True)
class ProtocolOutcome:
    """One protocol branch.  For a block of k angle points, ``final_state``
    is a ``DensityStack`` and ``probability`` a length-k array, row i being
    point i."""

    final_state: DensityMatrix | DensityStack
    probability: float | np.ndarray
    retained_labels: tuple[str, ...]
    outcome_bits: tuple[int, ...]


# angles[i] = (theta, phi) of carrier i; for a block, (thetas, phis) arrays
# with one entry per row
CarrierAngles = Mapping[int, tuple]


def run_circuit(cfg: ProtocolConfig) -> ProtocolOutcome | list[ProtocolOutcome]:
    """Execute the protocol circuit; returns all branches when outcome='all'."""
    cfg = cfg.resolved()
    return _measure(cfg, *_prepare(cfg), cfg.carrier_angles)


def angle_sweep(cfg: ProtocolConfig) -> Callable[..., ProtocolOutcome | list]:
    """``run(thetas, phis=None)``: the protocol of ``cfg`` at other carrier
    angles, with the register prepared once.

    ``run`` takes per-carrier angles as ``standard_config`` does (phis default
    to 0) and returns what ``run_circuit`` returns for ``cfg`` at those
    angles, bit for bit.  Given (k, n) arrays instead, it measures all k
    points in one pass: a fixed outcome gives one ``ProtocolOutcome`` of k
    rows, and ``outcome='all'`` one branch list per point, since a branch
    can vanish at some points only.  Row i equals the one-point call at
    point i, bit for bit.
    """
    cfg = cfg.resolved()
    joint, retained = _prepare(cfg)

    def run(thetas, phis=None):
        thetas = np.asarray(thetas, dtype=float)
        phis = np.zeros_like(thetas) if phis is None else np.asarray(phis, dtype=float)
        # One angle per carrier 1..n covers every interacting carrier, which
        # is all that resolving would check again.
        if thetas.ndim not in (1, 2) or thetas.shape[-1] != cfg.n:
            raise StateError(f"carrier angles of shape {thetas.shape} for {cfg.n} carrier-memory pairs")
        if phis.shape != thetas.shape:
            raise StateError(f"phis of shape {phis.shape} for thetas of shape {thetas.shape}")
        angles = {i: (thetas[..., i - 1], phis[..., i - 1]) for i in cfg.interactions}
        return _measure(cfg, joint, retained, angles, len(thetas) if thetas.ndim == 2 else None)

    return run


def _prepare(cfg: ProtocolConfig) -> tuple[DensityMatrix, list[str]]:
    """The angle-independent half of a resolved config: the joint state after
    memory noise and the carrier-memory gates, and the labels it retains."""
    memories = cfg.memories
    if cfg.memory_noise is not None:
        # (I (x) E)(rho_C (x) rho_M) = rho_C (x) E(rho_M): noise the small register.
        memories = apply_kraus(memories, cfg.memory_noise)
    joint = tensor([cfg.carriers, memories])
    for i in cfg.interactions:
        joint = apply_gate(joint, GateSpec(kind=cfg.gate_kind, control=f"C{i}", target=f"M{i}"))
    return joint, _retained_labels(cfg, joint)


def _measure(
    cfg: ProtocolConfig,
    joint: DensityMatrix,
    retained: list[str],
    angles: CarrierAngles,
    rows: int | None = None,
) -> ProtocolOutcome | list[ProtocolOutcome] | list[list[ProtocolOutcome]]:
    """Measure the interacting carriers of a prepared joint state at one
    point, or at each of the ``rows`` rows of a block, and keep the retained
    labels: one outcome (of k rows for a block), or for outcome='all' its
    branch list (one per row for a block)."""
    basis = MeasurementBasis({f"C{i}": angles[i] for i in cfg.interactions}, size=rows)
    keep = tuple(retained)

    if cfg.outcome == "all":
        def outcomes(branches: list) -> list[ProtocolOutcome]:
            return [ProtocolOutcome(partial_trace(state, retained), prob, keep, bits)
                    for bits, state, prob in branches if state is not None]

        branches = measure_all_outcomes(joint, basis)
        return outcomes(branches) if rows is None else [outcomes(b) for b in branches]

    bits = (
        tuple(0 for _ in cfg.interactions)
        if cfg.outcome == "zeros"
        else tuple(int(b) for b in cfg.outcome)
    )
    block, probs = measure_project(joint, basis, bits)
    return ProtocolOutcome(partial_trace(block, retained), probs, keep, bits)


def _retained_labels(cfg: ProtocolConfig, joint: DensityMatrix) -> list[str]:
    retained = []
    for lab in joint.labels:
        kind, idx = lab[0], int(lab[1:])
        if kind == "M":
            keep = idx in cfg.interactions
        else:  # carrier
            if idx > cfg.n:  # extra carrier with no partner (GHZ variant)
                keep = True
            else:
                keep = idx not in cfg.interactions
        if keep:
            retained.append(lab)
    return retained


def standard_config(
    thetas: Sequence[float],
    phis: Sequence[float] | None = None,
    outcome: tuple[int, ...] | str = "zeros",
    carriers: DensityMatrix | None = None,
    memories: DensityMatrix | None = None,
    memory_noise: KrausChannel | None = None,
    interactions: Sequence[int] | None = None,
) -> ProtocolConfig:
    """All-pairs controlled-Z protocol with per-carrier measurement angles."""
    return ProtocolConfig(
        n=len(thetas),
        carriers=carriers,
        memories=memories,
        interactions=tuple(interactions) if interactions is not None else None,
        carrier_angles=_carrier_angles(thetas, phis),
        outcome=outcome,
        memory_noise=memory_noise,
    )


def _carrier_angles(
    thetas: Sequence[float], phis: Sequence[float] | None
) -> dict[int, tuple[float, float]]:
    """Angles of carriers 1..len(thetas); phis default to 0."""
    phis = list(phis) if phis is not None else [0.0] * len(thetas)
    return {i + 1: (float(thetas[i]), float(phis[i])) for i in range(len(thetas))}


def final_state_closed_form(
    theta1: float, theta2: float, phi1: float = 0.0, phi2: float = 0.0
) -> DensityMatrix:
    """Closed-form bipartite memory output for the ideal protocol.

    Product of local |+>/|-> mixtures weighted by cos^2/sin^2 of the half
    measurement angles, plus a coherence block of strength
    (sin theta1 sin theta2)/4 carrying the phase sums/differences.
    """
    c2 = [math.cos(theta1 / 2) ** 2, math.cos(theta2 / 2) ** 2]
    locals_ = [
        c * np.outer(KET_PLUS, KET_PLUS) + (1 - c) * np.outer(KET_MINUS, KET_MINUS)
        for c in c2
    ]
    m = np.kron(locals_[0], locals_[1]).astype(np.complex128)
    alpha = math.sin(theta1) * math.sin(theta2) / 4
    pp = np.kron(KET_PLUS, KET_PLUS)
    pm = np.kron(KET_PLUS, KET_MINUS)
    mp = np.kron(KET_MINUS, KET_PLUS)
    mm = np.kron(KET_MINUS, KET_MINUS)
    phi_plus, phi_minus = phi1 + phi2, phi1 - phi2
    coh = np.exp(1j * phi_plus) * np.outer(pp, mm) + np.exp(1j * phi_minus) * np.outer(pm, mp)
    m = m + alpha * (coh + coh.conj().T)
    return DensityMatrix(("M1", "M2"), m)


def run_b92_variant():
    """Computational-basis protocol with a controlled-Hadamard on pair 2 only.

    Returns the two outcome branches; both occur with probability 1/2 and
    both project onto the same resource state on (C1, M2).
    """
    carriers = DensityMatrix(
        ("C1", "C2"), np.diag([0.5, 0.0, 0.0, 0.5]).astype(np.complex128)
    )
    cfg = ProtocolConfig(
        n=2,
        carriers=carriers,
        memories=states.zero_memories(2),
        interactions=(2,),
        gate_kind="ch",
        carrier_angles={2: (math.pi / 2, 0.0)},
        outcome="all",
    )
    return run_circuit(cfg)


def run_single_memory_variant(theta2: float) -> ProtocolOutcome:
    """Controlled-Z protocol with one memory: pair 2 interacts, C1 is idle.

    C2 is measured at polar angle theta2 and azimuth 0 and post-selected on
    outcome 0.  The final compound is (C1, M2).
    """
    cfg = ProtocolConfig(
        n=2,
        memories=states.plus_memories(2),
        interactions=(2,),
        carrier_angles={2: (theta2, 0.0)},
        outcome=(0,),
    )
    return run_circuit(cfg)


def ghz_config(theta1: float, theta2: float) -> ProtocolConfig:
    """Three GHZ carriers, two memories; C3 never interacts and is retained.

    C1 and C2 are measured at polar angles theta1, theta2 and azimuth 0.
    """
    return ProtocolConfig(
        n=2,
        carriers=states.ghz3_carriers(),
        memories=states.plus_memories(2),
        interactions=(1, 2),
        carrier_angles={1: (theta1, 0.0), 2: (theta2, 0.0)},
        outcome="zeros",
    )


# --------------------------------------------------------------------------
# Effective memory channel analyses
# --------------------------------------------------------------------------

ChannelBuilder = Callable[[DensityMatrix], DensityMatrix]


def effective_memory_channel(
    thetas: Sequence[float], phis: Sequence[float] | None = None
) -> ChannelBuilder:
    """Map from an initial memory state to the final memory state, with the
    classical carriers and post-selection on the all-zeros outcome."""

    def channel(memories: DensityMatrix) -> DensityMatrix:
        cfg = standard_config(thetas, phis, memories=memories)
        return run_circuit(cfg).final_state

    return channel


def _classical_product_inputs() -> list[DensityMatrix]:
    inputs = []
    for s1 in (KET_PLUS, KET_MINUS):
        for s2 in (KET_PLUS, KET_MINUS):
            v = np.kron(s1, s2)
            inputs.append(DensityMatrix(("M1", "M2"), np.outer(v, v.conj())))
    return inputs


def classify_semiclassical(channel: ChannelBuilder) -> bool:
    """True iff every classical product input maps to a state diagonal in the
    product |+>/|-> basis, to 1e-9 in every entry."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    to_x = np.kron(h, h)
    for rho_in in _classical_product_inputs():
        out = channel(rho_in)
        in_x = to_x.conj().T @ out.matrix @ to_x
        off = in_x - np.diag(np.diag(in_x))
        if float(np.max(np.abs(off))) > 1e-9:
            return False
    return True


def classify_unital(channel: ChannelBuilder) -> bool:
    """True iff the channel fixes the maximally mixed memory state, to 1e-9
    in every entry."""
    mixed = states.maximally_mixed(("M1", "M2"))
    out = channel(mixed)
    return float(np.max(np.abs(out.matrix - mixed.matrix))) <= 1e-9


def unital_closed_form(
    theta1: float, theta2: float, phi1: float = 0.0, phi2: float = 0.0
) -> DensityMatrix:
    """Output of the protocol on maximally mixed memories.

    I/4 plus a Z(x)Z correction whose weight is the product of sin(theta_i)
    cos(phi_i); the channel is unital exactly when that weight vanishes.
    """
    k = (
        math.sin(theta1) * math.cos(phi1) * math.sin(theta2) * math.cos(phi2)
    )
    z = np.diag([1.0, -1.0])
    m = np.eye(4) / 4 + 0.25 * k * np.kron(z, z)
    return DensityMatrix(("M1", "M2"), m.astype(np.complex128))


@dataclass(frozen=True)
class FactorizabilityReport:
    joint_output: DensityMatrix
    product_of_marginals: DensityMatrix
    trace_distance: float

    @property
    def factorizable(self) -> bool:
        return self.trace_distance <= 1e-9


def effective_channel_nonfactorizability_check() -> FactorizabilityReport:
    """Compare the joint memory map against the product of its marginal maps,
    at the optimal carrier angles theta = 0.9458, phi = 0 and on the |+>|+>
    memory input.

    The marginal map for M_i feeds the other memory with its reference |+>
    state and traces it out of the result.
    """
    channel = effective_memory_channel([0.9458, 0.9458])
    mem = states.plus_memories(2)
    joint_out = channel(mem)

    marg_out = []
    for i, other in ((1, 2), (2, 1)):
        marg_in = partial_trace(mem, [f"M{i}"])
        plus = DensityMatrix((f"M{other}",), np.outer(KET_PLUS, KET_PLUS).astype(np.complex128))
        ordered = [marg_in, plus] if i < other else [plus, marg_in]
        out = channel(DensityMatrix(("M1", "M2"), tensor(ordered).matrix))
        marg_out.append(partial_trace(out, [f"M{i}"]))
    product = tensor(marg_out)
    return FactorizabilityReport(
        joint_output=joint_out,
        product_of_marginals=product,
        trace_distance=trace_distance(joint_out, product),
    )
