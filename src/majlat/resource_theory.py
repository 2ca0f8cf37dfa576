"""Front end for majorization-based resource theories.

Maps state data (amplitudes, Schmidt weights, spectra) to sorted
probability vectors, and resolves the optimal common resource of a target
family: the family supremum where free conversion needs the source to
majorize the target (purity), the family infimum where the relation is
reversed (entanglement, coherence). Two continuously parametrized target
families from coherence come with closed forms and exact extremal
descriptors.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .core import OrderedProbVector, _check_dimension, _checked_vector, _Frozen, _trusted, make_vector
from .errors import (
    AlphaMinOutOfRangeError,
    AlphaOutOfRangeError,
    BlockDimensionError,
    EmptyInputError,
    InvalidStateSpecError,
    NegativeEntryError,
    NegativeProbabilityError,
)
from .lattice import ExtremalFamily, family_inf, family_sup
from .numeric import leq, lt, read_row, shown


class Direction(Enum):
    """Which way free convertibility points relative to majorization."""

    DIRECT = "direct"  # source must majorize target
    REVERSED = "reversed"  # target must majorize source


class ResourceTheory(Enum):
    ENTANGLEMENT = "entanglement"
    COHERENCE = "coherence"
    PURITY = "purity"

    @property
    def direction(self) -> Direction:
        return Direction.DIRECT if self is ResourceTheory.PURITY else Direction.REVERSED


class StateSpec(_Frozen):
    """State data: exactly one of amplitudes, schmidt_probs, spectrum.

    Amplitudes may be real scalars, complex numbers, or (re, im) pairs;
    moduli squared are taken and phases dropped. Schmidt weights and
    spectra are probabilities already.
    """

    _fields = ("amplitudes", "schmidt_probs", "spectrum")

    def __init__(self, amplitudes: tuple | None = None, schmidt_probs: tuple | None = None,
                 spectrum: tuple | None = None):
        fields = dict(zip(self._fields, (amplitudes, schmidt_probs, spectrum)))
        given = [f for f, value in fields.items() if value is not None]
        if len(given) != 1:
            raise InvalidStateSpecError(f"exactly one data field required, got {given or 'none'}")
        field = given[0]
        fields[field] = tuple(fields[field])
        if not fields[field]:
            raise EmptyInputError(f"{field} must not be empty")
        self.__dict__.update(fields)


def _amplitude_components(amplitudes: Sequence[object]) -> list[tuple]:
    """Each amplitude as its real components: (x,) or (re, im)."""
    parts: list[tuple] = []
    for a in amplitudes:
        if isinstance(a, complex):
            parts.append((a.real, a.imag))
        elif isinstance(a, (tuple, list)):
            if len(a) != 2:
                raise InvalidStateSpecError(f"amplitude pair needs (re, im), got {a!r}")
            parts.append(tuple(a))
        else:
            parts.append((a,))
    return parts


def state_to_vector(spec: StateSpec, theory: ResourceTheory, *, tol: float | None = None) -> OrderedProbVector:
    """Sorted probability vector of a state under the given theory.

    Coherence and entanglement accept amplitudes (entanglement also takes
    Schmidt weights directly); purity takes a spectrum. The result is the
    squared moduli where applicable, sorted non-increasing. Exact
    amplitude components are read by numeric.read_row as integer
    numerators over one, squared, summed, sorted and checked as integers
    over one², and built as Fractions once they are in order, by the
    door make_vector ends in (core._checked_vector). The vector keeps those
    squares as its integer form when read_row gave the numerators as a
    tuple, as make_vector keeps a row's. Schmidt weights and spectra are
    vector entries and enter through make_vector.
    """
    if spec.amplitudes is not None:
        if theory is ResourceTheory.PURITY:
            raise InvalidStateSpecError("purity takes a spectrum, not amplitudes")
        parts = _amplitude_components(spec.amplitudes)
        values = [c for part in parts for c in part]
        tol, one, numerators, _ = read_row(values, tol)
        c = (n * n for n in numerators)  # each squared modulus takes its own parts, in order
        squares = sorted((next(c) + next(c) if len(part) == 2 else next(c) for part in parts), reverse=True)
        # Squares are never negative, so only the unit-sum test can fail here.
        return _checked_vector(squares, one * one, tol, len(squares), keep=not tol and type(numerators) is tuple)
    if spec.schmidt_probs is not None:
        if theory is not ResourceTheory.ENTANGLEMENT:
            raise InvalidStateSpecError("Schmidt weights belong to entanglement")
        raw = spec.schmidt_probs
    else:
        if theory is not ResourceTheory.PURITY:
            raise InvalidStateSpecError("a spectrum belongs to purity")
        raw = spec.spectrum
    try:
        return make_vector(raw, sort=True, tol=tol)
    except NegativeEntryError as exc:
        raise NegativeProbabilityError(str(exc)) from exc


def optimal_common_resource(family, theory: ResourceTheory) -> OrderedProbVector:
    """Vector of an optimal common resource for the target family.

    Direct theories (purity) need the supremum: it majorizes every
    target. Reversed theories (entanglement, coherence) need the infimum:
    every target majorizes it. Any state mapping to the returned vector
    is an optimal common resource.
    """
    if theory.direction is Direction.DIRECT:
        return family_sup(family)
    return family_inf(family)


def _check_alpha(alpha: object, d: int, tol: float | None):
    _check_dimension(d)
    tol_eff, _, _, (given,) = read_row((alpha,), tol)
    one = given * 0 + 1
    a = min(given, one)  # a value within tolerance above 1 counts as 1
    if not (lt(0, given, tol_eff) and leq(given, one, tol_eff) and lt(one / d, a * a, tol_eff)):
        raise AlphaOutOfRangeError(f"need 1/sqrt({d}) < alpha <= 1, got {shown(given)}")
    return a * a, tol_eff


def _check_blocks(d1: object, d: object, alpha_min_sq, tol: float | None):
    for value in (d1, d):
        if not isinstance(value, int) or isinstance(value, bool):
            raise BlockDimensionError(f"block sizes must be integers, got {value!r}")
    if not 1 <= d1 < d:
        raise BlockDimensionError(f"need 1 <= d1 < d, got d1={d1}, d={d}")
    tol_eff, _, _, (q,) = read_row((alpha_min_sq,), tol)
    one = q * 0 + 1
    if not (lt(one * d1 / d, q, tol_eff) and leq(q, one, tol_eff)):
        raise AlphaMinOutOfRangeError(f"need {d1}/{d} < alpha_min_sq <= 1, got {shown(q)}")
    return min(q, one), tol_eff  # a value accepted within tolerance above 1 is 1


def _two_blocks(d1: int, d: int, q, tol: float) -> OrderedProbVector:
    """Weight q spread uniformly over the first d1 entries, 1 - q over the other d - d1."""
    head = q / d1
    tail = (1 - q) / (d - d1)  # head >= tail exactly because q > d1/d
    return _trusted(OrderedProbVector, entries=(head,) * d1 + (tail,) * (d - d1), tol=tol)


def _block_family(d1: int, d: int, q, tol: float) -> ExtremalFamily:
    """Extremal maps of the two-block targets with weight a in [q, 1].

    Every S_k is non-decreasing in a, so the members at a = q and a = 1
    are the family's infimum and supremum, and their Lorenz curves the maps.
    """
    lower = _two_blocks(d1, d, q, tol).prefix_sums()
    upper = _two_blocks(d1, d, q * 0 + 1, tol).prefix_sums()
    return _trusted(ExtremalFamily, d=d, lower=lower, upper=upper, tol=tol)


def ocr_first_component_bound(alpha, d: int, *, tol: float | None = None) -> OrderedProbVector:
    """Optimal common resource for targets whose largest amplitude is >= alpha.

    The infimum of {x sorted : x_1 >= alpha^2} puts alpha^2 first and
    spreads the remainder uniformly: the one-block superposition at
    weight alpha^2 (d >= 2 is forced by alpha^2 > 1/d with alpha <= 1).
    """
    return _two_blocks(1, d, *_check_alpha(alpha, d, tol))


def first_component_family(alpha, d: int, *, tol: float | None = None) -> ExtremalFamily:
    """Prefix-sum extrema of {x sorted : x_1 >= alpha^2}.

    Its least member (flat tail) and greatest (point mass) are those of
    the one-block family at weight alpha^2, so the extrema are too.
    """
    return _block_family(1, d, *_check_alpha(alpha, d, tol))


def ocr_two_block_superposition(d1: int, d: int, alpha_min_sq, *, tol: float | None = None) -> OrderedProbVector:
    """Optimal common resource for two-block superposition targets.

    Targets spread weight a uniformly over the first d1 basis states and
    1 - a over the rest, with a ranging over [alpha_min_sq, 1]; the
    infimum is the member at a = alpha_min_sq.
    """
    return _two_blocks(d1, d, *_check_blocks(d1, d, alpha_min_sq, tol))


def two_block_family(d1: int, d: int, alpha_min_sq, *, tol: float | None = None) -> ExtremalFamily:
    """Prefix-sum extrema of the two-block superposition targets."""
    return _block_family(d1, d, *_check_blocks(d1, d, alpha_min_sq, tol))
