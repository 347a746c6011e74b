"""Validity sets (Sec. 2 of the paper).

The validity set VS(d) of a member instance d is the set of leaf members of
the parameter dimension over which d is valid.  For an *ordered* parameter
dimension the leaves carry a total order; we represent each moment by its
order index (an ``int``), which makes the interval constructions used by the
perspective operator (Sec. 4.2) direct.

:class:`ValiditySet` is immutable and hashable, supports the usual set
algebra, and knows the size of its universe (the number of leaves of the
parameter dimension) so that complements and unbounded intervals like
``[p, +inf)`` are well defined.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ValidityError

__all__ = ["ValiditySet"]


class ValiditySet:
    """An immutable set of moments (leaf order indices) with a fixed universe.

    Parameters
    ----------
    moments:
        Iterable of integer order indices; each must lie in
        ``range(universe)``.
    universe:
        Number of leaf members of the parameter dimension.
    """

    __slots__ = ("_moments", "_universe")

    def __init__(self, moments: Iterable[int], universe: int) -> None:
        if universe < 0:
            raise ValidityError(f"universe must be non-negative, got {universe}")
        frozen = frozenset(moments)
        for moment in frozen:
            if not isinstance(moment, int):
                raise ValidityError(f"moment {moment!r} is not an int")
            if not 0 <= moment < universe:
                raise ValidityError(
                    f"moment {moment} outside universe range [0, {universe})"
                )
        self._moments = frozen
        self._universe = universe

    # -- constructors ------------------------------------------------------

    @classmethod
    def trusted(cls, moments: frozenset[int], universe: int) -> "ValiditySet":
        """A set whose moments the caller guarantees are ints in
        ``range(universe)`` — what Φ builds off a validity matrix row —
        adopted without the per-moment check."""
        validity = cls.__new__(cls)
        validity._moments = moments
        validity._universe = universe
        return validity

    @classmethod
    def empty(cls, universe: int) -> "ValiditySet":
        return cls((), universe)

    @classmethod
    def full(cls, universe: int) -> "ValiditySet":
        return cls(range(universe), universe)

    @classmethod
    def single(cls, moment: int, universe: int) -> "ValiditySet":
        return cls((moment,), universe)

    @classmethod
    def interval(cls, start: int, stop: int | None, universe: int) -> "ValiditySet":
        """Half-open interval ``[start, stop)``; ``stop=None`` means +inf."""
        if stop is None:
            stop = universe
        start = max(start, 0)
        stop = min(stop, universe)
        if stop <= start:
            return cls.empty(universe)
        return cls(range(start, stop), universe)

    # -- basic protocol ----------------------------------------------------

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def moments(self) -> frozenset[int]:
        return self._moments

    def sorted_moments(self) -> list[int]:
        return sorted(self._moments)

    def __contains__(self, moment: int) -> bool:
        return moment in self._moments

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._moments))

    def __len__(self) -> int:
        return len(self._moments)

    def __bool__(self) -> bool:
        return bool(self._moments)

    @property
    def is_empty(self) -> bool:
        return not self._moments

    def min(self) -> int:
        if not self._moments:
            raise ValidityError("min() of an empty validity set")
        return min(self._moments)

    def max(self) -> int:
        if not self._moments:
            raise ValidityError("max() of an empty validity set")
        return max(self._moments)

    # -- set algebra ---------------------------------------------------------

    def _check_compatible(self, other: "ValiditySet") -> None:
        if self._universe != other._universe:
            raise ValidityError(
                f"validity sets have different universes: "
                f"{self._universe} vs {other._universe}"
            )

    def union(self, other: "ValiditySet") -> "ValiditySet":
        self._check_compatible(other)
        return ValiditySet(self._moments | other._moments, self._universe)

    def intersection(self, other: "ValiditySet") -> "ValiditySet":
        self._check_compatible(other)
        return ValiditySet(self._moments & other._moments, self._universe)

    def difference(self, other: "ValiditySet") -> "ValiditySet":
        self._check_compatible(other)
        return ValiditySet(self._moments - other._moments, self._universe)

    def complement(self) -> "ValiditySet":
        return ValiditySet(
            frozenset(range(self._universe)) - self._moments, self._universe
        )

    def intersects(self, other: "ValiditySet") -> bool:
        self._check_compatible(other)
        return bool(self._moments & other._moments)

    def intersects_moments(self, moments: Iterable[int]) -> bool:
        return bool(self._moments.intersection(moments))

    def is_disjoint(self, other: "ValiditySet") -> bool:
        return not self.intersects(other)

    def issubset(self, other: "ValiditySet") -> bool:
        self._check_compatible(other)
        return self._moments <= other._moments

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # -- interval helpers (ordered parameter dimensions) --------------------

    def restrict_before(self, moment: int) -> "ValiditySet":
        """Moments strictly before ``moment``."""
        return ValiditySet(
            (m for m in self._moments if m < moment), self._universe
        )

    def restrict_from(self, moment: int) -> "ValiditySet":
        """Moments at or after ``moment``."""
        return ValiditySet(
            (m for m in self._moments if m >= moment), self._universe
        )

    def reversed(self) -> "ValiditySet":
        """Mirror the set around the universe midpoint.

        Used to derive backward perspective semantics from forward ones:
        moment ``m`` maps to ``universe - 1 - m``.
        """
        return ValiditySet(
            (self._universe - 1 - m for m in self._moments), self._universe
        )

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValiditySet):
            return NotImplemented
        return self._universe == other._universe and self._moments == other._moments

    def __hash__(self) -> int:
        return hash((self._universe, self._moments))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValiditySet({self.sorted_moments()}, universe={self._universe})"
