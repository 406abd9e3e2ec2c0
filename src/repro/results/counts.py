"""The :class:`Counts` histogram.

Keys are bitstrings over *classical bits* in clbit-index order, with clbit 0
as the **leftmost** character — matching the paper's ``q0q1q2`` table labels
(see the README's *Bit-order conventions*).  Counts supports the manipulations the assertion
machinery needs: marginalisation, post-selection on specific bit values,
conversion to probabilities and distribution distances.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AnalysisError


class Counts(Dict[str, int]):
    """A histogram mapping classical bitstrings to shot counts.

    Parameters
    ----------
    data:
        Mapping of bitstring -> non-negative count.  All keys must have equal
        length.
    """

    def __init__(self, data: Optional[Mapping[str, int]] = None) -> None:
        super().__init__()
        if data:
            width = None
            for key, value in data.items():
                if not isinstance(key, str) or any(c not in "01" for c in key):
                    raise AnalysisError(f"invalid bitstring key {key!r}")
                if width is None:
                    width = len(key)
                elif len(key) != width:
                    raise AnalysisError(
                        f"inconsistent key widths: {len(key)} vs {width}"
                    )
                count = int(value)
                if count < 0:
                    raise AnalysisError(f"negative count {value} for {key!r}")
                if count:
                    self[key] = self.get(key, 0) + count

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_bits(self) -> int:
        """Return the bitstring width (0 for an empty histogram)."""
        for key in self:
            return len(key)
        return 0

    @property
    def shots(self) -> int:
        """Return the total number of shots."""
        return sum(self.values())

    def probabilities(self) -> Dict[str, float]:
        """Return the normalised distribution (empty dict if no shots)."""
        total = self.shots
        if total == 0:
            return {}
        return {key: count / total for key, count in sorted(self.items())}

    def probability_of(self, key: str) -> float:
        """Return the empirical probability of one bitstring."""
        total = self.shots
        if total == 0:
            return 0.0
        return self.get(key, 0) / total

    def most_frequent(self) -> str:
        """Return the most frequent bitstring (ties broken lexically)."""
        if not self:
            raise AnalysisError("empty counts have no most-frequent key")
        return max(sorted(self), key=lambda k: self[k])

    # ------------------------------------------------------------------
    # Bit manipulation
    # ------------------------------------------------------------------

    def marginal(self, bits: Sequence[int]) -> "Counts":
        """Return counts over only the given bit positions (in given order).

        ``bits`` are positions into the bitstring (clbit indices).
        """
        width = self.num_bits
        for b in bits:
            if not 0 <= b < width:
                raise AnalysisError(f"bit position {b} out of range [0, {width})")
        out: Dict[str, int] = {}
        for key, count in self.items():
            sub = "".join(key[b] for b in bits)
            out[sub] = out.get(sub, 0) + count
        return Counts(out)

    def postselect(self, conditions: Mapping[int, int]) -> "Counts":
        """Keep only shots where bit ``pos`` equals ``value`` for all pairs.

        The selected bit positions remain in the returned keys; use
        :meth:`marginal` afterwards to drop them.  This is the software
        analogue of QUIRK's post-selection operator and the filtering step
        used in the paper's hardware experiments (§4).
        """
        width = self.num_bits
        for pos, value in conditions.items():
            if not 0 <= pos < width:
                raise AnalysisError(f"bit position {pos} out of range [0, {width})")
            if value not in (0, 1):
                raise AnalysisError(f"condition value must be 0 or 1, got {value}")
        out: Dict[str, int] = {}
        for key, count in self.items():
            if all(key[pos] == str(value) for pos, value in conditions.items()):
                out[key] = count
        return Counts(out)

    def without_bits(self, bits: Sequence[int]) -> "Counts":
        """Return counts with the given bit positions removed."""
        drop = set(bits)
        keep = [b for b in range(self.num_bits) if b not in drop]
        return self.marginal(keep)

    def merged_with(self, other: "Counts") -> "Counts":
        """Return the element-wise sum of two histograms of equal width."""
        if self and other and self.num_bits != other.num_bits:
            raise AnalysisError(
                f"cannot merge counts of widths {self.num_bits} and {other.num_bits}"
            )
        out = dict(self)
        for key, count in other.items():
            out[key] = out.get(key, 0) + count
        return Counts(out)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def total_variation_distance(self, other: "Counts") -> float:
        """Return the total-variation distance to another histogram."""
        p = self.probabilities()
        q = other.probabilities()
        keys = set(p) | set(q)
        distance = 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
        # Rounded probabilities can sum past 1 (100/112 + 1/112 + 11/112).
        return min(distance, 1.0)

    def hellinger_distance(self, other: "Counts") -> float:
        """Return the Hellinger distance to another histogram."""
        p = self.probabilities()
        q = other.probabilities()
        keys = set(p) | set(q)
        s = sum(
            (math.sqrt(p.get(k, 0.0)) - math.sqrt(q.get(k, 0.0))) ** 2 for k in keys
        )
        return math.sqrt(0.5 * s)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in sorted(self.items()))
        return f"Counts({{{inner}}})"


def counts_from_probabilities(
    probabilities: Mapping[str, float],
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> Counts:
    """Sample a :class:`Counts` histogram from an exact distribution.

    Parameters
    ----------
    probabilities:
        Mapping bitstring -> probability; must sum to ~1.
    shots:
        Number of samples to draw.  If ``rng`` is ``None`` the *expected*
        counts are returned instead (rounded, preserving the total).
    rng:
        Source of randomness for multinomial sampling.
    """
    if shots < 0:
        raise AnalysisError(f"shots must be non-negative, got {shots}")
    keys = sorted(probabilities)
    probs = np.array([probabilities[k] for k in keys], dtype=float)
    if probs.size == 0:
        return Counts({})
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
        raise AnalysisError(f"probabilities sum to {total}, expected 1")
    probs = probs / total
    if rng is None:
        # Deterministic expected counts with largest-remainder rounding.
        raw = probs * shots
        floor = np.floor(raw).astype(int)
        remainder = shots - int(floor.sum())
        order = np.argsort(raw - floor)[::-1]
        for i in range(remainder):
            floor[order[i]] += 1
        values = floor
    else:
        values = rng.multinomial(shots, probs)
    return Counts({k: int(v) for k, v in zip(keys, values) if v})
