"""Exact symbolic algebra of Majorana operator products.

A lattice of ``V`` sites with ``p`` fermionic modes per site carries
``2*p*V`` Majorana operators m_j^a (site j in [1..V], Majorana index
a in [1..2p]) obeying {m_x, m_y} = 2*delta_{x,y}.  Every operator on the
Fock space can be expanded uniquely in products of distinct Majorana
operators written in a fixed canonical order.

This module implements that algebra exactly:

* a Majorana monomial ("word") is encoded as an integer bitmask over the
  ``2*p*V`` global positions, with bit ``(site-1)*2p + (a-1)``;
* products track anti-commutation signs with popcount arithmetic;
* :func:`relabel_word` moves a word's Majoranas between sites and
  re-canonicalizes it; :meth:`OperatorExpansion.relabel` applies it to a
  whole expansion, and site permutations and the placement of k-site
  templates on site tuples go through that (a reduction keeps sites 1..k,
  so another site set is a permutation away);
* :class:`OperatorExpansion` holds sparse complex linear combinations and
  supports products, adjoints, site permutations and parity projections.

All values are immutable after construction; every operation returns a
new object, so sharing across threads is safe.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: After every arithmetic operation a coefficient c is dropped when the
#: expectation value it stands for, c * 2^(pV), is at most this.  A state's
#: coefficients are expectations over 2^(pV), so a cut on c itself would
#: erase large states.  Far below all verification tolerances.
PRUNE_THRESHOLD = 1e-14

ModeIndex = Tuple[int, int]


@dataclass(frozen=True, order=True)
class SystemShape:
    """Lattice geometry: ``sites`` sites with ``modes_per_site`` modes each."""

    sites: int
    modes_per_site: int

    def __post_init__(self):
        if self.sites < 1 or self.modes_per_site < 1:
            raise ValueError(
                "shape requires sites >= 1 and modes_per_site >= 1, got "
                f"({self.sites}, {self.modes_per_site})")

    @property
    def total_modes(self) -> int:
        return self.sites * self.modes_per_site

    @property
    def majorana_count(self) -> int:
        return 2 * self.total_modes

    @property
    def fock_dim(self) -> int:
        return 2 ** self.total_modes

    def bit_position(self, site: int, majorana_index: int) -> int:
        """Global bit position of m_site^majorana_index (lexicographic order)."""
        if not 1 <= site <= self.sites:
            raise ValueError(f"site {site} out of range [1..{self.sites}]")
        if not 1 <= majorana_index <= 2 * self.modes_per_site:
            raise ValueError(
                f"majorana index {majorana_index} out of range "
                f"[1..{2 * self.modes_per_site}]")
        return (site - 1) * 2 * self.modes_per_site + (majorana_index - 1)

    def index_of_bit(self, position: int) -> ModeIndex:
        """Inverse of :meth:`bit_position`."""
        if not 0 <= position < self.majorana_count:
            raise ValueError(f"bit position {position} out of range")
        site, rem = divmod(position, 2 * self.modes_per_site)
        return (site + 1, rem + 1)

    def site_bitmask(self, site: int) -> int:
        """Mask covering all Majorana positions of one site."""
        width = 2 * self.modes_per_site
        return ((1 << width) - 1) << ((site - 1) * width)


def reversal_sign(length: int) -> int:
    """Sign (-1)^(r(r-1)/2) picked up when reversing a length-r word."""
    return -1 if length % 4 in (2, 3) else 1


def merge_bitmasks(left: int, right: int) -> Tuple[int, int]:
    """Multiply two canonical words given as bitmasks.

    Returns ``(sign, mask)`` with ``mask = left XOR right`` (repeated
    Majoranas cancel through m^2 = 1) and ``sign`` the accumulated
    anti-commutation sign.
    """
    sign = 1
    acc = left
    rem = right
    while rem:
        low = rem & -rem
        pos = low.bit_length() - 1
        if (acc >> (pos + 1)).bit_count() & 1:
            sign = -sign
        acc ^= low
        rem ^= low
    return sign, acc


def canonicalize_positions(positions: Iterable[int]) -> Tuple[int, int]:
    """Canonicalize a written product of Majorana positions.

    The input sequence is an arbitrary (possibly repeating, unordered)
    product read left to right.  Returns ``(sign, mask)`` such that the
    product equals ``sign`` times the strictly increasing word ``mask``.
    """
    sign = 1
    acc = 0
    for pos in positions:
        if pos < 0:
            raise ValueError(f"negative Majorana position {pos}")
        if (acc >> (pos + 1)).bit_count() & 1:
            sign = -sign
        acc ^= 1 << pos
    return sign, acc


def canonicalize(indices: Sequence[ModeIndex], shape: SystemShape) -> Tuple[int, int]:
    """Canonicalize a product of Majoranas given as (site, majorana_index) pairs.

    Returns ``(phase, word_mask)`` with phase in {+1, -1}; equal adjacent
    pairs cancel through m^2 = 1 and the remaining indices are sorted into
    the lexicographic (site, majorana_index) order.
    """
    return canonicalize_positions(
        shape.bit_position(site, mi) for site, mi in indices)


def word_indices(mask: int, shape: SystemShape) -> Tuple[ModeIndex, ...]:
    """Decode a word bitmask into its ordered (site, majorana_index) pairs."""
    out = []
    rem = mask
    while rem:
        low = rem & -rem
        out.append(shape.index_of_bit(low.bit_length() - 1))
        rem ^= low
    return tuple(out)


def site_blocks(mask: int, width: int) -> Tuple[int, ...]:
    """The word's nonzero per-site Majorana blocks (``width`` = 2p bits
    each), in site order."""
    full = (1 << width) - 1
    blocks = []
    while mask:
        block = mask & full
        if block:
            blocks.append(block)
        mask >>= width
    return tuple(blocks)


def site_parity_is_even(mask: int, shape: SystemShape, site: int) -> bool:
    """Whether the word contains an even number of Majoranas on ``site``."""
    return (mask & shape.site_bitmask(site)).bit_count() % 2 == 0


def even_on_all_sites(mask: int, shape: SystemShape) -> bool:
    return not any(block.bit_count() & 1 for block in
                   site_blocks(mask, 2 * shape.modes_per_site))


def validate_permutation(pi: Sequence[int], sites: int) -> Tuple[int, ...]:
    """Check that ``pi`` (1-indexed images, pi[j-1] = image of site j) is a
    bijection on [1..sites] and return it as a tuple."""
    pi = tuple(pi)
    if sorted(pi) != list(range(1, sites + 1)):
        raise ValueError(f"not a permutation of [1..{sites}]: {pi}")
    return pi


def relabel_word(mask: int, site_map: Sequence[int], shape: SystemShape
                 ) -> Tuple[int, int, bool]:
    """Move every Majorana of a canonical word on ``shape`` from site s to
    site ``site_map[s-1]`` (1-indexed, possibly sites of a larger shape with
    the same modes per site).

    The mapped positions are taken in the word's written order and
    re-canonicalized.  Returns ``(sign, mask, order_preserved)``, where
    ``order_preserved`` says that the mapped positions strictly increase,
    so that no reordering sign arose.
    """
    width = 2 * shape.modes_per_site
    mapped = []
    rem = mask
    while rem:
        low = rem & -rem
        site, r = divmod(low.bit_length() - 1, width)
        mapped.append((site_map[site] - 1) * width + r)
        rem ^= low
    sign, out = canonicalize_positions(mapped)
    return sign, out, all(a < b for a, b in zip(mapped, mapped[1:]))


class OperatorExpansion:
    """A sparse complex linear combination of canonical Majorana words.

    ``terms`` maps word bitmasks to complex coefficients; the empty word
    (mask 0) is the identity.  Instances are treated as immutable: all
    arithmetic returns new expansions and prunes the coefficients whose
    expectation value is at most :data:`PRUNE_THRESHOLD`.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: SystemShape, terms: Dict[int, complex] | None = None):
        self.shape = shape
        cleaned: Dict[int, complex] = {}
        if terms:
            limit = 1 << shape.majorana_count
            prune = PRUNE_THRESHOLD / shape.fock_dim  # exact: a power of two
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(
                        f"word {bin(mask)} outside shape {shape}")
                c = complex(coeff)
                if abs(c) > prune:
                    cleaned[mask] = cleaned.get(mask, 0.0) + c
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, shape: SystemShape, coeff: complex = 1.0) -> "OperatorExpansion":
        return cls(shape, {0: coeff})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "OperatorExpansion") -> "OperatorExpansion":
        self._check_shape(other)
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, 0.0) + coeff
        return OperatorExpansion(self.shape, terms)

    def __sub__(self, other: "OperatorExpansion") -> "OperatorExpansion":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "OperatorExpansion":
        return OperatorExpansion(
            self.shape, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorExpansion):
            return self.multiply(other)
        return OperatorExpansion(
            self.shape, {m: other * c for m, c in self.terms.items()})

    def __neg__(self) -> "OperatorExpansion":
        return (-1.0) * self

    # -- algebra -----------------------------------------------------------

    def multiply(self, other: "OperatorExpansion") -> "OperatorExpansion":
        """Operator product, distributing over terms with sign tracking."""
        self._check_shape(other)
        terms: Dict[int, complex] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, mask = merge_bitmasks(m1, m2)
                terms[mask] = terms.get(mask, 0.0) + sign * c1 * c2
        return OperatorExpansion(self.shape, terms)

    def adjoint(self) -> "OperatorExpansion":
        """Hermitian adjoint: coefficients conjugated, words reversed."""
        return OperatorExpansion(
            self.shape,
            {m: reversal_sign(m.bit_count()) * c.conjugate()
             for m, c in self.terms.items()})

    def relabel(self, site_map: Sequence[int],
                shape: SystemShape) -> "OperatorExpansion":
        """Every word moved by :func:`relabel_word` onto ``shape``: the
        Majoranas of site s go to site ``site_map[s-1]``, and words that
        land on the same canonical word have their signed coefficients
        summed in term order."""
        terms: Dict[int, complex] = {}
        for mask, coeff in self.terms.items():
            sign, new_mask, _ = relabel_word(mask, site_map, self.shape)
            terms[new_mask] = terms.get(new_mask, 0.0) + sign * coeff
        return OperatorExpansion(shape, terms)

    def apply_permutation(self, pi: Sequence[int]) -> "OperatorExpansion":
        """Relabel sites by the permutation ``pi`` (1-indexed images)."""
        return self.relabel(validate_permutation(pi, self.shape.sites),
                            self.shape)

    def parity_project(self, site: int, sign: str) -> "OperatorExpansion":
        """Keep words whose Majorana count on ``site`` is even ('+') or odd ('-')."""
        if sign not in ("+", "-"):
            raise ValueError(f"parity sign must be '+' or '-', got {sign!r}")
        if not 1 <= site <= self.shape.sites:
            raise ValueError(f"site {site} out of range")
        want_even = sign == "+"
        return OperatorExpansion(
            self.shape,
            {m: c for m, c in self.terms.items()
             if site_parity_is_even(m, self.shape, site) == want_even})

    def even_channel(self) -> "OperatorExpansion":
        """Composition of all single-site even-parity pinchings.

        Keeps exactly the words that are even on every site; on states this
        is a trace-preserving quantum channel.
        """
        return OperatorExpansion(
            self.shape,
            {m: c for m, c in self.terms.items()
             if even_on_all_sites(m, self.shape)})

    # -- scalars -----------------------------------------------------------

    def trace(self) -> complex:
        """Trace in the Fock representation (only the identity contributes)."""
        return self.terms.get(0, 0.0) * self.shape.fock_dim

    def expectation(self, mask: int) -> complex:
        """tr(self * word).  Nonzero only for the matching word, since
        distinct canonical words are trace orthogonal."""
        coeff = self.terms.get(mask)
        if coeff is None:
            return 0.0
        return coeff * reversal_sign(mask.bit_count()) * self.shape.fock_dim

    def is_close(self, other: "OperatorExpansion") -> bool:
        """Whether every coefficient is within 1e-12 of ``other``'s."""
        return self.max_coeff_diff(other) <= 1e-12

    def max_coeff_diff(self, other: "OperatorExpansion") -> float:
        self._check_shape(other)
        keys = self.terms.keys() | other.terms.keys()
        if not keys:
            return 0.0
        return max(abs(self.terms.get(m, 0.0) - other.terms.get(m, 0.0))
                   for m in keys)

    def _check_shape(self, other: "OperatorExpansion"):
        if self.shape != other.shape:
            raise ValueError(
                f"shape mismatch: {self.shape} vs {other.shape}")

    def __iter__(self) -> Iterator[Tuple[int, complex]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"OperatorExpansion(shape={self.shape}, terms={n})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask, coeff in sorted(self.terms.items()):
            word = "1" if mask == 0 else "".join(
                f"m[{s},{a}]" for s, a in word_indices(mask, self.shape))
            parts.append(f"({coeff:.6g})*{word}")
        return " + ".join(parts)


# -- text serialization (fixture format) -----------------------------------

def expansion_to_text(op: OperatorExpansion) -> str:
    """Serialize one term per line: ``coeff_re coeff_im (j1,a1)(j2,a2)...``.

    The identity word is written as ``1``.  Terms are sorted by word mask
    so output is deterministic.
    """
    lines = []
    for mask, coeff in sorted(op.terms.items()):
        if mask == 0:
            word = "1"
        else:
            word = "".join(f"({s},{a})"
                           for s, a in word_indices(mask, op.shape))
        lines.append(f"{coeff.real:.17g} {coeff.imag:.17g} {word}")
    return "\n".join(lines) + "\n"


def expansion_from_text(text: str, shape: SystemShape) -> OperatorExpansion:
    """Parse the fixture text format produced by :func:`expansion_to_text`.

    Malformed input is rejected with ``ValueError`` naming its line and
    token: a coefficient that is not a finite number, a word token that is
    not ``(site,index)`` with integers, or an index outside ``shape``.
    """
    terms: Dict[int, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 're im word', got {raw!r}")
        re_part, im_part, word = fields
        parts = []
        for token in (re_part, im_part):
            try:
                parts.append(float(token))
            except ValueError:
                raise ValueError(f"line {lineno}: coefficient token "
                                 f"{token!r} is not a number") from None
        coeff = complex(*parts)
        if not cmath.isfinite(coeff):
            raise ValueError(f"line {lineno}: coefficient {coeff} is not "
                             "finite")
        if word == "1":
            mask = 0
            sign = 1
        else:
            indices = []
            body = word.replace(")(", ");(")
            for chunk in body.split(";"):
                chunk = chunk.strip()
                try:
                    if not (chunk.startswith("(") and chunk.endswith(")")):
                        raise ValueError
                    site, index = map(int, chunk[1:-1].split(","))
                except ValueError:
                    raise ValueError(f"line {lineno}: word token {chunk!r} is "
                                     "not (site,index) with integers") from None
                try:
                    shape.bit_position(site, index)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: word token {chunk!r}: "
                                     f"{exc}") from None
                indices.append((site, index))
            sign, mask = canonicalize(indices, shape)
        terms[mask] = terms.get(mask, 0.0) + sign * coeff
    return OperatorExpansion(shape, terms)


def random_expansions(shape: SystemShape, rng, count: int, n_terms: int = 5,
                      max_degree: int | None = None
                      ) -> List[OperatorExpansion]:
    """``count`` random sparse expansions of ``n_terms`` drawn words each.

    A word's degree is uniform in [0, max_degree] (at most every Majorana
    of the shape); the word is a uniform subset of that size, the positions
    whose rank in a uniform random order falls below the degree; its
    coefficient is complex standard normal.  Repeated words of one
    expansion are summed.  All draws are three vectorized ``rng`` calls.
    """
    nbits = shape.majorana_count
    max_degree = nbits if max_degree is None else min(max_degree, nbits)
    degrees = rng.integers(0, max_degree + 1, size=(count, n_terms, 1))
    order = rng.random((count, n_terms, nbits)).argsort(axis=-1)
    ranks = order.argsort(axis=-1)
    # Object weights keep the masks exact Python ints at any width.
    masks = ((ranks < degrees)
             @ np.array([1 << pos for pos in range(nbits)], dtype=object))
    coeffs = rng.standard_normal((count, n_terms, 2)).view(np.complex128)
    out = []
    for row_masks, row_coeffs in zip(masks.tolist(),
                                      coeffs[..., 0].tolist()):
        terms: Dict[int, complex] = {}
        for mask, coeff in zip(row_masks, row_coeffs):
            terms[mask] = terms.get(mask, 0.0) + coeff
        out.append(OperatorExpansion(shape, terms))
    return out
