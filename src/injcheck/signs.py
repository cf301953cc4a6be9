"""Sign vectors (also as bit masks), sign orthogonality, and sign-set rows.

Signs are the ints -1, 0, +1. As bit masks, a sign vector is (pos, neg).

Two sign vectors are orthogonal when their coordinatewise products are either
all zero or include both a -1 and a +1; this is exactly the condition for two
real vectors with those sign patterns to admit a zero inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence

Sign = int  # -1, 0, +1

_CHAR_OF_SIGN = {-1: "-", 0: "0", 1: "+"}
_SIGN_OF_CHAR = {"-": -1, "0": 0, "+": 1}


def sign_of(value) -> Sign:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


_SIGNS = frozenset((-1, 0, 1))


def _check_sign(s) -> Sign:
    if s not in (-1, 0, 1):
        raise ValueError(f"not a sign: {s!r}")
    return s


@dataclass(frozen=True)
class SignVector:
    entries: tuple[Sign, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        try:
            valid = _SIGNS.issuperset(entries)
        except TypeError:  # an unhashable entry
            valid = False
        if not valid:
            for s in entries:
                _check_sign(s)  # raises on the first bad entry
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_masks(cls, pos: int, neg: int, n: int) -> "SignVector":
        """The length-n sign vector that is +1 on the bits of pos, -1 on neg."""
        return cls(tuple((pos >> i & 1) - (neg >> i & 1) for i in range(n)))

    def __str__(self) -> str:
        return "".join(_CHAR_OF_SIGN[s] for s in self.entries)

    def __repr__(self) -> str:
        return f"SignVector({self})"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Sign:
        return self.entries[i]

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(-s for s in self.entries))

    def is_zero(self) -> bool:
        return all(s == 0 for s in self.entries)


def sigma(x: Sequence) -> SignVector:
    """Componentwise sign of an exact rational vector."""
    return SignVector(tuple(sign_of(v) for v in x))


def sign_text(pos: int, neg: int, n: int) -> str:
    """`str(SignVector.from_masks(pos, neg, n))`, without building the vector."""
    return "".join("+" if pos >> i & 1 else "-" if neg >> i & 1 else "0" for i in range(n))


def sign_masks(values: Sequence) -> tuple[int, int]:
    """The bit masks of the positive and of the negative entries."""
    return (sum(1 << i for i, v in enumerate(values) if v > 0),
            sum(1 << i for i, v in enumerate(values) if v < 0))


def _entries(v) -> tuple[Sign, ...]:
    if isinstance(v, SignVector):
        return v.entries
    return tuple(_check_sign(int(s)) for s in v)


def sign_orthogonal(tau, rho) -> bool:
    """Can vectors with these sign patterns have zero inner product?"""
    a, b = _entries(tau), _entries(rho)
    if len(a) != len(b):
        raise ValueError("length mismatch")
    products = [s * t for s, t in zip(a, b)]
    if all(p == 0 for p in products):
        return True
    return 1 in products and -1 in products


# ---------------------------------------------------------------------------
# sign sets

SignSet = FrozenSet[Sign]

_TOKEN_OF_SET = {
    frozenset(): "!",  # unsatisfiable entry; not parseable, only printable
    frozenset({0}): "0",
    frozenset({-1}): "-",
    frozenset({1}): "+",
    frozenset({-1, 0}): "-0",
    frozenset({0, 1}): "0+",
    frozenset({-1, 1}): "-+",
    frozenset({-1, 0, 1}): "*",
}


def parse_sign_set(token: str) -> SignSet:
    """Canonical tokens are 0 - + -0 0+ -+ *, but any character order works."""
    if token == "*":
        return frozenset({-1, 0, 1})
    if token and all(c in _SIGN_OF_CHAR for c in token) and len(set(token)) == len(token):
        return frozenset(_SIGN_OF_CHAR[c] for c in token)
    raise ValueError(
        f"bad sign-set token {token!r} (expected one of 0 - + -0 0+ -+ *)"
    )


def format_sign_set(s: SignSet) -> str:
    try:
        return _TOKEN_OF_SET[frozenset(s)]
    except KeyError:
        raise ValueError(f"not a sign set: {s!r}") from None


def _achievable_products(w_i: SignSet, rho_i: Sign) -> frozenset:
    return frozenset(s * rho_i for s in w_i)


def signset_row_orthogonal_witness(w_row: Sequence[SignSet], rho) -> Optional[SignVector]:
    """A concrete tau in the row's sign sets with tau . rho = 0, or None.

    Deterministic: the all-zero-products choice is preferred; otherwise the
    lexicographically first coordinate pair supplying -1 and +1 is used and the
    rest aim for product 0 where possible.
    """
    r = _entries(rho)
    if len(w_row) != len(r):
        raise ValueError("length mismatch")
    prods = [_achievable_products(w, s) for w, s in zip(w_row, r)]

    def pick_for_product(w: SignSet, rho_i: Sign, target: Sign) -> Sign:
        choices = sorted(s for s in w if s * rho_i == target)
        return choices[0]

    if all(0 in p for p in prods):
        return SignVector(tuple(pick_for_product(w, s, 0) for w, s in zip(w_row, r)))
    neg = [i for i, p in enumerate(prods) if -1 in p]
    pos = [i for i, p in enumerate(prods) if 1 in p]
    for i in neg:
        for j in pos:
            if i == j:
                continue
            out = []
            for k, (w, s) in enumerate(zip(w_row, r)):
                if k == i:
                    out.append(pick_for_product(w, s, -1))
                elif k == j:
                    out.append(pick_for_product(w, s, 1))
                elif 0 in prods[k]:
                    out.append(pick_for_product(w, s, 0))
                else:
                    out.append(sorted(w)[0])
            return SignVector(tuple(out))
    return None


def _row_masks(W) -> list[tuple[int, int, int]]:
    """Per row of a sign-set matrix, the masks of the columns whose set holds +1, -1, 0."""
    masks = []
    for row in W.entries:
        m = [0, 0, 0]  # indexed by the sign: m[1], m[-1], m[0]
        for j, s in enumerate(row):
            for sign in s:
                m[sign] |= 1 << j
        masks.append((m[1], m[-1], m[0]))
    return masks


def _concordant_rows(masks: list[tuple[int, int, int]], P: int, N: int) -> tuple[int, int, int]:
    """For the tau with masks P, N (by `sign_masks`): the masks of the rows of
    W (by `_row_masks`) that pass against it with rho_i = +1 and -1, and of
    those that fail with rho_i = 0. up and down hold the j where some s in
    w_ij makes s * tau_j = +1 and -1; rho_i = 0 needs products 0 throughout
    (supp tau inside zero), or a +1 and a -1 at two distinct coordinates."""
    up_ok = down_ok = zero_fails = 0
    for i, (plus, minus, zero) in enumerate(masks):
        up, down = P & plus | N & minus, P & minus | N & plus
        orthogonal = not (P | N) & ~zero or up and down and (up != down or up & (up - 1))
        up_ok |= bool(up) << i
        down_ok |= bool(down) << i
        zero_fails |= (not orthogonal) << i
    return up_ok, down_ok, zero_fails


def _passes(rows: tuple[int, int, int], pos: int, neg: int) -> bool:
    """Does the rho with masks pos, neg pass the test whose rows are `_concordant_rows`?"""
    up_ok, down_ok, zero_fails = rows
    return not (pos & ~up_ok or neg & ~down_ok or zero_fails & ~(pos | neg))
