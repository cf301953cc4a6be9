"""Reaction networks as injectivity problems.

A network with n species and r (irreversible) reactions has the species
formation rate f(x) = N v(x), where N is the n-by-r stoichiometric matrix
(product minus reactant counts) and v collects the reaction rates. Two states
in the same stoichiometric compatibility class map to the same point exactly
when f identifies two points of a coset of S = im N, so the question "can this
network exhibit two such states, for any rate constants" is an injectivity
problem with left matrix N over S.

The rate laws pick the matrix class:

* mass action      v_j(x) = k_j x^(reactant row j)   -> positively scaled B
* power law        like mass action with explicit, possibly non-integer orders
* monotonic        v_j strictly increasing (or merely non-decreasing) in each
                   of its reactants -> one sign set per (reaction, species)

Network text, one statement per line ('#' starts a comment):

    A + 2 B -> 3 C
    fast: C <-> A : orders C=3/2
    influence fast: B=-0

A reversible arrow makes two reactions, <label> and <label>_rev; labels
default to r1, r2, ... by line order. An orders clause applies to the forward
direction only. Influence lines override monotonic sign sets entry by entry.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .classes import Scaled, SignSets, SignSetMatrix
from .injectivity import Problem
from .linalg import RationalMatrix, Subspace, parse_rational_token
from .signs import SignSet, format_sign_set, parse_sign_set

_ZERO = Fraction(0)


class KineticsMode(enum.Enum):
    MASS_ACTION = "mass-action"
    POWER_LAW = "power-law"
    MONOTONIC_STRICT = "monotonic-strict"
    MONOTONIC_WEAK = "monotonic-weak"

    @classmethod
    def parse(cls, text: str) -> "KineticsMode":
        key = text.strip().lower().replace("_", "-")
        aliases = {
            "strict": cls.MONOTONIC_STRICT,
            "weak": cls.MONOTONIC_WEAK,
            "mass": cls.MASS_ACTION,
        }
        if key in aliases:
            return aliases[key]
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(
            f"unknown kinetics {text!r}; pick one of "
            + ", ".join(m.value for m in cls)
        )


class NetworkTextError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Reaction:
    label: str
    reactants: tuple[tuple[str, Fraction], ...]   # (species, coefficient), coefficient > 0
    products: tuple[tuple[str, Fraction], ...]
    orders: Optional[tuple[tuple[str, Fraction], ...]] = None

    def reactant_coeff(self, species: str) -> Fraction:
        for s, c in self.reactants:
            if s == species:
                return c
        return _ZERO

    def product_coeff(self, species: str) -> Fraction:
        for s, c in self.products:
            if s == species:
                return c
        return _ZERO

    def order_of(self, species: str) -> Optional[Fraction]:
        if self.orders is None:
            return None
        for s, c in self.orders:
            if s == species:
                return c
        return _ZERO


@dataclass
class Network:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    influences: dict[tuple[str, str], SignSet] = field(default_factory=dict)

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def stoichiometric_matrix(self) -> RationalMatrix:
        return RationalMatrix(
            self.n_species, self.n_reactions,
            [[r.product_coeff(s) - r.reactant_coeff(s) for r in self.reactions]
             for s in self.species],
        )


_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_TERM = re.compile(r"^\s*(?:(\d+(?:/\d+)?)\s*)?([A-Za-z_][A-Za-z_0-9]*)\s*$")


def _parse_side(text: str, lineno: int) -> tuple[tuple[str, Fraction], ...]:
    text = text.strip()
    if text in ("", "0"):
        return ()
    out: dict[str, Fraction] = {}
    for piece in text.split("+"):
        m = _TERM.match(piece)
        if not m:
            raise NetworkTextError(lineno, f"cannot read species term {piece.strip()!r}")
        try:
            coeff = parse_rational_token(m.group(1)) if m.group(1) else Fraction(1)
        except ValueError as exc:
            raise NetworkTextError(lineno, str(exc)) from None
        if coeff <= 0:
            raise NetworkTextError(lineno, "stoichiometric coefficients must be positive")
        name = m.group(2)
        out[name] = out.get(name, _ZERO) + coeff
    return tuple(out.items())


def _parse_assignments(text: str, lineno: int, parse_value) -> list[tuple[str, object]]:
    out = []
    for piece in text.split():
        if "=" not in piece:
            raise NetworkTextError(lineno, f"expected name=value, got {piece!r}")
        name, _, raw = piece.partition("=")
        if not _NAME.match(name):
            raise NetworkTextError(lineno, f"bad species name {name!r}")
        try:
            out.append((name, parse_value(raw)))
        except ValueError as exc:
            raise NetworkTextError(lineno, str(exc)) from None
    return out


def parse_network(text: str) -> Network:
    species: list[str] = []
    seen: set[str] = set()
    reactions: list[Reaction] = []
    influences: dict[tuple[str, str], SignSet] = {}
    pending_influences: list[tuple[int, str, list]] = []
    labels_used: set[str] = set()
    auto = 0

    def note_species(pairs):
        for name, _ in pairs:
            if name not in seen:
                seen.add(name)
                species.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("influence"):
            rest = line[len("influence"):].strip()
            label, colon, assigns = rest.partition(":")
            label = label.strip()
            if not colon or not _NAME.match(label):
                raise NetworkTextError(lineno, "expected: influence <label> : <species>=<signs> ...")
            pairs = _parse_assignments(assigns, lineno, parse_sign_set)
            pending_influences.append((lineno, label, pairs))
            continue

        # optional leading "label :", then the reaction, then optional ": orders ..."
        parts = line.split(":")
        arrow_at = next((k for k, p in enumerate(parts) if "->" in p), None)
        if arrow_at is None:
            raise NetworkTextError(lineno, "no reaction arrow on this line")
        if arrow_at > 1 or len(parts) - arrow_at > 2:
            raise NetworkTextError(lineno, "too many ':' separators")
        label = None
        if arrow_at == 1:
            label = parts[0].strip()
            if not _NAME.match(label):
                raise NetworkTextError(lineno, f"bad reaction label {parts[0].strip()!r}")
        orders = None
        if len(parts) - arrow_at == 2:
            clause = parts[arrow_at + 1].strip()
            if not clause.startswith("orders"):
                raise NetworkTextError(lineno, "trailing clause must start with 'orders'")
            orders = tuple(_parse_assignments(clause[len("orders"):], lineno, parse_rational_token))
        body = parts[arrow_at]
        reversible = "<->" in body
        lhs, _, rhs = body.partition("<->" if reversible else "->")
        reactants = _parse_side(lhs, lineno)
        prods = _parse_side(rhs, lineno)
        if not reactants and not prods:
            raise NetworkTextError(lineno, "reaction with empty sides")
        note_species(reactants)
        note_species(prods)
        if label is None:
            auto += 1
            label = f"r{auto}"
        for lab in ([label, label + "_rev"] if reversible else [label]):
            if lab in labels_used:
                raise NetworkTextError(lineno, f"duplicate reaction label {lab!r}")
            labels_used.add(lab)
        if orders is not None:
            # a rate may depend on species outside the reaction arrow
            note_species(orders)
        reactions.append(Reaction(label, reactants, prods, orders))
        if reversible:
            reactions.append(Reaction(label + "_rev", prods, reactants, None))

    for lineno, label, pairs in pending_influences:
        if label not in labels_used:
            raise NetworkTextError(lineno, f"influence names unknown reaction {label!r}")
        for name, ss in pairs:
            if name not in seen:
                raise NetworkTextError(lineno, f"influence names unknown species {name!r}")
            influences[(label, name)] = ss

    if not reactions:
        raise NetworkTextError(0, "no reactions")
    return Network(tuple(species), tuple(reactions), influences)


def serialize_network(net: Network) -> str:
    def side(pairs) -> str:
        if not pairs:
            return "0"
        return " + ".join(f"{c} {s}" if c != 1 else s for s, c in pairs)

    lines = []
    for r in net.reactions:
        head = f"{r.label}: {side(r.reactants)} -> {side(r.products)}"
        if r.orders is not None:
            head += " : orders " + " ".join(f"{s}={c}" for s, c in r.orders)
        lines.append(head)
    by_label: dict[str, list[str]] = {}
    for (label, name), ss in net.influences.items():
        by_label.setdefault(label, []).append(f"{name}={format_sign_set(ss)}")
    for label in sorted(by_label):
        lines.append(f"influence {label}: " + " ".join(sorted(by_label[label])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# to an injectivity problem


def _order_matrix(net: Network, mode: KineticsMode) -> RationalMatrix:
    rows = []
    for r in net.reactions:
        if mode is KineticsMode.POWER_LAW and r.orders is None:
            raise ValueError(
                f"power-law kinetics needs an orders clause on reaction {r.label!r} "
                "(reverse directions need their own line)"
            )
        if r.orders is not None:
            rows.append([r.order_of(s) for s in net.species])
        else:
            rows.append([r.reactant_coeff(s) for s in net.species])
    return RationalMatrix(net.n_reactions, net.n_species, rows)


def _monotonic_signsets(net: Network, strict: bool) -> SignSetMatrix:
    base: SignSet = frozenset({1}) if strict else frozenset({0, 1})
    entries = []
    for r in net.reactions:
        row = []
        for s in net.species:
            if (r.label, s) in net.influences:
                row.append(net.influences[(r.label, s)])
            elif r.reactant_coeff(s) > 0:
                row.append(base)
            else:
                row.append(frozenset({0}))
        entries.append(tuple(row))
    return SignSetMatrix(tuple(entries))


def build_problem(net: Network, mode: KineticsMode) -> Problem:
    """Injectivity problem for the network under the given kinetics.

    States live in the open positive orthant and same-coset states are exactly
    the stoichiometrically compatible ones, so NOT_INJECTIVE witnesses point
    at two compatible states with equal formation rates (for some admissible
    rates), and INJECTIVE rules that out for all of them.
    """
    N = net.stoichiometric_matrix()
    S = Subspace.from_image(N)
    if mode in (KineticsMode.MASS_ACTION, KineticsMode.POWER_LAW):
        if net.influences:
            raise ValueError("influence lines only make sense with monotonic kinetics")
        cls = Scaled(_order_matrix(net, mode))
    elif mode is KineticsMode.MONOTONIC_STRICT:
        cls = SignSets(_monotonic_signsets(net, strict=True))
    else:
        cls = SignSets(_monotonic_signsets(net, strict=False))
    return Problem(cls, S, left=N,
                   note=f"{mode.value} rates on the open positive orthant")
