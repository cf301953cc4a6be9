"""Input generators for the four benchmark workloads.

Each workload is a fixed pool of base problems, drawn once from a constant
seed; the run's --seed picks how each problem is presented. A presentation
changes the input text but neither the answer nor the order of coordinates:
class rows are permuted (where no left matrix indexes them), the basis of S is
permuted and negated, and reaction species are renamed. So
  * the reference verdict recorded for each pool item holds for every seed;
  * the work a pool costs is the same for every seed. The sign sweeps are
    lexicographic in the ambient coordinates, and permuting those changes
    which witness is met first; the cost of single problems then moves by up
    to 10x and the pool's by 30% from seed to seed, which would hide any
    regression below that size. Run-to-run spread therefore measures the
    machine, not luck in the draw;
  * a change that caches answers by input text cannot reuse them across
    seeds.
Item k of a pool always has the same shape (sizes, class kind, subspace
dimension); the shapes are listed below per workload.

The library only sees text in its own formats (matrix text, interval-box
text, sign-set text, network text), parsed by its public parsers in `build`.
No generated input is ever dropped because of how the program handles it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import injcheck
from injcheck.classes import parse_interval_box_text, parse_signsets_text
from injcheck.linalg import parse_matrix_text


@dataclass(frozen=True)
class Item:
    """One generated input; `spec` holds only text."""

    name: str
    spec: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    base: Callable[[random.Random], list]                      # the fixed base problems
    present: Callable[[object, random.Random], list[Item]]     # one base problem's inputs
    falsify_trials: int                                        # per INJECTIVE verdict

    def base_pool(self) -> list:
        return self.base(random.Random(f"injcheck-perfbench/{self.name}"))

    def generate(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        return [item for problem in self.base_pool() for item in self.present(problem, rng)]


# ---------------------------------------------------------------------------
# matrix-class problems


@dataclass(frozen=True)
class MatrixProblem:
    """A class on a subspace, entries as text tokens. For a product, `grid`
    is the inner class and `head` the numeric head."""

    name: str
    kind: str                               # scaled | pattern | signsets | interval
    grid: list[list[str]]                   # class rows x n
    V: Optional[list[list[int]]] = None     # image basis of S (n x d); None: S is full
    left: Optional[list[list[str]]] = None  # left matrix, k x class rows
    head: Optional[list[list[str]]] = None  # numeric head of a product, k x class rows


def present_matrix_problem(p: MatrixProblem, rng: random.Random) -> list[Item]:
    """Permute the class rows (or, for a product, the rows of the numeric
    head) unless a left matrix indexes them, and permute and negate the basis
    vectors of S. Neither changes the class acting on S, nor S itself."""
    head = p.grid if p.head is None else p.head
    rows = list(range(len(head)))
    if p.left is None:
        rng.shuffle(rows)
    head = _text([head[i] for i in rows])
    if p.head is None:
        spec = [("kind", p.kind), ("class", head)]
    else:
        spec = [("kind", "product"), ("inner_kind", p.kind), ("inner", _text(p.grid)),
                ("head", head)]
    if p.left is not None:
        spec.append(("A", _text(p.left)))
    if p.V is None:
        spec.append(("S", "full"))
    else:
        cols = list(range(len(p.V[0])))
        rng.shuffle(cols)
        signs = [rng.choice((-1, 1)) for _ in cols]
        spec.append(("S", "im:" + _text([[s * row[j] for j, s in zip(cols, signs)]
                                          for row in p.V])))
    return [Item(p.name, tuple(spec))]


def _text(grid) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in grid)


def _ints(rng: random.Random, rows: int, cols: int, lo: int, hi: int,
          zero_share: float = 0.0) -> list[list[str]]:
    return [[str(0 if rng.random() < zero_share else rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def _basis(rng: random.Random, n: int, d: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]


def _interval_token(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.25:
        return "{0}"
    if r < 0.45:
        return "{" + str(rng.choice((-3, -2, -1, 1, 2, 3))) + "}"
    if r < 0.7:
        return rng.choice(("(0,inf)", "(-inf,0)"))
    a = rng.randint(-3, 2)
    return f"[{a},{rng.randint(a + 1, 3)}]"


def _triangular(rng: random.Random, n: int, kind: str) -> list[list[str]]:
    """Upper triangular with positive diagonal: every member is nonsingular,
    so the class is INJECTIVE on every subspace and the sweep runs to the end."""
    if kind == "scaled":
        return [[str(rng.randint(1, 3)) if i == j else str(rng.randint(-2, 2)) if j > i else "0"
                 for j in range(n)] for i in range(n)]
    return [["(0,inf)" if i == j else _interval_token(rng) if j > i else "{0}"
             for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# sign_sweep: non-square problems decided by the sign sweep

# (n, dim S, class kind, class rows, left-matrix rows or 0, triangular).
# Class rows never equal dim S (that case is square and goes to the
# determinant route); rows below dim S make every member singular on S.
_SIGN_SHAPES = (
    (5, 2, "scaled", 3, 0, False), (5, 3, "scaled", 2, 0, False),
    (5, 2, "scaled", 4, 3, False), (5, 3, "scaled", 5, 0, True),
    (5, 2, "interval", 3, 0, False), (5, 3, "interval", 4, 0, False),
    (5, 4, "scaled", 5, 0, True), (6, 2, "scaled", 3, 0, False),
    (6, 2, "scaled", 6, 0, True), (5, 4, "scaled", 3, 0, False),
    (5, 2, "interval", 5, 0, True), (5, 3, "scaled", 4, 2, False),
    (6, 2, "interval", 3, 0, False), (6, 5, "scaled", 4, 0, False),
    (5, 3, "scaled", 3, 4, False), (5, 4, "interval", 5, 0, False),
    (5, 2, "scaled", 1, 0, False), (5, 2, "interval", 4, 0, False),
    (5, 3, "scaled", 4, 0, False), (5, 2, "scaled", 5, 0, True),
)


def base_sign_sweep(rng: random.Random) -> list[MatrixProblem]:
    out = []
    for k, (n, d, kind, rows, left_rows, triangular) in enumerate(_SIGN_SHAPES):
        if triangular:
            grid = _triangular(rng, n, kind)
        elif kind == "scaled":
            grid = _ints(rng, rows, n, -2, 2, zero_share=0.3)
        else:
            grid = [[_interval_token(rng) for _ in range(n)] for _ in range(rows)]
        left = _ints(rng, left_rows, rows, -2, 2, zero_share=0.2) if left_rows else None
        out.append(MatrixProblem(f"p{k}/{kind}-{rows}x{n}-dim{d}", kind, grid,
                                 _basis(rng, n, d), left))
    return out


# ---------------------------------------------------------------------------
# det_square: square problems decided by the determinant route


def _sparse_pattern(rng: random.Random, n: int, density: float) -> list[list[str]]:
    return [["+" if i == j else rng.choice("+-") if rng.random() < density else "0"
             for j in range(n)] for i in range(n)]


def _box(rng: random.Random, n: int, free: int) -> list[list[str]]:
    cells = set(rng.sample(range(n * n), free))
    tokens = []
    for c in range(n * n):
        a = rng.randint(-2, 3)
        tokens.append(f"[{a},{a + rng.randint(1, 3)}]" if c in cells else "{" + str(a) + "}")
    return [tokens[i * n:(i + 1) * n] for i in range(n)]


_DET_SLOTS = ("scaled", "pattern", "box3", "product", "scaled",
              "pattern", "box3", "product", "box4", "box3")


def base_det_square(rng: random.Random) -> list[MatrixProblem]:
    """30 problems: six scaled n x n (n = 4..6), six sparse sign patterns
    (6..8), nine closed 3x3 boxes (9 free entries), three 4x4 boxes (9, 10
    and 11 free entries) and six products of a numeric 3x4 head with a 4x3
    scaled or sign-pattern class."""
    out = []
    for k in range(30):
        slot = _DET_SLOTS[k % len(_DET_SLOTS)]
        if slot == "scaled":
            n = 4 + k % 3
            out.append(MatrixProblem(f"q{k}/scaled-{n}x{n}", "scaled",
                                     _ints(rng, n, n, -2, 2, zero_share=0.35)))
        elif slot == "pattern":
            n = 6 + k % 3
            out.append(MatrixProblem(f"q{k}/pattern-{n}x{n}", "pattern",
                                     _sparse_pattern(rng, n, 0.25)))
        elif slot == "box3":
            out.append(MatrixProblem(f"q{k}/box-3x3-free9", "interval", _box(rng, 3, 9)))
        elif slot == "box4":
            free = 9 + k // 10
            out.append(MatrixProblem(f"q{k}/box-4x4-free{free}", "interval", _box(rng, 4, free)))
        else:
            kind = "pattern" if k % 2 else "scaled"
            inner = ([[rng.choice("+-0") for _ in range(3)] for _ in range(4)]
                     if kind == "pattern" else _ints(rng, 4, 3, -2, 2, zero_share=0.2))
            out.append(MatrixProblem(f"q{k}/product-head-{kind}", kind, inner,
                                     head=_ints(rng, 3, 4, -2, 2)))
    return out


# ---------------------------------------------------------------------------
# falsify_audit: many small classes, each INJECTIVE verdict falsified

_SIGN_TOKENS = ("+", "-", "0", "+", "-", "0+", "-0", "-+")


def base_falsify_audit(rng: random.Random) -> list[MatrixProblem]:
    """150 classes of size 2x2 and 3x3, cycling through sign sets (with
    multi-sign entries), sign patterns, scaled, intervals and scaled behind a
    left matrix; every seventh lives on a hyperplane instead of the full space."""
    out = []
    for k in range(150):
        n = 2 + k % 2
        slot = (k // 2) % 5
        left = None
        if slot == 0:
            kind, grid = "signsets", [[rng.choice(_SIGN_TOKENS) for _ in range(n)]
                                      for _ in range(n)]
        elif slot == 1:
            kind, grid = "pattern", [[rng.choice("+-0") for _ in range(n)] for _ in range(n)]
        elif slot == 2:
            kind, grid = "scaled", _ints(rng, n, n, -2, 2, zero_share=0.25)
        elif slot == 3:
            kind, grid = "interval", [[_interval_token(rng) for _ in range(n)] for _ in range(n)]
        else:
            kind, grid = "scaled", _ints(rng, n + 1, n, -2, 2, zero_share=0.25)
            left = _ints(rng, n, n + 1, -2, 2)
        V = _basis(rng, n, n - 1) if k % 7 == 3 else None
        out.append(MatrixProblem(f"c{k}/{kind}-{n}x{n}", kind, grid, V, left))
    return out


# ---------------------------------------------------------------------------
# crn_screen: reaction networks under the four kinetics modes

_SPECIES = "ABCDE"
_NAMES = ("A", "B", "C", "D", "E", "X", "Y", "Z", "P", "Q", "S1", "S2", "ATP", "ADP", "Enz")
_ORDERS = ("1/2", "1", "3/2", "2")
_INFLUENCES = ("+", "0+", "-", "-0")
CRN_MODES = ("mass-action", "power-law", "monotonic-strict", "monotonic-weak")


@dataclass(frozen=True)
class NetworkProblem:
    """One network; `lines` holds (label, reactants, products, reversible,
    orders, power-law orders per direction), a complex being a list of
    (coefficient, species) pairs."""

    name: str
    lines: list
    influence: Optional[tuple[str, str, str]]  # (reaction label, species, sign set)


def _complex(rng: random.Random, species: str) -> list[tuple[int, str]]:
    if rng.random() < 0.15:
        return []
    names = rng.sample(species, min(rng.choice((1, 1, 2)), len(species)))
    return [(rng.choice((1, 1, 2)), s) for s in names]


def base_crn_screen(rng: random.Random) -> list[NetworkProblem]:
    """40 networks; network k has 2 + k % 4 species and 2 + k % 5 reactions
    (a reversible line counts twice), but 6 reactions only with 4 or 5
    species: 6 reactions on 2 or 3 species leave a reaction kernel of
    dimension 3 or more, whose sign vectors take up to seconds per network."""
    out = []
    for k in range(40):
        species = _SPECIES[:2 + k % 4]
        n_reactions = 2 + k % 5
        if n_reactions == 6 and len(species) < 4:
            n_reactions = 5
        lines = []
        count = 0
        while count < n_reactions:
            lhs = _complex(rng, species)
            rhs = _complex(rng, species)
            if sorted(lhs) == sorted(rhs):
                rhs = [(1, s) for s in species if (1, s) not in lhs][:1]
            reversible = count + 2 <= n_reactions and rng.random() < 0.35
            orders = None
            if lhs and not reversible and rng.random() < 0.3:
                orders = [(s, rng.choice(_ORDERS)) for _, s in lhs]
            power = [[(s, rng.choice(_ORDERS)) for _, s in side]
                     for side in ((lhs, rhs) if reversible else (lhs,))]
            lines.append((f"r{len(lines) + 1}", lhs, rhs, reversible, orders, power))
            count += 2 if reversible else 1
        influence = None
        if rng.random() < 0.5:
            used = sorted({s for line in lines for _, s in line[1] + line[2]})
            influence = (rng.choice(lines)[0], rng.choice(used), rng.choice(_INFLUENCES))
        out.append(NetworkProblem(f"net{k}", lines, influence))
    return out


def _side(pairs, rename) -> str:
    if not pairs:
        return "0"
    return " + ".join(rename[s] if c == 1 else f"{c} {rename[s]}" for c, s in pairs)


def _orders(pairs, rename) -> str:
    return " ".join(f"{rename[s]}={o}" for s, o in pairs)


def network_texts(net: NetworkProblem, rng: random.Random) -> dict[str, str]:
    """Network text per kinetics mode, with the species renamed (species keep
    their order of first appearance, which orders the coordinates).

    Mass-action: the reactions, some reversible, some with an orders clause.
    Power-law: every direction on its own line with an orders clause.
    Monotonic: the mass-action text plus the influence line, if any
    (influence lines are rejected under mass-action and power-law).
    """
    rename = dict(zip(_SPECIES, rng.sample(_NAMES, len(_SPECIES))))
    mass, power = [], []
    for label, lhs, rhs, reversible, orders, power_orders in net.lines:
        text = f"{label}: {_side(lhs, rename)} {'<->' if reversible else '->'} {_side(rhs, rename)}"
        mass.append(text + (f" : orders {_orders(orders, rename)}" if orders else ""))
        directions = [(label, lhs, rhs)] + ([(label + "_rev", rhs, lhs)] if reversible else [])
        for (lab, a, b), clause in zip(directions, power_orders):
            power.append(f"{lab}: {_side(a, rename)} -> {_side(b, rename)} : orders "
                         f"{_orders(clause, rename)}".rstrip())
    monotonic = list(mass)
    if net.influence is not None:
        label, species, token = net.influence
        monotonic.append(f"influence {label}: {rename[species]}={token}")
    texts = {"mass-action": mass, "power-law": power,
             "monotonic-strict": monotonic, "monotonic-weak": monotonic}
    return {mode: "\n".join(t) + "\n" for mode, t in texts.items()}


def present_crn(net: NetworkProblem, rng: random.Random) -> list[Item]:
    """One presentation of a network, decided under each kinetics mode."""
    texts = network_texts(net, rng)
    return [Item(f"{net.name}/{mode}", (("kind", "crn"), ("mode", mode), ("network", texts[mode])))
            for mode in CRN_MODES]


# Why each workload is in the benchmark, and its verdict mix, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("crn_screen", base_crn_screen, present_crn, 200),
        Workload("sign_sweep", base_sign_sweep, present_matrix_problem, 200),
        Workload("det_square", base_det_square, present_matrix_problem, 200),
        Workload("falsify_audit", base_falsify_audit, present_matrix_problem, 1000),
    )
}


# ---------------------------------------------------------------------------
# text -> Problem through the package's public parsers


def _matrix_class(kind: str, text: str):
    if kind == "scaled":
        return injcheck.Scaled(parse_matrix_text(text))
    if kind == "interval":
        return injcheck.Interval(parse_interval_box_text(text))
    W = parse_signsets_text(text)
    if kind == "pattern":
        return injcheck.SignPattern(tuple(tuple(next(iter(s)) for s in row) for row in W.entries))
    return injcheck.SignSets(W)


def build(item: Item):
    """Parse one generated input into a Problem."""
    spec = dict(item.spec)
    if spec["kind"] == "crn":
        net = injcheck.parse_network(spec["network"])
        return injcheck.build_problem(net, injcheck.KineticsMode.parse(spec["mode"]))
    if spec["kind"] == "product":
        cls = injcheck.Product(parse_matrix_text(spec["head"]),
                               _matrix_class(spec["inner_kind"], spec["inner"]))
    else:
        cls = _matrix_class(spec["kind"], spec["class"])
    n = cls.cols
    if spec["S"] == "full":
        S = injcheck.Subspace.full(n)
    else:
        S = injcheck.Subspace.from_image(parse_matrix_text(spec["S"][3:]))
    left = parse_matrix_text(spec["A"]) if "A" in spec else None
    return injcheck.Problem(cls, S, left=left)
