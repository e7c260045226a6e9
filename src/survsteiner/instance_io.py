"""Instance file format and the seeded random instance generator.

Format, line by line ('#' comments and blank lines are skipped anywhere):

    <kind> <n> <m> <k>      header: problem kind, node/edge/terminal counts
    t <node>                exactly k terminal records
    e <u> <v> <cost> <S|U>  exactly m edge records, safe or unsafe

Costs travel as exact decimal strings (or p/q for non-decimal rationals);
binary floats never appear in the interchange format.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ParseError, SemanticError, SpecInfeasible
from .graph import Graph
from .kfst import FstInstance
from .oracle import oracle_feasible
from .solution import ProblemKind

_KINDS = {kind.value: kind for kind in ProblemKind}


def cost_text(value) -> str:
    """Exact decimal when the denominator divides a power of ten, else p/q."""
    c = Fraction(value)
    num, den = c.numerator, c.denominator
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    e = max(twos, fives)
    if e == 0:
        return str(num)
    scaled = num * 10**e // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(e + 1, "0")
    out = f"{sign}{digits[:-e]}.{digits[-e:]}".rstrip("0").rstrip(".")
    return out or "0"


def _cost_token(tok: str, lineno: int) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad cost {tok!r}", line=lineno) from exc


def read_instance(text: str) -> tuple[ProblemKind, FstInstance]:
    """Parse instance text into the header's problem kind plus the graph
    and terminal set."""
    header: tuple[ProblemKind, int, int, int] | None = None
    terms: list[int] = []
    edges: list[tuple[int, int, Fraction, bool]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 4:
                raise ParseError("header must be '<kind> <n> <m> <k>'", line=lineno)
            kind_tok = toks[0].lower()
            if kind_tok not in _KINDS:
                raise ParseError(f"unknown problem kind {toks[0]!r}", line=lineno)
            try:
                n, m, k = (int(t) for t in toks[1:])
            except ValueError as exc:
                raise ParseError("non-integer header field", line=lineno) from exc
            if n < 0 or m < 0 or k < 0:
                raise SemanticError("negative header field", line=lineno)
            header = (_KINDS[kind_tok], n, m, k)
            continue
        n = header[1]
        tag = toks[0].lower()
        if tag == "t":
            if len(toks) != 2:
                raise ParseError("terminal record must be 't <node>'", line=lineno)
            try:
                v = int(toks[1])
            except ValueError as exc:
                raise ParseError("non-integer terminal", line=lineno) from exc
            if not 0 <= v < n:
                raise SemanticError(f"terminal {v} out of range", line=lineno)
            if v in terms:
                raise SemanticError(f"duplicate terminal {v}", line=lineno)
            terms.append(v)
        elif tag == "e":
            if len(toks) != 5:
                raise ParseError("edge record must be 'e <u> <v> <cost> <S|U>'", line=lineno)
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError as exc:
                raise ParseError("non-integer endpoint", line=lineno) from exc
            if not (0 <= u < n and 0 <= v < n):
                raise SemanticError("endpoint out of range", line=lineno)
            if u == v:
                raise SemanticError("loop edges are not allowed", line=lineno)
            cost = _cost_token(toks[3], lineno)
            if cost < 0:
                raise SemanticError("negative cost", line=lineno)
            flag = toks[4].upper()
            if flag not in ("S", "U"):
                raise ParseError("safety flag must be S or U", line=lineno)
            edges.append((u, v, cost, flag == "S"))
        else:
            raise ParseError(f"unknown record type {toks[0]!r}", line=lineno)
    if header is None:
        raise ParseError("missing header", line=1)
    kind, n, m, k = header
    if len(terms) != k:
        raise SemanticError(f"expected {k} terminals, found {len(terms)}")
    if len(edges) != m:
        raise SemanticError(f"expected {m} edges, found {len(edges)}")
    return kind, FstInstance(Graph.build(n, edges), frozenset(terms))


def parse_instance(text: str) -> FstInstance:
    """Parse instance text into a graph plus terminal set."""
    return read_instance(text)[1]


def instance_kind(text: str) -> ProblemKind:
    """The problem kind named in the instance header."""
    return read_instance(text)[0]


def emit_instance(inst: FstInstance, kind: ProblemKind) -> str:
    g = inst.graph
    lines = [
        "# survsteiner instance",
        f"{kind.value} {g.n} {g.m} {len(inst.terminals)}",
    ]
    for t in sorted(inst.terminals):
        lines.append(f"t {t}")
    for e in g.edges:
        flag = "S" if e.safe else "U"
        lines.append(f"e {e.u} {e.v} {cost_text(e.cost)} {flag}")
    return "\n".join(lines) + "\n"


def generate_instance(spec: dict) -> str:
    """Seeded random instance with a planted feasible solution.

    Plants a cycle through all terminals (padded to three nodes or more),
    hangs every remaining node off the growing graph, then adds random
    noise edges up to m. The planted cycle is verified feasible for the
    requested kind before the text is emitted. Deterministic per seed.
    """
    kind = spec["kind"]
    if not isinstance(kind, ProblemKind):
        if kind not in _KINDS:
            raise SpecInfeasible(f"unknown problem kind {kind!r}")
        kind = _KINDS[kind]
    n, m, k = int(spec["n"]), int(spec["m"]), int(spec["k"])
    weighted = bool(spec.get("weighted", False))
    seed = int(spec.get("seed", 0))
    default_unsafe = 0.5 if kind is ProblemKind.KFST else 0.0
    unsafe_fraction = float(spec.get("unsafe_fraction", default_unsafe))

    if k < 2:
        raise SpecInfeasible("need at least two terminals")
    if n < max(3, k):
        raise SpecInfeasible(f"need at least {max(3, k)} nodes for {k} terminals")
    core = max(3, k)
    min_m = core + (n - core)
    if m < min_m:
        raise SpecInfeasible(
            f"m={m} cannot hold the planted cycle plus attachments (need >= {min_m})"
        )

    rng = random.Random(seed)
    terminals = sorted(rng.sample(range(n), k))
    others = [v for v in range(n) if v not in terminals]
    rng.shuffle(others)
    ring = terminals + others[: core - k]
    rng.shuffle(ring)

    edges: list[tuple[int, int, Fraction, bool]] = []

    def safety() -> bool:
        if kind is ProblemKind.TWO_ECS:
            return False
        if kind is ProblemKind.KFST:
            return rng.random() >= unsafe_fraction
        return True

    def cost() -> Fraction:
        return Fraction(rng.randint(0, 50)) if weighted else Fraction(1)

    for i, u in enumerate(ring):
        edges.append((u, ring[(i + 1) % len(ring)], cost(), safety()))
    planted = frozenset(range(len(edges)))

    grown = list(ring)
    for v in others[core - k :]:
        edges.append((rng.choice(grown), v, cost(), safety()))
        grown.append(v)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, cost(), safety()))

    g = Graph.build(n, edges)
    if not oracle_feasible(g, planted, terminals, kind):
        raise SpecInfeasible("planted solution failed its feasibility check")
    return emit_instance(FstInstance(g, frozenset(terminals)), kind)
