"""Boolean circuits to short GFs.

A circuit over r input bits is Tseitin-encoded as a 3-CNF over input bits and
gate bits, each clause's violation region is expressed with bit-extraction
systems over bounded integer variables, and the resulting quantifier-free
formula region inside a box becomes a short GF.  The accepted inputs are then
recovered as a specialization of the box complement of a projection, with the
projection realized by an exact brute-force oracle (a stand-in for the
polynomial-time polytope-projection algorithm, which is out of scope here).
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import prod

from .barvinok import enumerate_polytope_points
from .calculus import (
    TauMap,
    _project_points,
    choose_tau,
    compress,
    evaluate_at_one,
    hadamard,
    minkowski_oracle,
    support_points,
)
from .errors import FormatError, ResourceLimitError
from .gfcore import (
    GFTerm,
    LatticeBox,
    ShortGF,
    canonicalize,
    format_gf,
    from_point_set,
    parse_gf,
    progression_gf,
)
from .presburger import (
    And,
    LinearAtom,
    Or,
    PAFormula,
    QuantBlock,
    cells_gf,
    disjointify,
    negate,
)

# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class BooleanCircuit:
    """Fan-in <= 2 gate list over r input bits; bit 1 is least significant."""

    r: int
    gates: tuple  # ((op, ref1, ref2-or-None), ...) with ref = ('x'|'g', index)
    output: tuple  # ref

    @property
    def p(self):
        return len(self.gates)

    def _ref_value(self, ref, x, values):
        kind, idx = ref
        if kind == "x":
            return (x >> (idx - 1)) & 1
        return values[idx]

    def gate_values(self, x):
        """Evaluate on input integer x; returns (accepted, gate-bit integer)."""
        values = {}
        for j, (op, a, b) in enumerate(self.gates, start=1):
            va = self._ref_value(a, x, values)
            if op == "NOT":
                values[j] = 1 - va
            elif op == "AND":
                values[j] = va & self._ref_value(b, x, values)
            elif op == "OR":
                values[j] = va | self._ref_value(b, x, values)
            else:
                raise ValueError(f"unknown gate op {op!r}")
        out = self._ref_value(self.output, x, values)
        y = sum(values[j] << (j - 1) for j in values)
        return bool(out), y

    def accepts(self, x):
        return self.gate_values(x)[0]

    def truth_table(self):
        return sorted(x for x in range(1 << self.r) if self.accepts(x))


def parse_circuit(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("circuit "):
        raise FormatError("missing 'circuit' header")
    try:
        r = int(dict(p.split("=", 1) for p in lines[0].split()[1:])["r"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad circuit header: {lines[0]!r}") from exc

    def ref(tok, ngates):
        kind, digits = tok[:1], tok[1:]
        if kind not in ("x", "g") or not digits.isdecimal():
            raise FormatError(f"bad reference {tok!r}")
        i = int(digits)
        if kind == "x" and not 1 <= i <= r:
            raise FormatError(f"input {tok} out of range")
        if kind == "g" and not 1 <= i <= ngates:
            raise FormatError(f"gate {tok} referenced before definition")
        return (kind, i)

    gates = []
    output = None
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] == "out":
            if len(toks) != 2:
                raise FormatError(f"bad output line: {ln!r}")
            output = ref(toks[1], len(gates))
            continue
        if len(toks) < 4 or toks[1] != "=":
            raise FormatError(f"bad gate line: {ln!r}")
        name, op = toks[0], toks[2]
        if name != f"g{len(gates) + 1}":
            raise FormatError(f"gates must be named in order; got {name!r}")
        if op == "NOT":
            if len(toks) != 4:
                raise FormatError(f"NOT takes one argument: {ln!r}")
            gates.append(("NOT", ref(toks[3], len(gates)), None))
        elif op in ("AND", "OR"):
            if len(toks) != 5:
                raise FormatError(f"{op} takes two arguments: {ln!r}")
            gates.append((op, ref(toks[3], len(gates)), ref(toks[4], len(gates))))
        else:
            raise FormatError(f"unknown op {op!r}")
    if output is None:
        raise FormatError("missing 'out' line")
    return BooleanCircuit(r, tuple(gates), output)


def format_circuit(c):
    lines = [f"circuit r={c.r}"]
    for j, (op, a, b) in enumerate(c.gates, start=1):
        def fmt(ref):
            return f"{ref[0]}{ref[1]}"
        if op == "NOT":
            lines.append(f"g{j} = NOT {fmt(a)}")
        else:
            lines.append(f"g{j} = {op} {fmt(a)} {fmt(b)}")
    lines.append(f"out {c.output[0]}{c.output[1]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tseitin 3-CNF


@dataclass(frozen=True)
class CNF3:
    """Width-3 clauses over input variables 1..r and gate variables r+1..r+p."""

    r: int
    p: int
    clauses: tuple

    def satisfied(self, x, y):
        return all(
            any(_literal_value(lit, x, y, self.r) for lit in clause)
            for clause in self.clauses
        )


def _literal_value(lit, x, y, r):
    v = abs(lit)
    word = x if v <= r else y
    i = v if v <= r else v - r
    bit = (word >> (i - 1)) & 1
    return bit == 1 if lit > 0 else bit == 0


def circuit_to_3cnf(circuit):
    """Gate-consistency clauses plus the output unit clause, padded to width 3.

    Both directions of each gate's defining equivalence are included, so the
    gate bits are a function of the input bits on every satisfying assignment.
    """
    r = circuit.r

    def lit(ref):
        kind, idx = ref
        return idx if kind == "x" else r + idx

    clauses = []

    def add(*lits):
        lits = list(lits)
        while len(lits) < 3:
            lits.append(lits[-1])
        clauses.append(tuple(lits[:3]))

    for j, (op, a, b) in enumerate(circuit.gates, start=1):
        g = ("g", j)
        if op == "NOT":
            add(lit(g), lit(a))
            add(-lit(g), -lit(a))
        elif op == "AND":
            add(-lit(g), lit(a))
            add(-lit(g), lit(b))
            add(lit(g), -lit(a), -lit(b))
        elif op == "OR":
            add(lit(g), -lit(a))
            add(lit(g), -lit(b))
            add(-lit(g), lit(a), lit(b))
    add(lit(circuit.output))
    return CNF3(r, circuit.p, tuple(clauses))


# ---------------------------------------------------------------------------
# bit-extraction systems


def bit_atoms(i, positive, var, zvar):
    """Conjunction (pair) of atoms tying zvar to bit i of var.

    positive: the bit is 1, i.e. floor(var / 2^(i-1)) is odd; the witness is
    z = floor(var / 2^i).  Strict inequalities are pre-tightened to integer
    forms by scaling through 2^(i-1) and shifting the right side by one.
    """
    w = 1 << i  # 2^i
    h = 1 << (i - 1)  # 2^(i-1)
    if positive:
        first = LinearAtom.from_dict({var: 1, zvar: -w}, w - 1)
        second = LinearAtom.from_dict({zvar: w, var: -1}, -h)
    else:
        first = LinearAtom.from_dict({var: 1, zvar: -w}, h - 1)
        second = LinearAtom.from_dict({zvar: w, var: -1}, 0)
    return (first, second)


def _negated_literal_atoms(lit, r, zvar):
    """Atoms asserting the literal is FALSE, witnessed through zvar."""
    v = abs(lit)
    var = "x" if v <= r else "y"
    i = v if v <= r else v - r
    # literal positive & false => bit is 0; literal negative & false => bit is 1
    return bit_atoms(i, positive=(lit < 0), var=var, zvar=zvar)


def cnf_to_pa(cnf):
    """Quantified formula: exists y, for all z-triples, the big conjunction.

    Per clause, the violation region (all three literals false) is a
    conjunction of six inequalities over (x, y, z1, z2, z3); its negation is a
    six-way disjunction, and the conjunction over clauses characterizes
    satisfaction.  Returns (formula, violation_body, q).  Both formulas
    hold one object per distinct atom.
    """
    r, p = cnf.r, cnf.p
    q = max(r, p, 1)
    atoms = {}

    def shared(atom):
        return atoms.setdefault(atom, atom)

    violations = []
    for clause in cnf.clauses:
        body = []
        for slot, lit in enumerate(clause, start=1):
            body.extend(map(shared, _negated_literal_atoms(lit, r, f"z{slot}")))
        violations.append(And(tuple(body)))
    satisfied = And(
        tuple(Or(tuple(shared(a.negated()) for a in v.children)) for v in violations)
    )
    blocks = (
        QuantBlock("E", ("y",), 1 << p),
        QuantBlock("A", ("z1", "z2", "z3"), 1 << q),
    )
    formula = PAFormula(blocks, satisfied, ("x",))
    violation_body = Or(tuple(violations)) if violations else None
    return formula, violation_body, q


# ---------------------------------------------------------------------------
# segment encodings


@dataclass
class SegmentEncoding:
    """A circuit's clause-violation region GF and its per-cell projections.

    Everything else follows from the circuit's r input bits and p gates and
    the witness range q = max(r, p, 1): the (x, y) `box` is
    [0, 2^r) x [0, 2^p), and the `full_box` adds three z-variables over
    [0, 2^q) (`zdims` 3), or, once `tau` packs them, one over [0, N^3)
    (`zdims` 1).  `cnf` is the circuit's Tseitin 3-CNF.

    `cells` holds the disjoint Polyhedron cells of the violation region in
    the full box, and `cell_points` their lattice points (both empty for an
    encoding read back from text; a packed encoding keeps the points only).
    The region GF `fr` is built from the cells with `polytope_gf` on its
    first read and cached, so `segment_gf` and `proj_points`, which never
    read it, pay nothing for it; `compress_encoding` and `parse_encoding`
    hand over the `fr` they already have as `_fr`.
    """

    circuit: BooleanCircuit
    pieces: tuple  # per-cell (x, y)-projection GFs, one monomial per point
    tau: TauMap = None
    cell_points: tuple = ()
    cells: tuple = ()
    _fr: ShortGF = field(default=None, repr=False, compare=False)

    @property
    def r(self):
        return self.circuit.r

    @property
    def p(self):
        return self.circuit.p

    @property
    def q(self):
        return max(self.r, self.p, 1)

    @property
    def zdims(self):
        return 3 if self.tau is None else 1

    @property
    def cnf(self):
        return circuit_to_3cnf(self.circuit)

    @property
    def box(self):
        return LatticeBox((1 << self.r, 1 << self.p))

    @property
    def full_box(self):
        z = (1 << self.q,) * 3 if self.tau is None else (self.tau.N**3,)
        return LatticeBox(self.box.sides + z)

    @property
    def fr(self):
        """Canonical sum of the cells' polytope GFs, built on first read."""
        if self._fr is None:
            self._fr = cells_gf(self.cells, self.full_box.nvars)
        return self._fr

    def proj_points(self):
        return {t.numer for piece in self.pieces for t in piece.terms}


def encode_segment(circuit):
    """Encode one circuit's accepted set as a boxed GF plus projections.

    The violation region of the Tseitin formula is disjointified inside the
    (x, y, z)-box; its cells are kept for the region GF (their GFs sum to
    it, built on first read of `fr`) and projected onto (x, y) by exact
    enumeration.  Every cell carries the full box's rows, so
    `enumerate_polytope_points` bounds it by interval propagation alone; no
    vertex enumeration is needed.
    """
    enc = SegmentEncoding(circuit, ())
    _, violation, _ = cnf_to_pa(enc.cnf)
    var_order = ("x", "y", "z1", "z2", "z3")
    enc.cells = tuple(disjointify(violation, enc.full_box, var_order))
    enc.cell_points = tuple(tuple(enumerate_polytope_points(c)) for c in enc.cells)
    enc.pieces = tuple(
        from_point_set([pt[:2] for pt in pts], 2) for pts in enc.cell_points
    )
    return enc


def violation_projection_by_bits(cnf, box):
    """Independent semantic oracle for the (x, y)-projection of the violation
    region: a pair is in it exactly when some clause has all three literals
    false, since each bit-extraction witness exists within the z-range."""
    out = set()
    for x in range(box.sides[0]):
        for y in range(box.sides[1]):
            for clause in cnf.clauses:
                if all(not _literal_value(lit, x, y, cnf.r) for lit in clause):
                    out.add((x, y))
                    break
    return out


def segment_gf(encoding):
    """Accepted-input GF: specialize the box complement of the projection.

    Verifies the piece-union identity against the bit-semantics oracle, then
    takes the complement with `oracle_project`'s 'anti' mode and specializes
    it to x with its 'specialize' mode, which checks the one-witness
    property of the complement.  Both steps run on point sets, so only the
    final 1-D GF is built.
    """
    proj = encoding.proj_points()
    box = encoding.box
    if proj != violation_projection_by_bits(encoding.cnf, box):
        raise ValueError(
            "piece union does not match the projection of the violation region"
        )
    complement = _project_points(proj, (0, 1), box, "anti")
    return from_point_set(_project_points(complement, (0,), box, "specialize"), 1)


def compress_encoding(encoding):
    """Pack the three z-variables into one coordinate, leaving x and y alone."""
    if encoding.tau is not None:
        raise ValueError("encoding does not have a 3-variable z-block")
    tau = choose_tau(encoding.fr, (1, 1, 3), box=encoding.full_box)
    return SegmentEncoding(
        encoding.circuit, encoding.pieces, tau, encoding.cell_points,
        _fr=compress(encoding.fr, tau),
    )


# ---------------------------------------------------------------------------
# alternating quantifier pipelines


@dataclass
class AlternatingPipeline:
    """Points of the eliminated region and the accepted free-variable points.

    `region_points` are the points of the body's truth region in the full
    box, or of its complement when `negated` is set.
    """

    region_points: set
    negated: bool
    accepted: tuple


def alternating_pipeline(formula, box_sides, limit=2_000_000):
    """Evaluate a prenex formula by eliminating quantifier blocks inner-first.

    The region is the truth region of the body in the full box, or of its
    negation when the innermost block is universal; either way it is the
    union of its disjoint cells' points.  Blocks are eliminated inner-first
    on that region: an existential block projects it, a universal block keeps
    the prefixes covered by every block value.  On the negated region each
    block runs with its kind flipped (for all on a set is exists on its
    complement), and the accepted points are the complement of the result in
    the free-variable sub-box.  A side of size zero is an empty range, as in
    `eval_formula`: the box has no points, a universal block over it holds
    for every prefix and an existential one for none.  `limit` bounds the
    points enumerated, the region's and the sub-boxes'; past it
    `ResourceLimitError` is raised.
    """
    var_order = tuple(formula.free_vars) + tuple(
        n for b in formula.blocks for n in b.names
    )
    sides = tuple(int(u) for u in box_sides)
    if len(sides) != len(var_order):
        raise ValueError("box arity does not match free + quantified variables")
    if any(u < 0 for u in sides):
        raise ValueError("box sides must be nonnegative")
    negated = bool(formula.blocks) and formula.blocks[-1].kind == "A"
    body = negate(formula.body) if negated else formula.body
    region = set()
    if all(sides):
        box = LatticeBox(sides)
        for cell in disjointify(body, box, var_order):
            region.update(enumerate_polytope_points(cell, limit=limit - len(region)))

    def sub_box_points(width):
        if prod(sides[:width]) > limit:
            raise ResourceLimitError(
                f"box of the first {width} variables exceeds the {limit}-point limit"
            )
        return product(*(range(u) for u in sides[:width]))

    current = region
    width = len(var_order)
    for block in reversed(formula.blocks):
        new_width = width - len(block.names)
        if (block.kind == "E") != negated:
            current = {pt[:new_width] for pt in current}
        elif all(sides[new_width:width]):
            volume = prod(sides[new_width:width])
            counts = Counter(pt[:new_width] for pt in current)
            current = {key for key, cnt in counts.items() if cnt == volume}
        else:
            current = set(sub_box_points(new_width))
        width = new_width
    if negated:
        accepted = tuple(pt for pt in sub_box_points(width) if pt not in current)
    else:
        accepted = tuple(sorted(current))
    return AlternatingPipeline(region, negated, accepted)


def encode_alternating(circuit, prefix, cert_bits=0):
    """Accepted instances of a circuit with one certificate block (or none).

    The low input bits are the instance x, the high `cert_bits` bits the
    certificate c.  prefix 'E': accepted = {x : some c has C(x, c) = 1};
    prefix 'A': {x : every c has C(x, c) = 1}, the box complement of the 'E'
    set of the negated circuit; the empty prefix is 'E' with no certificate
    bits.  Certificate and gate bits share the witness variable y of the
    merged CNF, whose `cnf_to_pa` formula goes to `alternating_pipeline`
    under its default point limit.  Returns (pipeline, accepted), accepted
    being the sorted tuple of accepted x.
    """
    if prefix not in ("", "E", "A"):
        raise ValueError("supported prefixes: '', 'E', 'A' (one block)")
    if prefix == "" and cert_bits:
        raise ValueError("the empty prefix takes no certificate bits")
    work = circuit
    if prefix == "A":
        work = BooleanCircuit(
            circuit.r,
            circuit.gates + (("NOT", circuit.output, None),),
            ("g", circuit.p + 1),
        )
    r = work.r - cert_bits  # low bits: instance; high bits: certificate
    if r < 1:
        raise ValueError("certificate block leaves no instance bits")
    # certificate inputs r+1..work.r already precede the gate variables, so
    # the clauses stand as they are with both read as bits of y
    merged = CNF3(r, cert_bits + work.p, circuit_to_3cnf(work).clauses)
    formula, _, _ = cnf_to_pa(merged)
    box_sides = (1 << r,) + tuple(
        b.size for b in formula.blocks for _ in b.names
    )
    pipeline = alternating_pipeline(formula, box_sides)
    accepted = tuple(pt[0] for pt in pipeline.accepted)
    if prefix == "A":
        accepted = tuple(sorted(set(range(1 << r)) - set(accepted)))
    return pipeline, accepted


def count_certificates(f2r, x, r):
    """Number of certificates paired with instance x in a concatenated-pair GF.

    Pairs are encoded as x + 2^r * c; the comb GF selecting them is
    t^x (1 - t^(2^(2r))) / (1 - t^(2^r)), and the count is the Hadamard
    product with it, evaluated at one.
    """
    step = 1 << r
    comb = progression_gf((x,), ((step,),), (step,))
    return evaluate_at_one(hadamard(f2r, comb))


@dataclass
class MinkowskiGadget:
    """Staircase sum construction extracting a union of pieces as one slice."""

    a: ShortGF
    b: ShortGF
    sum_gf: ShortGF
    slice_points: tuple
    union_points: tuple

    @property
    def ok(self):
        return self.slice_points == self.union_points


def minkowski_gadget(pieces, t_bound):
    """Lift pieces to levels u^1..u^k, add the staircase (1-u^k)/(1-u), and
    read the union of the pieces off the u^k slice of the Minkowski sum."""
    k = len(pieces)
    if k == 0:
        raise ValueError("need at least one piece")
    terms = []
    for i, piece in enumerate(pieces, start=1):
        for t in piece.terms:
            terms.append(
                GFTerm(t.coeff, (t.numer[0], i), tuple((d[0], 0) for d in t.denoms))
            )
    a = canonicalize(ShortGF(2, tuple(terms)))
    b = progression_gf((0, 0), ((0, 1),), (k,))
    in_box = LatticeBox((t_bound, k + 1))
    out_box = LatticeBox((t_bound, 2 * k + 1))
    sum_gf = minkowski_oracle(a, b, in_box, out_box=out_box)
    # u^k slice via the Hadamard product with u^k / (1 - t)
    comb = ShortGF(2, (GFTerm(1, (0, k), ((1, 0),)),))
    sliced = hadamard(sum_gf, comb, box=out_box)
    slice_points = tuple(
        sorted(pt[0] for pt in support_points(sliced, out_box))
    )
    union = set()
    for piece in pieces:
        union |= {pt[0] for pt in support_points(piece, (t_bound,))}
    return MinkowskiGadget(a, b, sum_gf, slice_points, tuple(sorted(union)))


# ---------------------------------------------------------------------------
# encoding file format


def format_encoding(enc):
    n_field = enc.tau.N if enc.tau else 0
    lines = [
        f"enc r={enc.r} p={enc.p} q={enc.q} zdims={enc.zdims} "
        f"npieces={len(enc.pieces)} N={n_field}"
    ]
    lines.append("#circuit")
    lines.append(format_circuit(enc.circuit).rstrip("\n"))
    lines.append("#fr")
    lines.append(format_gf(enc.fr).rstrip("\n"))
    for i, piece in enumerate(enc.pieces):
        lines.append(f"#piece {i}")
        lines.append(format_gf(piece).rstrip("\n"))
    lines.append("#end")
    return "\n".join(lines) + "\n"


def parse_encoding(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("enc "):
        raise FormatError("missing 'enc' header")
    fields = dict(p.split("=", 1) for p in lines[0].split()[1:] if "=" in p)
    try:
        r = int(fields["r"])
        p = int(fields["p"])
        q = int(fields["q"])
        zdims = int(fields["zdims"])
        npieces = int(fields["npieces"])
        n_field = int(fields.get("N", "0"))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad enc header: {lines[0]!r}") from exc
    sections = {}
    order = []
    cur = None
    for ln in lines[1:]:
        if ln.startswith("#"):
            cur = ln[1:].strip()
            if cur == "end":
                cur = None
                continue
            sections[cur] = []
            order.append(cur)
        elif cur is not None:
            sections[cur].append(ln)
    if "circuit" not in sections or "fr" not in sections:
        raise FormatError("encoding is missing circuit or fr sections")
    circuit = parse_circuit("\n".join(sections["circuit"]))
    fr = parse_gf("\n".join(sections["fr"]))
    pieces = [
        parse_gf("\n".join(sections[name]))
        for name in order
        if name.startswith("piece")
    ]
    if npieces != len(pieces):
        raise FormatError(
            f"enc header says npieces={npieces} over {len(pieces)} piece sections"
        )
    enc = SegmentEncoding(circuit, tuple(pieces), _fr=fr)
    if (r, p, q) != (enc.r, enc.p, enc.q):
        raise FormatError(f"enc header does not match its circuit: {lines[0]!r}")
    if zdims not in (1, 3):
        raise FormatError(f"zdims must be 1 or 3, not {zdims}")
    if fr.nvars != 2 + zdims or any(piece.nvars != 2 for piece in pieces):
        raise FormatError("encoding GFs have the wrong number of variables")
    if zdims == 1:
        try:
            enc.tau = TauMap(n_field, (1, 1, 3))
        except ValueError as exc:
            raise FormatError(f"bad packing base N={n_field}") from exc
    return enc


# ---------------------------------------------------------------------------
# stock circuits


def even_detector(r):
    """Accepts even inputs: a single NOT gate on the low bit."""
    return BooleanCircuit(r, (("NOT", ("x", 1), None),), ("g", 1))


def and_gate(r, i, j):
    """Accepts inputs with bits i and j both set."""
    return BooleanCircuit(r, (("AND", ("x", i), ("x", j)),), ("g", 1))


def constant_false(r):
    """Rejects everything: x1 AND NOT x1."""
    return BooleanCircuit(
        r,
        (("NOT", ("x", 1), None), ("AND", ("x", 1), ("g", 1))),
        ("g", 2),
    )


def square_tester(r):
    """Accepts perfect squares below 2^r, for r = 3 or 4 (hand-minimized)."""
    if r == 3:
        # squares {0,1,4}: not x2 and (not x3 or not x1)
        gates = (
            ("NOT", ("x", 2), None),  # g1
            ("NOT", ("x", 3), None),  # g2
            ("NOT", ("x", 1), None),  # g3
            ("OR", ("g", 2), ("g", 3)),  # g4
            ("AND", ("g", 1), ("g", 4)),  # g5
        )
        return BooleanCircuit(3, gates, ("g", 5))
    if r == 4:
        # squares {0,1,4,9}: not x2 and ((not x4 and (not x3 or not x1))
        #                                 or (x4 and not x3 and x1))
        gates = (
            ("NOT", ("x", 2), None),  # g1
            ("NOT", ("x", 3), None),  # g2
            ("NOT", ("x", 1), None),  # g3
            ("NOT", ("x", 4), None),  # g4
            ("OR", ("g", 2), ("g", 3)),  # g5 = !x3 | !x1
            ("AND", ("g", 4), ("g", 5)),  # g6 = !x4 & g5
            ("AND", ("x", 4), ("g", 2)),  # g7 = x4 & !x3
            ("AND", ("g", 7), ("x", 1)),  # g8 = g7 & x1
            ("OR", ("g", 6), ("g", 8)),  # g9
            ("AND", ("g", 1), ("g", 9)),  # g10
        )
        return BooleanCircuit(4, gates, ("g", 10))
    raise ValueError("square tester circuits are built for r = 3 or 4")


def xor_detector(r):
    """Accepts inputs whose two low bits differ."""
    gates = (
        ("NOT", ("x", 1), None),  # g1 = !x1
        ("NOT", ("x", 2), None),  # g2 = !x2
        ("AND", ("x", 1), ("g", 2)),  # g3 = x1 & !x2
        ("AND", ("g", 1), ("x", 2)),  # g4 = !x1 & x2
        ("OR", ("g", 3), ("g", 4)),  # g5
    )
    return BooleanCircuit(r, gates, ("g", 5))


def parity3():
    """Parity of three input bits."""
    gates = (
        ("NOT", ("x", 1), None),  # g1 = !x1
        ("NOT", ("x", 2), None),  # g2 = !x2
        ("AND", ("x", 1), ("g", 2)),  # g3 = x1 & !x2
        ("AND", ("g", 1), ("x", 2)),  # g4 = !x1 & x2
        ("OR", ("g", 3), ("g", 4)),  # g5 = x1 xor x2
        ("NOT", ("g", 5), None),  # g6 = !(x1 xor x2)
        ("NOT", ("x", 3), None),  # g7 = !x3
        ("AND", ("g", 5), ("g", 7)),  # g8 = (x1^x2) & !x3
        ("AND", ("g", 6), ("x", 3)),  # g9 = !(x1^x2) & x3
        ("OR", ("g", 8), ("g", 9)),  # g10 = parity
    )
    return BooleanCircuit(3, gates, ("g", 10))
