"""Linear integer arithmetic front end.

Formulas are trees of linear atoms (canonicalized to <=) under not/and/or,
optionally below a prefix of bounded quantifier blocks.  Quantifier-free
formulas over a box are *disjointified*: rewritten as a disjoint list of
polyhedra whose integer points partition the truth set, by a decision tree
over the atoms with exact integer-point pruning.  Equal atoms are first
made one object, so a branch folds its residual formula by identity.  Each
branch of the tree carries that residual formula, bounds on its integer
points and how many of its rows those bounds already propagate, so it pays
only for the rows it adds.  Summing the polytope GFs of the cells yields the
short GF of the truth set.
"""

from dataclasses import dataclass
from operator import is_

from . import _linalg as la
from .barvinok import Polyhedron, polytope_gf
from .errors import FormatError
from .gfcore import ShortGF, as_box, canonicalize

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class LinearAtom:
    """coeffs . x <= rhs with integer data; strict forms are pre-tightened."""

    coeffs: tuple  # ((name, coefficient), ...) sorted by name
    rhs: int

    @classmethod
    def from_dict(cls, coeff_map, rhs):
        items = tuple(sorted((n, c) for n, c in coeff_map.items() if c != 0))
        return cls(items, int(rhs))

    def names(self):
        return [n for n, _ in self.coeffs]

    def vector(self, var_order):
        idx = {n: i for i, n in enumerate(var_order)}
        row = [0] * len(var_order)
        for n, c in self.coeffs:
            row[idx[n]] = c
        return tuple(row), self.rhs

    def negated(self):
        """The strict negation coeffs . x > rhs, as -coeffs . x <= -rhs - 1."""
        return LinearAtom(tuple((n, -c) for n, c in self.coeffs), -self.rhs - 1)

    def negated_vector(self, var_order):
        return self.negated().vector(var_order)

    def evaluate(self, assign):
        return sum(c * assign[n] for n, c in self.coeffs) <= self.rhs


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class QuantBlock:
    """One quantifier over a group of variables, all ranging over [0, size)."""

    kind: str  # 'E' or 'A'
    names: tuple
    size: int

    def __post_init__(self):
        if self.kind not in ("E", "A"):
            raise ValueError("quantifier kind must be 'E' or 'A'")
        if self.size < 0:
            raise ValueError("quantifier range size must be nonnegative")


@dataclass(frozen=True)
class PAFormula:
    """Quantifier prefix plus a quantifier-free body."""

    blocks: tuple
    body: object
    free_vars: tuple


def negate(node):
    return node.child if isinstance(node, Not) else Not(node)


def conj(children):
    items = tuple(children)
    return items[0] if len(items) == 1 else And(items)


def disj(children):
    items = tuple(children)
    return items[0] if len(items) == 1 else Or(items)


def free_variables(node, bound=frozenset()):
    if isinstance(node, LinearAtom):
        return [n for n in node.names() if n not in bound]
    if isinstance(node, Not):
        return free_variables(node.child, bound)
    if isinstance(node, (And, Or)):
        out = []
        for c in node.children:
            for n in free_variables(c, bound):
                if n not in out:
                    out.append(n)
        return out
    raise TypeError(f"unexpected node: {node!r}")


def formula_length(formula):
    """Total bit length of all constants plus one unit per symbol."""
    node = formula.body if isinstance(formula, PAFormula) else formula
    total = 0
    if isinstance(formula, PAFormula):
        for b in formula.blocks:
            total += 1 + len(b.names) + max(1, (b.size - 1).bit_length())

    def rec(nd):
        nonlocal total
        total += 1
        if isinstance(nd, LinearAtom):
            for _, c in nd.coeffs:
                total += max(1, abs(c).bit_length())
            total += max(1, abs(nd.rhs).bit_length())
        elif isinstance(nd, Not):
            rec(nd.child)
        else:
            for c in nd.children:
                rec(c)

    rec(node)
    return total


# ---------------------------------------------------------------------------
# evaluation


def _eval_node(node, assign):
    if isinstance(node, LinearAtom):
        return node.evaluate(assign)
    if isinstance(node, Not):
        return not _eval_node(node.child, assign)
    if isinstance(node, And):
        return all(_eval_node(c, assign) for c in node.children)
    if isinstance(node, Or):
        return any(_eval_node(c, assign) for c in node.children)
    raise TypeError(f"unexpected node: {node!r}")


def eval_formula(formula, assignment):
    """Reference semantics: direct recursive evaluation over finite ranges."""
    if not isinstance(formula, PAFormula):
        formula = PAFormula((), formula, tuple(free_variables(formula)))
    if isinstance(assignment, (tuple, list)):
        assignment = dict(zip(formula.free_vars, assignment))
    assign = dict(assignment)

    def rec(blocks):
        if not blocks:
            return _eval_node(formula.body, assign)
        block = blocks[0]

        def walk(names):
            if not names:
                return rec(blocks[1:])
            name = names[0]
            hits = []
            for v in range(block.size):
                assign[name] = v
                hits.append(walk(names[1:]))
                if block.kind == "E" and hits[-1]:
                    del assign[name]
                    return True
                if block.kind == "A" and not hits[-1]:
                    del assign[name]
                    return False
            if name in assign:
                del assign[name]
            return block.kind == "A"

        return walk(list(block.names))

    return rec(list(formula.blocks))


def _assume(node, atom, value):
    """`node` with `atom` set to `value`, folded to True, False or a node.

    Atoms are compared by identity, so equal atoms must be one object
    (`_interned`).  `Not` flips a constant child; `And` drops True children
    and is False on a False child, `Or` dually; an empty `And`/`Or` is
    True/False.  A folded node holds no constant, and an unchanged subtree is
    returned as is.
    """
    if node is atom:
        return value
    if isinstance(node, LinearAtom):
        return node
    if isinstance(node, Not):
        child = _assume(node.child, atom, value)
        if child is node.child:
            return node
        return not child if isinstance(child, bool) else Not(child)
    stop = isinstance(node, Or)  # the constant that decides the node
    kept = []
    same = True
    for c in node.children:
        if c is atom:
            if value is stop:
                return stop
            same = False
            continue  # value is the neutral constant
        r = c if isinstance(c, LinearAtom) else _assume(c, atom, value)
        if r is stop:
            return stop
        same = same and r is c
        if r is not (not stop):
            kept.append(r)
    if not kept:
        return not stop
    return node if same else type(node)(tuple(kept))


def _interned(node, seen, names, missing):
    """`node` with each atom replaced by the first equal atom in `seen`.

    Only nodes whose children changed are rebuilt.  The names of an atom
    that are not in `names` are added to `missing`.
    """
    if isinstance(node, LinearAtom):
        missing.update(n for n, _ in node.coeffs if n not in names)
        return seen.setdefault(node, node)
    if isinstance(node, Not):
        child = _interned(node.child, seen, names, missing)
        return node if child is node.child else Not(child)
    children = tuple(_interned(c, seen, names, missing) for c in node.children)
    if all(map(is_, children, node.children)):
        return node
    return type(node)(children)


def _first_atom(node):
    """Leftmost atom of a folded node."""
    while not isinstance(node, LinearAtom):
        node = node.child if isinstance(node, Not) else node.children[0]
    return node


# ---------------------------------------------------------------------------
# disjointification


def disjointify(body, box, var_order=None):
    """Disjoint polyhedra whose integer points partition the truth set in the box.

    Decision tree over the atoms: the false branch adds the atom's tightened
    negation, the true branch its row, and a branch without an integer point
    is pruned exactly.  Equal atoms of `body` are made one object first
    (`_interned`), and a branch carries its residual formula (`_assume`): a
    cell on True, else split on its leftmost atom.  It also carries bounds
    that hold for all its integer points, the count `settled` of its rows
    already propagated into them, and its lexicographically first point.  A
    new row that point breaks is propagated from those bounds with that
    `settled` prefix (the box rows add nothing to them) and searched, and the
    child then counts all its rows settled; a row the point satisfies leaves
    bounds and count as they are.  As the bounds drop no point, pruning and
    first points are those of a search over the full box, so the cells (box
    rows plus branch rows) do not depend on them.  A name of `body` missing
    from `var_order` raises ValueError.
    """
    box = as_box(box)
    if var_order is None:
        var_order = tuple(free_variables(body))
    n = len(var_order)
    if box.nvars != n:
        raise ValueError("box arity does not match the variable count")
    missing = set()
    body = _interned(body, {}, set(var_order), missing)
    if missing:
        raise ValueError(f"var_order lacks the formula variables {sorted(missing)}")
    atom_rows = {}  # atom -> (negated row, row)
    cells = []
    # no atom is None: this only folds empty and/or nodes
    stack = [(_assume(body, None, None), [], box.bounds(), 0, None)]
    while stack:
        node, rows, bounds, settled, witness = stack.pop()
        if node is False:
            continue
        if node is True:
            cells.append(rows)
            continue
        atom = _first_atom(node)
        pair = atom_rows.get(atom)
        if pair is None:
            pair = atom_rows[atom] = (
                atom.negated_vector(var_order),
                atom.vector(var_order),
            )
        for branch, row in zip((False, True), pair):
            new_rows = rows + [row]
            bnd, done, wit = bounds, settled, witness
            if wit is None or la.dot(row[0], wit) > row[1]:
                bnd = la.propagate_bounds(
                    new_rows, bounds, rounds=8, settled=settled
                )
                if bnd is None:
                    continue
                found = la.lattice_points(new_rows, bnd, first_only=True)
                if not found:
                    continue
                done, wit = len(new_rows), found[0]
            stack.append((_assume(node, atom, branch), new_rows, bnd, done, wit))

    box_rows = la.box_rows(box.bounds())
    out = []
    for rows in cells:
        all_rows = box_rows + rows
        A = tuple(coeffs for coeffs, _ in all_rows)
        b = tuple(rhs for _, rhs in all_rows)
        out.append(Polyhedron(A, b, n))
    return out


def qf_to_gf(body, box, var_order=None):
    """Short GF of the truth set of a quantifier-free formula on a box."""
    box = as_box(box)
    if var_order is None:
        var_order = tuple(free_variables(body))
    return cells_gf(disjointify(body, box, var_order), len(var_order))


def cells_gf(cells, nvars):
    """Canonical sum of the polytope GFs of disjoint bounded cells."""
    terms = [t for cell in cells for t in polytope_gf(cell).terms]
    return canonicalize(ShortGF(nvars, tuple(terms)))


# ---------------------------------------------------------------------------
# parser


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif text[i : i + 2] in ("<=", ">="):
                self.toks.append(("op", text[i : i + 2]))
                i += 2
            elif ch in "()[],:&|!*+-<>=":
                self.toks.append(("op", ch))
                i += 1
            else:
                raise FormatError(f"unexpected character {ch!r} at {i}")
        self.pos = 0

    def peek(self, ahead=0):
        if self.pos + ahead < len(self.toks):
            return self.toks[self.pos + ahead]
        return (None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise FormatError("unexpected end of formula")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise FormatError(
                f"expected {value or kind} at token {self.pos - 1}, got {tok[1]!r}"
            )
        return tok


def parse_pa(text):
    """Parse a formula in the quantifier-prefix grammar.

    form := quant* disj; quant := ('E'|'A') var '[' int ',' int ')' ':';
    disj := conj ('|' conj)*; conj := lit ('&' lit)*;
    lit := '!'? atom | '!'? '(' form ')';
    atom := linexpr ('<='|'>='|'<'|'>'|'=') linexpr.
    Nested quantified subformulas are rejected (all uses are prenex).
    """
    toks = _Tokens(text)
    formula = _parse_form(toks)
    if toks.peek()[0] is not None:
        raise FormatError(f"trailing input at token {toks.pos}")
    return formula


def _parse_form(toks):
    blocks = []
    while (
        toks.peek()[0] == "name"
        and toks.peek()[1] in ("E", "A")
        and toks.peek(1)[0] == "name"
        and toks.peek(2) == ("op", "[")
    ):
        kind = toks.next()[1]
        var = toks.next()[1]
        toks.expect("op", "[")
        lo = toks.expect("int")[1]
        toks.expect("op", ",")
        hi = toks.expect("int")[1]
        toks.expect("op", ")")
        toks.expect("op", ":")
        if lo != 0:
            raise FormatError("quantifier ranges must start at 0")
        blocks.append(QuantBlock(kind, (var,), hi))
    body = _parse_disj(toks)
    bound = {n for b in blocks for n in b.names}
    free = tuple(n for n in free_variables(body) if n not in bound)
    if blocks:
        return PAFormula(tuple(blocks), body, free)
    return PAFormula((), body, free)


def _parse_disj(toks):
    items = [_parse_conj(toks)]
    while toks.peek() == ("op", "|"):
        toks.next()
        items.append(_parse_conj(toks))
    return disj(items)


def _parse_conj(toks):
    items = [_parse_lit(toks)]
    while toks.peek() == ("op", "&"):
        toks.next()
        items.append(_parse_lit(toks))
    return conj(items)


def _parse_lit(toks):
    if toks.peek() == ("op", "!"):
        toks.next()
        return negate(_parse_lit(toks))
    if toks.peek() == ("op", "("):
        toks.next()
        inner = _parse_form(toks)
        toks.expect("op", ")")
        if inner.blocks:
            raise FormatError("nested quantifiers are unsupported; use a prenex form")
        return inner.body
    return _parse_atom(toks)


def _parse_linexpr(toks):
    coeffs = {}
    const = 0
    sign = 1
    expect_term = True
    while True:
        kind, val = toks.peek()
        if kind == "op" and val in ("+", "-") and not expect_term:
            sign = 1 if val == "+" else -1
            toks.next()
            expect_term = True
            continue
        if not expect_term:
            break
        if kind == "op" and val == "-":
            toks.next()
            sign = -sign
            continue
        if kind == "int":
            toks.next()
            num = sign * val
            if toks.peek() == ("op", "*"):
                toks.next()
                name = toks.expect("name")[1]
                coeffs[name] = coeffs.get(name, 0) + num
            else:
                const += num
            sign = 1
            expect_term = False
        elif kind == "name":
            toks.next()
            coeffs[val] = coeffs.get(val, 0) + sign
            sign = 1
            expect_term = False
        else:
            raise FormatError(f"expected a term, got {val!r}")
    return coeffs, const


def _parse_atom(toks):
    lc, lconst = _parse_linexpr(toks)
    kind, op = toks.next()
    if kind != "op" or op not in ("<=", ">=", "<", ">", "="):
        raise FormatError(f"expected a relation, got {op!r}")
    rc, rconst = _parse_linexpr(toks)
    diff = dict(lc)
    for n, c in rc.items():
        diff[n] = diff.get(n, 0) - c
    bound = rconst - lconst  # diff . x REL bound
    if op == "<=":
        return LinearAtom.from_dict(diff, bound)
    if op == "<":
        return LinearAtom.from_dict(diff, bound - 1)
    if op == ">=":
        return LinearAtom.from_dict({n: -c for n, c in diff.items()}, -bound)
    if op == ">":
        return LinearAtom.from_dict({n: -c for n, c in diff.items()}, -bound - 1)
    return And(
        (
            LinearAtom.from_dict(diff, bound),
            LinearAtom.from_dict({n: -c for n, c in diff.items()}, -bound),
        )
    )
