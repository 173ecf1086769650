"""Formula front end: parsing, evaluation, disjoint cells, truth-set GFs."""

import random
from operator import mul

import pytest

import shortgf._linalg as la
from shortgf import (
    And,
    FormatError,
    LatticeBox,
    LinearAtom,
    Not,
    Or,
    PAFormula,
    Polyhedron,
    QuantBlock,
    alternating_pipeline,
    circuit_to_3cnf,
    cnf_to_pa,
    complement_in_box,
    conj,
    constant_false,
    disj,
    disjointify,
    encode_segment,
    enumerate_polytope_points,
    eval_formula,
    evaluate_at_one,
    formula_length,
    gf_equal_on_box,
    negate,
    parse_pa,
    qf_to_gf,
    square_tester,
    support_points,
    xor_detector,
)
from shortgf.gfcore import GFTerm, ShortGF


class TestParse:
    def test_conjunction(self):
        f = parse_pa("(x >= 0) & (x <= 5)")
        assert f.free_vars == ("x",)
        assert eval_formula(f, (3,)) and not eval_formula(f, (7,))

    def test_quantified_example(self):
        f = parse_pa("E y [0,8) : 5*y >= x+1 | 5*y <= x-1")
        assert f.blocks[0].kind == "E"
        assert f.blocks[0].size == 8
        assert f.free_vars == ("x",)

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_pa("x <<= 3")
        with pytest.raises(FormatError):
            parse_pa("E y [1,8) : y >= x")  # ranges must start at zero

    def test_strict_tightening(self):
        f = parse_pa("x < 4")
        atom = f.body
        assert isinstance(atom, LinearAtom)
        assert atom.rhs == 3

    def test_equality_expands(self):
        f = parse_pa("2*x = 6")
        assert eval_formula(f, (3,)) and not eval_formula(f, (2,))


class TestEvalFormula:
    def test_non_multiples_of_five(self):
        f = parse_pa("A y [0,8) : 5*y >= x+1 | 5*y <= x-1")
        assert eval_formula(f, (10,)) is False
        assert eval_formula(f, (7,)) is True

    def test_vacuous_forall_is_true(self):
        f = PAFormula(
            (QuantBlock("A", ("y",), 0),),
            LinearAtom.from_dict({"y": 1}, -1),
            (),
        )
        assert eval_formula(f, ()) is True

    @pytest.mark.parametrize(
        "text",
        (
            "A y [0,0) : x + y <= 2",
            "E y [0,0) : x + y <= 2",
            "E y [0,2) : A z [0,0) : x + y <= 1",
            "A y [0,0) : E z [0,3) : x + z <= 1",
            "E y [0,0) : A z [0,2) : x + z <= 1",
            "A z [0,2) : E y [0,0) : x + y <= 1",
            "A y [0,2) : A z [0,0) : E w [0,2) : x + y + w <= 2",
        ),
    )
    def test_empty_ranges_agree_with_the_pipeline(self, text):
        # a block over an empty range: forall holds and exists fails, in
        # the alternating pipeline as in the reference semantics
        f = parse_pa(text)
        sides = (3,) + tuple(b.size for b in f.blocks for _ in b.names)
        want = tuple((x,) for x in range(3) if eval_formula(f, (x,)))
        assert alternating_pipeline(f, sides).accepted == want

    def test_empty_exists_is_false(self):
        f = PAFormula(
            (QuantBlock("E", ("y",), 0),),
            LinearAtom.from_dict({"y": 1}, 100),
            (),
        )
        assert eval_formula(f, ()) is False


class TestDisjointify:
    def test_two_interval_union(self):
        f = parse_pa("(x >= 0 & x <= 5) | (x >= 3 & x <= 8)")
        cells = disjointify(f.body, (16,), var_order=("x",))
        pts = []
        for cell in cells:
            pts.extend(enumerate_polytope_points(cell))
        assert len(pts) == len(set(pts)) == 9
        assert {p[0] for p in pts} == set(range(9))

    def test_single_atom(self):
        f = parse_pa("x <= 5")
        cells = disjointify(f.body, (16,), var_order=("x",))
        assert len(cells) == 1

    def test_random_partition_property(self):
        rng = random.Random(7)
        for _ in range(15):
            atoms = [
                LinearAtom.from_dict(
                    {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)},
                    rng.randint(-5, 10),
                )
                for _ in range(5)
            ]
            lits = [a if rng.random() < 0.6 else negate(a) for a in atoms]
            body = disj([conj(lits[:2]), conj(lits[2:4]), lits[4]])
            box = LatticeBox((8, 8))
            cells = disjointify(body, box, var_order=("x", "y"))
            truth = {
                (x, y)
                for x in range(8)
                for y in range(8)
                if eval_formula(PAFormula((), body, ("x", "y")), (x, y))
            }
            got = set()
            for cell in cells:
                pts = set(enumerate_polytope_points(cell))
                assert not (pts & got), "cells overlap"
                got |= pts
            assert got == truth


def eval3(node, lookup):
    """Three-valued evaluation: (value or None, first undecided atom)."""
    if isinstance(node, LinearAtom):
        val = lookup.get(node)
        return (val, None if val is not None else node)
    if isinstance(node, Not):
        val, atom = eval3(node.child, lookup)
        return (None if val is None else not val, atom)
    stop = isinstance(node, Or)
    first = None
    for c in node.children:
        val, atom = eval3(c, lookup)
        if val is stop:
            return stop, None
        if val is None and first is None:
            first = atom
    return (not stop, None) if first is None else (None, first)


def disjointify_reference(body, box, var_order):
    """The decision tree with every branch evaluated from the root and every
    witness searched over the full box: (cells, pruned branch count)."""
    n = len(var_order)
    box_rows = []
    for j in range(n):
        unit = tuple(int(i == j) for i in range(n))
        box_rows.append((unit, box.sides[j] - 1))
        box_rows.append((tuple(-c for c in unit), 0))
    cells = []
    pruned = 0
    stack = [({}, [], None)]
    while stack:
        lookup, rows, witness = stack.pop()
        val, atom = eval3(body, lookup)
        if val is False:
            continue
        if val is True:
            cells.append(rows)
            continue
        for branch in (False, True):
            row = (
                atom.vector(var_order)
                if branch
                else atom.negated_vector(var_order)
            )
            new_rows = rows + [row]
            wit = witness
            if wit is None or sum(map(mul, row[0], wit)) > row[1]:
                found = la.lattice_points(
                    box_rows + new_rows, box.bounds(), first_only=True
                )
                if not found:
                    pruned += 1
                    continue
                wit = found[0]
            stack.append(({**lookup, atom: branch}, new_rows, wit))
    out = [
        Polyhedron(
            tuple(c for c, _ in box_rows + rows),
            tuple(b for _, b in box_rows + rows),
            n,
        )
        for rows in cells
    ]
    return out, pruned


def copy_atoms(node):
    """`node` with a new object for every occurrence of every atom."""
    if isinstance(node, LinearAtom):
        return LinearAtom(node.coeffs, node.rhs)
    if isinstance(node, Not):
        return Not(copy_atoms(node.child))
    return type(node)(tuple(map(copy_atoms, node.children)))


def random_formula(rng, atoms, depth):
    """Nested not/and/or over a small atom pool, so atoms repeat across
    subtrees; now and then an empty and/or, which is a constant."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice(atoms)
    if r < 0.35:
        return Not(random_formula(rng, atoms, depth - 1))
    if r < 0.37:
        return rng.choice((And(()), Or(())))
    kind = And if r < 0.6 else Or
    return kind(
        tuple(
            random_formula(rng, atoms, depth - 1)
            for _ in range(rng.randint(2, 3))
        )
    )


class TestDisjointifyReference:
    """Carried residuals and bounds give the cells of the plain decision tree."""

    @pytest.mark.parametrize(
        "circuit",
        (xor_detector(2), xor_detector(3), square_tester(3), constant_false(2)),
        ids=("xor2", "xor3", "square3", "false2"),
    )
    def test_stock_circuits(self, circuit):
        _, violation, _ = cnf_to_pa(circuit_to_3cnf(circuit))
        q = max(circuit.r, circuit.p, 1)
        box = LatticeBox((1 << circuit.r, 1 << circuit.p) + (1 << q,) * 3)
        var_order = ("x", "y", "z1", "z2", "z3")
        want, _ = disjointify_reference(violation, box, var_order)
        assert disjointify(violation, box, var_order) == want

    def test_random_formulas(self):
        rng = random.Random(24)
        pruning = splitting = 0
        for _ in range(1000):
            names = ("x", "y", "z")[: rng.randint(1, 3)]
            atoms = [
                LinearAtom.from_dict(
                    {v: rng.randint(-3, 3) for v in names}, rng.randint(-4, 10)
                )
                for _ in range(rng.randint(2, 6))
            ]
            body = random_formula(rng, atoms, 5)
            box = LatticeBox(tuple(rng.randint(1, 7) for _ in names))
            want, pruned = disjointify_reference(body, box, names)
            assert disjointify(body, box, names) == want
            pruning += pruned > 0
            splitting += len(want) > 1
        # most inputs prune some branch, and some split into several cells
        assert pruning >= 500 and splitting >= 150

    def test_encode_segment_searches_few_branches(self, monkeypatch):
        calls = []
        real = la.lattice_points

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(la, "lattice_points", counting)
        encode_segment(xor_detector(2))
        assert len(calls) <= 200

    def test_branches_propagate_only_their_new_rows(self, monkeypatch):
        # a branch's bounds already hold the propagation of its older rows,
        # so most calls name a settled prefix and sweep only the rows after it
        prefixed = []
        real = la.propagate_bounds

        def recording(rows, bounds, rounds, settled=0):
            prefixed.append(0 < settled < len(rows))
            return real(rows, bounds, rounds, settled)

        monkeypatch.setattr(la, "propagate_bounds", recording)
        encode_segment(xor_detector(2))
        assert sum(prefixed) >= 1000

    def test_equal_atoms_built_apart(self):
        # every occurrence of an atom is its own object, as a parser or an
        # encoder may build them; equal atoms still fold together
        rng = random.Random(28)
        for _ in range(300):
            names = ("x", "y", "z")[: rng.randint(1, 3)]
            atoms = [
                LinearAtom.from_dict(
                    {v: rng.randint(-2, 2) for v in names}, rng.randint(-3, 6)
                )
                for _ in range(rng.randint(1, 4))
            ]
            body = copy_atoms(random_formula(rng, atoms, 4))
            box = LatticeBox(tuple(rng.randint(1, 6) for _ in names))
            want, _ = disjointify_reference(body, box, names)
            assert disjointify(body, box, names) == want


class TestQfToGF:
    def test_even_segment_matches_product_form(self):
        r = 4
        f = parse_pa("E y [0,8) : x = 2*y")
        gf = qf_to_gf(f.body, (1 << r, 8), var_order=("x", "y"))
        proj = {p[0] for p in support_points(gf, (1 << r, 8))}
        # semantically equal to (1 - t^(2^r)) / (1 - t^2)
        comb = ShortGF(
            1,
            (GFTerm(1, (0,), ((2,),)), GFTerm(-1, (1 << r,), ((2,),))),
        )
        want = {p[0] for p in support_points(comb, (1 << r,))}
        assert proj == want

    def test_var_order_missing_a_variable(self):
        body = parse_pa("x <= 5 & y <= 2 & w >= 1").body
        with pytest.raises(ValueError, match=r"\['w', 'y'\]"):
            qf_to_gf(body, (8,), var_order=("x",))
        with pytest.raises(ValueError, match="y"):
            disjointify(body, (8, 8), var_order=("x", "w"))

    def test_contradiction_is_zero(self):
        f = parse_pa("x <= 1 & x >= 3")
        gf = qf_to_gf(f.body, (8,), var_order=("x",))
        assert evaluate_at_one(gf) == 0

    def test_random_support_matches_pointwise_eval(self):
        rng = random.Random(19)
        for _ in range(10):
            atoms = [
                LinearAtom.from_dict(
                    {"x": rng.randint(-2, 2), "y": rng.randint(-2, 2)},
                    rng.randint(-4, 8),
                )
                for _ in range(4)
            ]
            body = disj([conj(atoms[:2]), conj(atoms[2:])])
            gf = qf_to_gf(body, (8, 8), var_order=("x", "y"))
            truth = {
                (x, y)
                for x in range(8)
                for y in range(8)
                if eval_formula(PAFormula((), body, ("x", "y")), (x, y))
            }
            assert support_points(gf, (8, 8)) == truth

    def test_negation_duality(self):
        f = parse_pa("(x >= 2 & x <= 9) | x = 12")
        box = (16,)
        lhs = qf_to_gf(negate(f.body), box, var_order=("x",))
        rhs = complement_in_box(
            qf_to_gf(f.body, box, var_order=("x",)), box, check=False
        )
        assert gf_equal_on_box(lhs, rhs, box)


class TestFormulaLength:
    def test_monotone_in_constants(self):
        small = parse_pa("x <= 3")
        big = parse_pa("x <= 300000")
        assert formula_length(big) > formula_length(small)
