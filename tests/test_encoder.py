"""Circuit encodings: Tseitin CNF, bit systems, segment and gadget pipelines."""

import dataclasses
import hashlib
import random
from collections import Counter
from itertools import product

import pytest

from shortgf import (
    FormatError,
    LatticeBox,
    LinearAtom,
    PAFormula,
    QuantBlock,
    ResourceLimitError,
    SegmentEncoding,
    ShortGF,
    SpecializationError,
    alternating_pipeline,
    and_gate,
    bit_atoms,
    canonicalize,
    circuit_to_3cnf,
    cnf_to_pa,
    compress_encoding,
    conj,
    constant_false,
    count_certificates,
    disj,
    encode_alternating,
    encode_segment,
    enumerate_polytope_points,
    eval_formula,
    evaluate_at_one,
    even_detector,
    format_circuit,
    format_encoding,
    format_gf,
    formula_length,
    from_point_set,
    minkowski_gadget,
    negate,
    oracle_expand,
    parse_circuit,
    parse_encoding,
    parity3,
    polytope_gf,
    segment_gf,
    specialize_vars,
    square_tester,
    support_points,
    violation_projection_by_bits,
    xor_detector,
)
import shortgf._linalg
import shortgf.encoder
import shortgf.presburger
from shortgf.encoder import _literal_value, segment_gf as _segment_gf


def cnf_truth(cnf, x, y):
    return cnf.satisfied(x, y)


class TestCircuits:
    def test_parse_format_round_trip(self):
        text = "circuit r=3\ng1 = NOT x1\ng2 = AND g1 x2\nout g2\n"
        c = parse_circuit(text)
        assert format_circuit(c) == text
        assert c.truth_table() == [2, 6]  # x1 = 0, x2 = 1

    def test_reference_before_definition(self):
        with pytest.raises(FormatError):
            parse_circuit("circuit r=2\ng1 = AND g2 x1\nout g1\n")

    def test_gate_values_are_functions_of_input(self):
        c = parity3()
        for x in range(8):
            out1, y1 = c.gate_values(x)
            out2, y2 = c.gate_values(x)
            assert (out1, y1) == (out2, y2)


class TestCircuitTo3CNF:
    def test_not_gate_satisfying_pairs(self):
        c = even_detector(1)
        cnf = circuit_to_3cnf(c)
        sats = [
            (x, y)
            for x in range(2)
            for y in range(2)
            if cnf.satisfied(x, y)
        ]
        # gate bit equals NOT x1, and the output clause keeps only accepted x
        assert sats == [(0, 1)]

    def test_and_accepted_set(self):
        c = and_gate(2, 1, 2)
        cnf = circuit_to_3cnf(c)
        accepted = {
            x
            for x in range(4)
            if any(cnf.satisfied(x, y) for y in range(1 << cnf.p))
        }
        assert accepted == {3}

    def test_parity_truth_table(self):
        c = parity3()
        cnf = circuit_to_3cnf(c)
        got = {
            x
            for x in range(8)
            if any(cnf.satisfied(x, y) for y in range(1 << cnf.p))
        }
        assert got == set(c.truth_table())

    def test_witness_unique(self):
        c = xor_detector(3)
        cnf = circuit_to_3cnf(c)
        for x in range(8):
            ys = [y for y in range(1 << cnf.p) if cnf.satisfied(x, y)]
            assert len(ys) <= 1
            if ys:
                assert c.accepts(x)


class TestBitAtoms:
    def test_bit_semantics_exhaustive(self):
        for i, x in product(range(1, 5), range(16)):
            want = (x >> (i - 1)) & 1
            for polarity in (True, False):
                atoms = bit_atoms(i, polarity, "x", "z")
                holds = any(
                    all(a.evaluate({"x": x, "z": z}) for a in atoms)
                    for z in range(16)
                )
                assert holds == (bool(want) == polarity)

    def test_example_bit_two_of_five(self):
        pos = bit_atoms(2, True, "x", "z")
        neg = bit_atoms(2, False, "x", "z")
        assert not any(
            all(a.evaluate({"x": 5, "z": z}) for a in pos) for z in range(8)
        )
        assert any(
            all(a.evaluate({"x": 5, "z": z}) for a in neg) for z in range(8)
        )
        # the witness for the negative-polarity atom is z = 1
        assert all(a.evaluate({"x": 5, "z": 1}) for a in neg)

    def test_low_bit_of_five(self):
        pos = bit_atoms(1, True, "x", "z")
        assert any(
            all(a.evaluate({"x": 5, "z": z}) for a in pos) for z in range(8)
        )


class TestCnfToPA:
    def test_empty_cnf_is_all_true(self):
        from shortgf.encoder import CNF3

        cnf = CNF3(2, 0, ())
        formula, violation, q = cnf_to_pa(cnf)
        assert violation is None
        for x in range(4):
            assert eval_formula(formula, (x,))

    def test_not_gate_truth_set(self):
        c = even_detector(2)
        cnf = circuit_to_3cnf(c)
        formula, violation, q = cnf_to_pa(cnf)
        got = {x for x in range(4) if eval_formula(formula, (x,))}
        assert got == {0, 2}

    def test_one_object_per_distinct_atom(self):
        formula, violation, _ = cnf_to_pa(circuit_to_3cnf(xor_detector(2)))
        atoms = []

        def collect(node):
            if isinstance(node, LinearAtom):
                atoms.append(node)
            else:
                for child in node.children:
                    collect(child)

        collect(formula.body)
        collect(violation)
        assert len(atoms) == 168
        assert len({id(a) for a in atoms}) == len(set(atoms)) == 102

    def test_length_grows_linearly_in_clauses(self):
        lengths = []
        for r in (2, 3):
            for circ in (even_detector(r), and_gate(r, 1, r)):
                cnf = circuit_to_3cnf(circ)
                formula, _, _ = cnf_to_pa(cnf)
                lengths.append((len(cnf.clauses), formula_length(formula)))
        # more clauses never shrink the formula
        lengths.sort()
        for (c1, l1), (c2, l2) in zip(lengths, lengths[1:]):
            if c1 < c2:
                assert l1 < l2


class TestEncodeSegment:
    def test_even_detector(self):
        enc = encode_segment(even_detector(3))
        seg = segment_gf(enc)
        assert {p[0] for p in support_points(seg, (8,))} == {0, 2, 4, 6}

    def test_constant_false_is_empty(self):
        enc = encode_segment(constant_false(3))
        seg = segment_gf(enc)
        assert support_points(seg, (8,)) == set()

    def test_square_tester(self):
        enc = encode_segment(square_tester(3))
        seg = segment_gf(enc)
        assert {p[0] for p in support_points(seg, (8,))} == {0, 1, 4}

    def test_piece_union_matches_bit_oracle(self):
        enc = encode_segment(xor_detector(3))
        assert enc.proj_points() == violation_projection_by_bits(
            enc.cnf, enc.box
        )

    def test_region_count_matches_cells(self):
        enc = encode_segment(even_detector(3))
        total = sum(len(pts) for pts in enc.cell_points)
        assert evaluate_at_one(enc.fr) == total

    def test_encoding_format_round_trip(self):
        enc = encode_segment(even_detector(3))
        text = format_encoding(enc)
        back = parse_encoding(text)
        assert back.r == enc.r and back.p == enc.p and back.q == enc.q
        assert back.fr.terms == enc.fr.terms
        assert [p.terms for p in back.pieces] == [p.terms for p in enc.pieces]
        seg = segment_gf(back)
        assert {p[0] for p in support_points(seg, (8,))} == {0, 2, 4, 6}

    def test_segment_gf_rejects_a_dropped_piece(self):
        enc = encode_segment(xor_detector(2))
        full = enc.proj_points()
        for i in range(len(enc.pieces)):
            short = dataclasses.replace(
                enc, pieces=enc.pieces[:i] + enc.pieces[i + 1:]
            )
            if short.proj_points() != full:
                break
        else:
            pytest.fail("every piece is covered by the others")
        with pytest.raises(ValueError, match="piece union"):
            segment_gf(short)

    def test_segment_gf_rejects_two_witnesses(self, monkeypatch):
        # with the union check passed by a short oracle, a dropped piece can
        # leave two y for some x in the complement: the first such x in
        # (x, y) order is reported with its first two y
        enc = encode_segment(xor_detector(2))
        x_side, y_side = enc.box.sides
        for i in range(len(enc.pieces)):
            short = dataclasses.replace(
                enc, pieces=enc.pieces[:i] + enc.pieces[i + 1:]
            )
            proj = short.proj_points()
            doubles = [
                (x, ys)
                for x in range(x_side)
                for ys in [[y for y in range(y_side) if (x, y) not in proj]]
                if len(ys) > 1
            ]
            if doubles:
                break
        else:
            pytest.fail("no dropped piece leaves two witnesses")
        monkeypatch.setattr(
            shortgf.encoder, "violation_projection_by_bits", lambda cnf, box: proj
        )
        x, ys = doubles[0]
        with pytest.raises(SpecializationError) as info:
            segment_gf(short)
        err = info.value
        assert (err.point, err.witness_a, err.witness_b) == ((x,), (ys[0],), (ys[1],))

    @pytest.mark.parametrize(
        "packed, old, new, error",
        [
            (False, "r=3 ", "r=4 ", "does not match its circuit"),
            (False, "p=1 ", "p=2 ", "does not match its circuit"),
            (False, "q=3 ", "q=1 ", "does not match its circuit"),
            (False, "zdims=3", "zdims=2", "zdims must be 1 or 3"),
            (False, "zdims=3", "zdims=1", "wrong number of variables"),
            (True, "zdims=1", "zdims=3", "wrong number of variables"),
            (False, "npieces=3 ", "npieces=7 ", "npieces=7 over 3 piece sections"),
        ],
        ids=["r", "p", "q", "zdims", "unpacked-fr", "packed-fr", "npieces"],
    )
    def test_parse_encoding_checks_its_header(self, packed, old, new, error):
        enc = encode_segment(even_detector(3))
        if packed:
            enc = compress_encoding(enc)
        text = format_encoding(enc)
        header, rest = text.split("\n", 1)
        assert old in header
        with pytest.raises(FormatError, match=error):
            parse_encoding(header.replace(old, new) + "\n" + rest)


class TestSegmentGeometry:
    # every box of an encoding follows from the circuit: r inputs, p gates
    # and the witness range q = max(r, p, 1)
    def test_fields_are_what_cannot_be_derived(self):
        assert [f.name for f in dataclasses.fields(SegmentEncoding)] == [
            "circuit", "pieces", "tau", "cell_points", "cells", "_fr",
        ]

    def test_xor_detector_2(self):
        enc = encode_segment(xor_detector(2))
        assert (enc.r, enc.p, enc.q, enc.zdims) == (2, 5, 5, 3)
        assert enc.box == LatticeBox((4, 32))
        assert enc.full_box == LatticeBox((4, 32, 32, 32, 32))
        assert enc.cnf == circuit_to_3cnf(enc.circuit)
        packed = compress_encoding(enc)
        back = parse_encoding(format_encoding(packed))
        for e in (packed, back):
            assert (e.r, e.p, e.q, e.zdims, e.tau.N) == (2, 5, 5, 1, 32)
            assert e.box == LatticeBox((4, 32))
            assert e.full_box == LatticeBox((4, 32, 32768))


class TestCompressEncoding:
    def test_even_detector_packed(self):
        enc = encode_segment(even_detector(3))
        packed = compress_encoding(enc)
        assert packed.zdims == 1
        assert evaluate_at_one(packed.fr) == evaluate_at_one(enc.fr)
        seg = segment_gf(packed)
        assert {p[0] for p in support_points(seg, (8,))} == {0, 2, 4, 6}

    def test_projections_unchanged(self):
        enc = encode_segment(xor_detector(3))
        packed = compress_encoding(enc)
        assert packed.proj_points() == enc.proj_points()

    def test_packed_encoding_is_not_packed_again(self):
        packed = compress_encoding(encode_segment(even_detector(3)))
        with pytest.raises(ValueError):
            compress_encoding(packed)


class TestLazyRegionGF:
    # sha256 of format_encoding, unpacked and packed, as produced by the
    # eager region-GF construction with the moment-curve lambda; a lazy fr
    # must not change a byte
    FORMAT_SHA256 = {
        ("even_detector(3)", False): "8a4e282a9203b9ee0c2261927062e773b3cacee5f92012da06240e3d4352a588",
        ("even_detector(3)", True): "908a1a3ee534fcacc213c30a046e64265e865bfab9d68ef4f286a40c329c599f",
        ("xor_detector(2)", False): "d8b55a0c391c5e43886ab574595ed4a49735ab8ee5c7dff844d77b7f6674764c",
        ("xor_detector(2)", True): "affb1d51f8e639d997ce378767078ea72d707449d0d0a12dc4ce82deb9e1e987",
    }

    def test_segment_gf_never_builds_fr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("polytope_gf called")

        monkeypatch.setattr(shortgf.presburger, "polytope_gf", refuse)
        enc = encode_segment(even_detector(3))
        seg = segment_gf(enc)
        assert {p[0] for p in support_points(seg, (8,))} == {0, 2, 4, 6}
        with pytest.raises(AssertionError, match="polytope_gf called"):
            enc.fr

    def test_fr_built_once(self, monkeypatch):
        calls = []
        real = shortgf.presburger.polytope_gf

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(shortgf.presburger, "polytope_gf", counting)
        enc = encode_segment(even_detector(3))
        assert calls == []
        first = enc.fr
        assert len(calls) == len(enc.pieces) == len(enc.cells)
        assert enc.fr is first
        assert len(calls) == len(enc.pieces)

    def test_fr_checks_every_cell_is_bounded(self, monkeypatch):
        checked = []
        real = shortgf._linalg.is_bounded

        def recording(rows, n):
            checked.append(real(rows, n))
            return checked[-1]

        monkeypatch.setattr(shortgf._linalg, "is_bounded", recording)
        enc = encode_segment(xor_detector(2))
        checked.clear()
        fr = enc.fr
        assert checked == [True] * len(enc.cells)
        gfs = [polytope_gf(cell) for cell in enc.cells]
        assert [evaluate_at_one(g) for g in gfs] == [len(p) for p in enc.cell_points]
        terms = tuple(t for g in gfs for t in g.terms)
        assert canonicalize(ShortGF(fr.nvars, terms)) == fr

    CIRCUITS = {"even_detector(3)": even_detector(3), "xor_detector(2)": xor_detector(2)}

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_cell_points_match_polytope_enumeration(self, name):
        enc = encode_segment(self.CIRCUITS[name])
        assert len(enc.cell_points) == len(enc.cells) > 0
        for cell, pts in zip(enc.cells, enc.cell_points):
            assert pts == tuple(enumerate_polytope_points(cell))

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_format_bytes_unchanged(self, name):
        enc = encode_segment(self.CIRCUITS[name])
        for packed, e in ((False, enc), (True, compress_encoding(enc))):
            digest = hashlib.sha256(format_encoding(e).encode()).hexdigest()
            assert digest == self.FORMAT_SHA256[(name, packed)]

    # the exponential-substitution limits are exact: the count of the packed
    # region GF and the bytes of a collapsed specialization are fixed
    SPECIALIZE_SHA256 = "431d2d027a80db0830e4d5a82688a7c4b3a173cb340fcf9e2a7db371b2694865"

    def test_limits_unchanged(self):
        enc = encode_segment(xor_detector(2))
        assert evaluate_at_one(compress_encoding(enc).fr) == 347
        text = format_gf(specialize_vars(enc.fr, [0]))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SPECIALIZE_SHA256

    def test_collapsed_series_counts_points_by_x(self):
        # the bytes of a collapsed specialization depend on lambda; its
        # series must not, and must count the cells' points by x
        enc = encode_segment(xor_detector(2))
        want = Counter(pt[0] for pts in enc.cell_points for pt in pts)
        assert sum(want.values()) == 347
        f = specialize_vars(enc.fr, [0])
        digest = hashlib.sha256(format_gf(f).encode()).hexdigest()
        assert digest == self.SPECIALIZE_SHA256
        table = oracle_expand(f, LatticeBox((8,))).support_with_values()
        assert table == {(x,): c for x, c in want.items()}
        assert evaluate_at_one(f) == 347


class TestAlternating:
    def test_exists_prefix_matches_direct(self):
        # accepted: exists a certificate bit c with (x1 AND c) true
        circ = and_gate(3, 1, 3)  # input bits: x1, x2 | certificate bit
        pipeline, accepted = encode_alternating(circ, "E", cert_bits=1)
        want = tuple(
            x
            for x in range(4)
            if any(and_gate(3, 1, 3).accepts(x | (c << 2)) for c in range(2))
        )
        assert accepted == want
        assert pipeline.accepted == tuple((x,) for x in want)

    def test_forall_prefix_is_complement(self):
        circ = and_gate(3, 1, 3)
        _, exists_set = encode_alternating(circ, "E", cert_bits=1)
        # forall over the negated acceptance is the complement language
        _, forall_set = encode_alternating(circ, "A", cert_bits=1)
        universe = set(range(4))
        assert set(forall_set) == {
            x
            for x in universe
            if all(circ.accepts(x | (c << 2)) for c in range(2))
        }

    def test_empty_prefix_degenerates_to_segment(self):
        _, accepted = encode_alternating(even_detector(3), "")
        assert accepted == (0, 2, 4, 6)

    @pytest.mark.parametrize("prefix", ["E", "A"])
    def test_xor3_one_certificate_bit_matches_brute_force(self, prefix):
        circ = xor_detector(3)  # instance bits x1, x2 | certificate bit x3
        quant = any if prefix == "E" else all
        want = tuple(
            x for x in range(4) if quant(circ.accepts(x | (c << 2)) for c in range(2))
        )
        pipeline, accepted = encode_alternating(circ, prefix, cert_bits=1)
        assert accepted == want == (1, 2)
        assert pipeline.negated  # the innermost block of cnf_to_pa is forall

    @pytest.mark.parametrize("circuit", [even_detector(3), xor_detector(2)])
    def test_empty_prefix_support_matches_segment_gf(self, circuit):
        seg = segment_gf(encode_segment(circuit))
        want = tuple(sorted(pt[0] for pt in support_points(seg, (1 << circuit.r,))))
        _, accepted = encode_alternating(circuit, "")
        assert accepted == want

    def test_empty_prefix_rejects_certificate_bits(self):
        with pytest.raises(ValueError):
            encode_alternating(xor_detector(3), "", cert_bits=1)

    @pytest.mark.parametrize("prefix, cert_bits", [("EA", 1), ("E", 3), ("A", 3)])
    def test_encode_alternating_rejects(self, prefix, cert_bits):
        # more than one block, or a certificate that takes every input bit
        with pytest.raises(ValueError):
            encode_alternating(xor_detector(3), prefix, cert_bits=cert_bits)

    @pytest.mark.parametrize("sides", [(4,), (4, 2, 2), (4, -1)])
    def test_pipeline_rejects_a_bad_box(self, sides):
        body = LinearAtom.from_dict({"x": 1, "z": 1}, 3)
        formula = PAFormula((QuantBlock("E", ("z",), 2),), body, ("x",))
        with pytest.raises(ValueError, match="box"):
            alternating_pipeline(formula, sides)

    @pytest.mark.parametrize(
        "kinds", [(), ("E",), ("A",), ("E", "A"), ("A", "E"), ("E", "A", "E")]
    )
    def test_pipeline_matches_eval_formula(self, kinds):
        rng = random.Random(7 + len(kinds) * 10 + kinds.count("A"))
        names = ("y", "z", "w")[: len(kinds)]
        for _ in range(8):
            sides = (rng.randint(3, 6),) + tuple(rng.randint(2, 4) for _ in kinds)

            def atom():
                coeffs = {n: rng.randint(-2, 2) for n in ("x",) + names}
                return LinearAtom.from_dict(coeffs, rng.randint(-3, 8))

            lits = [atom() if rng.random() < 0.7 else negate(atom()) for _ in range(4)]
            body = disj([conj(lits[:2]), conj(lits[2:])])
            blocks = tuple(
                QuantBlock(k, (n,), s) for k, n, s in zip(kinds, names, sides[1:])
            )
            formula = PAFormula(blocks, body, ("x",))
            pipeline = alternating_pipeline(formula, sides)
            want = tuple(
                (x,) for x in range(sides[0]) if eval_formula(formula, (x,))
            )
            assert pipeline.accepted == want
            assert pipeline.negated == (kinds[-1:] == ("A",))

    def test_limit_bounds_enumerated_points(self):
        # x + z <= 100 holds on the whole box, so for forall z the negated
        # region is empty and only the free-variable box is enumerated
        body = LinearAtom.from_dict({"x": 1, "z": 1}, 100)
        formula = PAFormula((QuantBlock("A", ("z",), 2),), body, ("x",))
        assert len(alternating_pipeline(formula, (30, 2), limit=30).accepted) == 30
        with pytest.raises(ResourceLimitError):
            alternating_pipeline(formula, (50, 2), limit=30)
        # exists z: the region itself has 100 points
        formula = PAFormula((QuantBlock("E", ("z",), 2),), body, ("x",))
        assert alternating_pipeline(formula, (50, 2), limit=100).accepted
        with pytest.raises(ResourceLimitError):
            alternating_pipeline(formula, (50, 2), limit=99)


class TestCountCertificates:
    def test_diagonal(self):
        r = 2
        step = 1 << r
        diag = from_point_set([(x + step * x,) for x in range(step)], 1)
        for x in range(step):
            assert count_certificates(diag, x, r) == 1

    def test_full(self):
        r = 2
        step = 1 << r
        full = from_point_set(
            [(x + step * c,) for x in range(step) for c in range(step)], 1
        )
        for x in range(step):
            assert count_certificates(full, x, r) == step

    def test_random_tables(self):
        rng = random.Random(61)
        r = 3
        step = 1 << r
        table = {
            (x, c): rng.random() < 0.5
            for x in range(step)
            for c in range(step)
        }
        gf = from_point_set(
            [(x + step * c,) for (x, c), ok in table.items() if ok], 1
        )
        for x in range(step):
            want = sum(1 for c in range(step) if table[(x, c)])
            assert count_certificates(gf, x, r) == want


class TestMinkowskiGadget:
    def test_two_singletons(self):
        pieces = [from_point_set([(1,)], 1), from_point_set([(2,)], 1)]
        gadget = minkowski_gadget(pieces, 8)
        assert gadget.slice_points == (1, 2)
        assert gadget.ok

    def test_single_piece(self):
        piece = from_point_set([(3,), (5,)], 1)
        gadget = minkowski_gadget([piece], 8)
        assert gadget.slice_points == (3, 5)
        assert gadget.ok

    def test_three_random_pieces(self):
        rng = random.Random(67)
        pieces = [
            from_point_set(
                sorted({(rng.randrange(8),) for _ in range(rng.randint(1, 4))}),
                1,
            )
            for _ in range(3)
        ]
        gadget = minkowski_gadget(pieces, 8)
        assert gadget.ok
