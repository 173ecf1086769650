"""Command-line behavior: verbs, exit codes, determinism."""

import os
import subprocess
import sys

import pytest

import shortgf
from shortgf import (
    LatticeBox,
    Polyhedron,
    box_range_gf,
    choose_tau,
    compress,
    compress_encoding,
    encode_segment,
    format_circuit,
    format_encoding,
    polytope_gf,
    write_gf,
    xor_detector,
)
from shortgf.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "f.gf"
    path.write_text(
        "gf nvars=1 index=1\n"
        "term c=1/1 a=0 b=1\n"
        "term c=-1/1 a=4 b=1\n"
    )
    return str(path)


@pytest.fixture
def evens_file(tmp_path):
    path = tmp_path / "g.gf"
    path.write_text(
        "gf nvars=1 index=1\n"
        "term c=1/1 a=0 b=2\n"
        "term c=-1/1 a=8 b=2\n"
    )
    return str(path)


@pytest.fixture
def two_witness_file(tmp_path):
    """The points (0, 0) and (0, 5): x = 0 has two witnesses y, x = 1 none."""
    path = tmp_path / "w.gf"
    path.write_text(
        "gf nvars=2 index=0\n"
        "term c=1/1 a=0,0 b=\n"
        "term c=1/1 a=0,5 b=\n"
    )
    return str(path)


class TestBasicVerbs:
    def test_count(self, interval_file, capsys):
        code, out, err = run_cli(["count", interval_file], capsys)
        assert code == 0
        assert out.strip() == "4"
        assert "seed=0" in err

    def test_coeff(self, interval_file, capsys):
        code, out, _ = run_cli(
            ["coeff", interval_file, "--point", "2"], capsys
        )
        assert code == 0
        assert out.strip() == "1"

    def test_norm(self, interval_file, capsys):
        code, out, _ = run_cli(["norm", interval_file, "--box", "8"], capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_norm_in_a_huge_box(self, tmp_path, capsys):
        path = tmp_path / "slab.gf"
        write_gf(box_range_gf([3, 5], [2**40 - 1, 2**39]), str(path))
        code, out, _ = run_cli(
            ["norm", str(path), "--box", "1099511627776,1099511627776"], capsys
        )
        assert code == 0
        assert out.strip() == f"{2**40 - 1},{2**39}"

    def test_intersect_then_count(
        self, interval_file, evens_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "c.gf")
        code, _, _ = run_cli(
            [
                "op", "intersect", interval_file, evens_file,
                "--box", "8", "-o", out_path,
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(["count", out_path], capsys)
        assert code == 0
        assert out.strip() == "2"  # {0, 2}

    def test_project(self, tmp_path, capsys):
        path = tmp_path / "h.gf"
        path.write_text(
            "gf nvars=2 index=0\n"
            "term c=1/1 a=0,0 b=\n"
            "term c=1/1 a=1,5 b=\n"
        )
        code, out, _ = run_cli(
            ["project", str(path), "--keep", "0", "--box", "2,8"], capsys
        )
        assert code == 0
        assert "a=0" in out and "a=1" in out

    def test_project_anti(self, two_witness_file, capsys):
        code, out, _ = run_cli(
            ["project", two_witness_file, "--keep", "0", "--box", "2,8",
             "--mode", "anti"],
            capsys,
        )
        assert code == 0
        assert "a=1 " in out and "a=0 " not in out


class TestErrors:
    def test_specialize_with_two_witnesses_exits_two(self, two_witness_file, capsys):
        code, out, err = run_cli(
            ["project", two_witness_file, "--keep", "0", "--box", "2,8",
             "--mode", "specialize"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "two witnesses" in err

    def test_unknown_verb_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_corrupt_gf_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.gf"
        path.write_text("not a gf file\n")
        code, _, err = run_cli(["count", str(path)], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run_cli(["count", "/nonexistent/f.gf"], capsys)
        assert code == 2

    def test_box_of_wrong_arity_exits_two(self, two_witness_file, capsys):
        code, out, err = run_cli(
            ["project", two_witness_file, "--keep", "0", "--box", "2,8,3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "box arity does not match nvars" in err

    def test_hadamard_box_of_wrong_arity_exits_two(
        self, interval_file, evens_file, capsys
    ):
        code, out, err = run_cli(
            ["op", "hadamard", interval_file, evens_file, "--box", "8,8"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "box arity does not match nvars" in err

    def test_compress_groups_not_covering_the_gf_exit_two(self, tmp_path, capsys):
        path = tmp_path / "f.gf"
        path.write_text(
            "gf nvars=3 index=0\n"
            "term c=1/1 a=0,0,1 b=\n"
            "term c=1/1 a=0,0,2 b=\n"
            "term c=1/1 a=1,0,1 b=\n"
        )
        code, out, err = run_cli(
            ["op", "compress", str(path), "--groups", "1,1", "--box", "4"], capsys
        )
        assert code == 2
        assert out == ""
        assert "error: the exponent map must have 2 rows of 3 entries" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("keep", ["5", "-1", "0,0"])
    def test_project_keep_out_of_range_exits_two(self, two_witness_file, keep, capsys):
        code, out, err = run_cli(
            ["project", two_witness_file, "--keep", keep, "--box", "4"], capsys
        )
        assert code == 2
        assert out == ""
        assert "error: keep must hold distinct coordinates of range(2)" in err
        assert "Traceback" not in err

    def test_count_infinite_support_exits_two(self, tmp_path, capsys):
        path = tmp_path / "geom.gf"
        path.write_text("gf nvars=1 index=1\nterm c=1/1 a=0 b=1\n")
        code, out, err = run_cli(["count", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "finite support" in err


class TestEncodePipeline:
    def test_encode_then_segment(self, tmp_path, capsys):
        circ = tmp_path / "even.circ"
        circ.write_text("circuit r=3\ng1 = NOT x1\nout g1\n")
        enc = tmp_path / "even.enc"
        code, _, _ = run_cli(
            ["encode", "--circuit", str(circ), "-o", str(enc)], capsys
        )
        assert code == 0
        code, out, _ = run_cli(["segment", str(enc)], capsys)
        assert code == 0
        assert out.strip() == "0 2 4 6"

    def test_alt_membership(self, tmp_path, capsys):
        circ = tmp_path / "a.circ"
        circ.write_text("circuit r=3\ng1 = AND x1 x3\nout g1\n")
        code, out, _ = run_cli(
            ["alt", "--prefix", "E", "--circuit", str(circ), "--cert-bits", "1"],
            capsys,
        )
        assert code == 0
        # exists certificate bit (input 3) making x1 AND cert true: odd x
        assert out.strip() == "1 3"

    def test_alt_forall_prefix(self, tmp_path, capsys):
        circ = tmp_path / "o.circ"
        circ.write_text("circuit r=3\ng1 = OR x1 x3\nout g1\n")
        code, out, _ = run_cli(
            ["alt", "--prefix", "A", "--circuit", str(circ), "--cert-bits", "1"],
            capsys,
        )
        assert code == 0
        # x1 OR cert holds for both certificate bits exactly when x1 is set
        assert out.strip() == "1 3"

    def test_alt_empty_prefix(self, tmp_path, capsys):
        circ = tmp_path / "a.circ"
        circ.write_text("circuit r=3\ng1 = AND x1 x3\nout g1\n")
        code, out, _ = run_cli(["alt", "--prefix", "", "--circuit", str(circ)], capsys)
        assert code == 0
        assert out.strip() == "5 7"
        code, _, err = run_cli(
            ["alt", "--prefix", "", "--circuit", str(circ), "--cert-bits", "1"],
            capsys,
        )
        assert code == 2 and "certificate" in err


class TestDemos:
    def test_demo_squares(self, capsys):
        code, out, _ = run_cli(["demo", "squares", "--r", "6"], capsys)
        assert code == 0
        assert "0 1 4 9 16 25 36 49" in out

    def test_demo_squares_past_the_cap_exits_three(self, capsys):
        code, out, err = run_cli(["demo", "squares", "--r", "200"], capsys)
        assert code == 3 and out == "" and "more than" in err

    def test_demo_factor(self, capsys):
        code, out, _ = run_cli(
            ["demo", "factor", "--n", "77", "--sigma", "96"], capsys
        )
        assert code == 0
        assert "77 = 7 * 11" in out

    def test_demo_pi(self, capsys):
        code, out, _ = run_cli(["demo", "pi", "--n", "100"], capsys)
        assert code == 0
        assert out.strip() == "25"

    def test_demo_ap(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("1 5 9 13\n")
        code, out, _ = run_cli(
            ["demo", "ap", "--set", str(path), "--k", "4"], capsys
        )
        assert code == 0
        assert "difference=4" in out


class TestDeterminism:
    def test_byte_identical_outputs(self, interval_file, evens_file, tmp_path):
        cmd = [
            sys.executable, "-m", "shortgf",
            "op", "hadamard", interval_file, evens_file, "--box", "8",
        ]
        # the child imports the same package as this process
        src = os.path.dirname(os.path.dirname(shortgf.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestSeedIndependence:
    """`--seed` seeds only `selftest`: every other verb writes the same
    stdout and the same `-o` file under any seed."""

    @pytest.fixture
    def inputs(self, tmp_path):
        # a clipped triangle and a box; decompressing the packed triangle
        # takes the collapse path of `substitute`, where lambda is chosen
        rows = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 2))
        f = polytope_gf(Polyhedron(rows, (7, 0, 7, 0, 12), 2))
        tau = choose_tau(f, (2,), box=LatticeBox((8, 8)))
        enc = compress_encoding(encode_segment(xor_detector(2)))
        paths = {
            "f": tmp_path / "f.gf",
            "g": tmp_path / "g.gf",
            "packed": tmp_path / "packed.gf",
            "circuit": tmp_path / "xor.circ",
            "encoding": tmp_path / "xor.enc",
        }
        write_gf(f, str(paths["f"]))
        write_gf(box_range_gf([1, 0], [6, 5]), str(paths["g"]))
        write_gf(compress(f, tau), str(paths["packed"]))
        paths["circuit"].write_text(format_circuit(xor_detector(2)))
        paths["encoding"].write_text(format_encoding(enc))
        paths = {k: str(v) for k, v in paths.items()}
        paths["base"] = str(tau.N)
        return paths

    # argument templates: {name} is an input path, {out} the -o path
    VERBS = {
        "count": "count {f}",
        "coeff": "coeff {f} --point 4,3",
        "norm": "norm {f} --box 8",
        "op intersect": "op intersect {f} {g} --box 8 -o {out}",
        "op union": "op union {f} {g} --box 8 -o {out}",
        "op minus": "op minus {f} {g} --box 8 -o {out}",
        "op hadamard": "op hadamard {f} {g} --box 8 -o {out}",
        "op decompress": "op decompress {packed} --base {base} --groups 2 -o {out}",
        "project": "project {f} --keep 0 --box 8,8 -o {out}",
        "encode --pack": "encode --pack --circuit {circuit} -o {out}",
        "segment": "segment {encoding} -o {out}",
        "alt": "alt --prefix E --circuit {circuit}",
        "demo pi": "demo pi --n 100",
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_same_bytes_for_every_seed(self, verb, inputs, tmp_path, capsys):
        outputs = []
        for seed in ("0", "5"):
            path = tmp_path / f"out-{seed}"
            args = [
                token.format(out=path, **inputs) for token in self.VERBS[verb].split()
            ]
            code, out, _ = run_cli(["--seed", seed, *args], capsys)
            assert code == 0
            outputs.append((out, path.read_bytes() if path.exists() else None))
        assert outputs[0] == outputs[1]
        assert any(outputs[0])
