import ast
import io
from itertools import combinations

import pytest

from omkit.cli import main
from omkit.corpus import CORPUS_NAMES, corpus
from omkit.lattices import build_lattice
from omkit.omfile import OMFileError, Report, format_system, parse_om_text
from side_lemmas import contraction


def run_with_stderr(capsys, argv, stdin: str = ""):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, argv, stdin: str = ""):
    code, out, _ = run_with_stderr(capsys, argv, stdin)
    return code, out


def om_text(name):
    return format_system(corpus(name))


def test_round_trip_all_corpus():
    for name in CORPUS_NAMES:
        system = corpus(name)
        text = format_system(system)
        again = parse_om_text(text).to_system()
        assert again.vectors() == system.vectors()
        assert again.ground == system.ground
        # renders are byte-deterministic
        assert format_system(again) == text


def test_round_trip_localizations_and_contractions(all_corpus):
    # over the empty ground (localization at {}, contraction at the whole
    # ground) the one covector is the zero vector, written as an empty line
    for name, system in all_corpus.items():
        for flat in build_lattice(system).flats:
            for derived in (system.localization(flat)[0], contraction(system, flat)):
                again = parse_om_text(format_system(derived)).to_system()
                assert again.vectors() == derived.vectors(), (name, flat)


def test_empty_ground_output_reads_back(capsys):
    code, out = run(capsys, ["localize", "--flat", "{}"], stdin=om_text("rank1"))
    assert (code, out) == (0, "ground: \ncovectors:\n\n")
    assert run(capsys, ["check-axioms"], stdin=out)[0] == 0
    code, out = run(capsys, ["simplify"], stdin="ground: a\ncovectors:\n0\n")
    assert (code, out) == (0, "ground: \ncovectors:\n\n")
    assert run(capsys, ["check-axioms"], stdin=out)[0] == 0


def test_empty_ground_topes_read_back_as_topes_only(capsys):
    # the one tope over the empty ground is the empty line, as the zero
    # covector is, so the topes-only file gets its own refusal
    _, out = run(capsys, ["localize", "--flat", "{}"], stdin=om_text("rank1"))
    code, out = run(capsys, ["topes"], stdin=out)
    assert (code, out) == (0, "ground: \ntopes:\n\n")
    code, _, err = run_with_stderr(capsys, ["check-axioms"], stdin=out)
    assert (code, err) == (2, "error: file lists topes only; covector operations need the full system\n")


def test_topes_only_files_parse_but_refuse_system_ops():
    system = corpus("uniform-2-3")
    from omkit.omfile import format_topes

    text = format_topes(system)
    record = parse_om_text(text)
    with pytest.raises(OMFileError):
        record.to_system()


def test_arrangement_section_round_trip():
    text = "ground: a b c\narrangement:\n1 0\n0 1\n1 1\n"
    system = parse_om_text(text).to_system()
    assert system.topes().bit_count() == 6


def test_parse_rejects_malformed():
    with pytest.raises(OMFileError):
        parse_om_text("covectors:\n++\n")  # no ground
    with pytest.raises(OMFileError):
        parse_om_text("ground: a b\ncovectors:\n+++\n")  # wrong width
    with pytest.raises(OMFileError):
        parse_om_text("ground: a b\ncovectors:\n++\n++\n")  # duplicate
    with pytest.raises(OMFileError):
        parse_om_text("ground: a b\ncovectors:\n++\n")  # zero missing
    with pytest.raises(OMFileError, match="duplicate ground label 'a'"):
        parse_om_text("ground: a a\ncovectors:\n00\n++\n--\n")
    # flat ids join labels with commas and name the empty flat {}
    with pytest.raises(OMFileError, match="ground label 'a,b' contains a comma"):
        parse_om_text("ground: a,b c\ncovectors:\n00\n++\n--\n")
    with pytest.raises(OMFileError, match="ground label '{}' is the empty flat's id"):
        parse_om_text("ground: a {}\ncovectors:\n00\n++\n--\n")
    with pytest.raises(OMFileError, match="zero denominator in '1/0'"):
        parse_om_text("ground: a b\narrangement:\n1 0\n1/0 1\n")


def test_corpus_pipe_check_axioms(capsys):
    code, out = run(capsys, ["corpus", "rank1"])
    assert code == 0
    code, report = run(capsys, ["check-axioms"], stdin=out)
    assert code == 0
    assert "axiom4.elimination: PASS" in report
    assert report.strip().endswith("verdict: PASS")


def test_check_axioms_fails_on_mutation(capsys):
    system = corpus("sec3-arrangement")
    t = system.covector_poset().names_of(system.topes())[0]
    mutated = format_system(system).replace(f"\n{t}\n", "\n")
    code, report = run(capsys, ["check-axioms"], stdin=mutated)
    assert code == 1
    assert "axiom3.composition: FAIL" in report
    assert "witness=" in report


def test_lattice_and_modular(capsys):
    text = om_text("sec3-arrangement")
    code, out = run(capsys, ["lattice"], stdin=text)
    assert code == 0
    assert "whitney: 1 5 8 4" in out
    code, out = run(capsys, ["modular", "H1,H2,H3"], stdin=text)
    assert code == 0
    code, out = run(capsys, ["modular", "H2,H4"], stdin=text)
    assert code == 1
    assert "witness=" in out


LOOP_C = "ground: a b c\ncovectors:\n" + "".join(
    f"{row}\n" for row in ["000", "+00", "-00", "0+0", "0-0", "++0", "+-0", "-+0", "--0"]
)


@pytest.mark.parametrize("argv", [["lattice"], ["modular", "a"], ["supersolvable"]])
def test_lattice_commands_name_the_loops(capsys, argv):
    # every zero set holds the loop c, so the lattice has no empty flat;
    # the refusal names the loop instead of the missing bottom
    code, out, err = run_with_stderr(capsys, argv, stdin=LOOP_C)
    assert code == 2
    assert out == ""
    assert err == (
        "error: loops c: the lattice of flats needs a system without loops; "
        "remove them with omkit simplify\n"
    )
    code, out, _ = run_with_stderr(capsys, ["simplify"], stdin=LOOP_C)
    assert code == 0
    assert run(capsys, argv, stdin=out)[0] == 0


def doubled_h5() -> str:
    """sec3-arrangement with H5 doubled as a new element Z: a valid system
    whose Salvetti homology matches its Whitney numbers, but not simple."""
    head, body = om_text("sec3-arrangement").split("covectors:\n")
    rows = "".join(f"{row}{row[4]}\n" for row in body.splitlines())
    return head.replace("\n", " Z\n", 1) + "covectors:\n" + rows


@pytest.mark.parametrize(
    "argv, what",
    [
        (["ranks"], "the semidirect rank sequence"),
        (["fiber", "--flat", "H1,H2,H3", "--cell", "(000;+++)"], "the Salvetti localization"),
        (["stratify", "--flat", "H1,H2,H3", "--tope", "+++"], "the Salvetti localization"),
        (
            ["morse", "--construction", "fiber", "--flat", "H1,H2,H3", "--cell", "(+++;+++)", "--tope", "+++"],
            "the Salvetti localization",
        ),
        (["certify-qf", "--flat", "H1,H2,H3"], "the Salvetti localization"),
        (["extend-ss"], "the supersolvable extension"),
    ],
)
def test_commands_that_need_a_simple_system_name_a_parallel_pair(capsys, argv, what):
    # with parallel elements the rank sequence overcounts b1, the fibers
    # are no wedges and the fiber topes no string: refused by name
    text = doubled_h5()
    assert run(capsys, ["check-axioms"], stdin=text)[0] == 0
    assert run(capsys, ["homology"], stdin=text)[0] == 0
    code, out, err = run_with_stderr(capsys, argv, stdin=text)
    assert (code, out) == (2, "")
    assert err == (
        f"error: parallel elements H5,Z: {what} needs a simple system; "
        "remove them with omkit simplify\n"
    )
    _, simple, _ = run_with_stderr(capsys, ["simplify"], stdin=text)
    code, out = run(capsys, argv, stdin=simple)
    assert code == 0
    if argv == ["ranks"]:
        assert "sequence: 2 2 1" in out


def test_ranks_names_the_loops(capsys):
    code, _, err = run_with_stderr(capsys, ["ranks"], stdin=LOOP_C)
    assert (code, err) == (
        2,
        "error: loops c: the semidirect rank sequence needs a simple system; "
        "remove them with omkit simplify\n",
    )


def test_supersolvable_command(capsys):
    code, out = run(capsys, ["supersolvable"], stdin=om_text("sec3-arrangement"))
    assert code == 0
    assert "mchain: {} < H1 < H1,H2,H3" in out
    code, out = run(capsys, ["supersolvable"], stdin=om_text("non-pappus"))
    assert code == 1


def test_topes_and_simplify(capsys):
    code, out = run(capsys, ["topes"], stdin=om_text("rank1"))
    assert code == 0
    assert "topes:" in out and "+" in out
    code, out = run(capsys, ["simplify"], stdin=om_text("rank1"))
    assert code == 0
    assert parse_om_text(out).to_system().ground == ("e1",)
    # e2 parallel to e1, e3 a loop: the representatives in the label format
    text = "ground: e1 e2 e3\ncovectors:\n000\n++0\n--0\n"
    code, out, err = run_with_stderr(capsys, ["simplify"], stdin=text)
    assert code == 0
    assert err == "# loops: e3; representatives: e1->e1,e2->e1\n"
    assert parse_om_text(out).to_system().ground == ("e1",)


def test_shelling_command(capsys):
    text = om_text("uniform-2-3")
    system = corpus("uniform-2-3")
    base = system.covector_poset().names_of(system.topes())[0]
    code, out = run(capsys, ["shelling", "--base", base], stdin=text)
    assert code == 0
    assert "shelling.verified: PASS" in out


def test_shelling_has_no_depth_option(capsys):
    # the shelling conditions are always checked down to dimension 0, so a
    # depth is a usage error, not a shallower check
    for depth in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["shelling", "--base", "+++", "--depth", depth])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --depth {depth}" in capsys.readouterr().err


def test_salvetti_command(capsys):
    code, out = run(capsys, ["salvetti"], stdin=om_text("sec3-arrangement"))
    assert code == 0
    assert "cells: 148" in out
    assert "cells_by_dim: 0:18 1:56 2:56 3:18" in out


def test_localize_fiber_stratify(capsys):
    text = om_text("sec3-arrangement")
    code, out = run(capsys, ["localize", "--flat", "H1,H2,H3"], stdin=text)
    assert code == 0
    loc = parse_om_text(out).to_system()
    assert loc.topes().bit_count() == 6
    bp = loc.covector_poset().names_of(loc.topes())[0]
    code, out = run(
        capsys,
        ["fiber", "--flat", "H1,H2,H3", "--cell", f"(000;{bp})"],
        stdin=text,
    )
    assert code == 0
    assert "betti: 1 2" in out
    code, out = run(
        capsys, ["stratify", "--flat", "H1,H2,H3", "--tope", bp], stdin=text
    )
    assert code == 0
    assert "strata_sizes: 59 13 13" in out
    # notes only: stratify claims nothing, so it prints no verdict
    assert "verdict:" not in out


def test_stratify_runs_the_patchwork_check(capsys, monkeypatch):
    # topes 1 and 2 of the string traded with their separators: the
    # strata and lifts are those the patchwork check reads, so the report
    # is refused, not sized
    from dataclasses import replace

    import omkit.cli

    real = omkit.cli.stratify_fiber

    def reordered(loc, base):
        strat = real(loc, base)
        t, sep = strat.tope_string, strat.separators
        return replace(strat, tope_string=(t[0], t[2], t[1]), separators=(sep[1], sep[0]))

    monkeypatch.setattr(omkit.cli, "stratify_fiber", reordered)
    argv = ["stratify", "--flat", "H1,H2,H3", "--tope", "+++"]
    code, out, err = run_with_stderr(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert (code, out) == (2, "")
    assert err == "error: lift 1 is no isomorphism of its ball onto stratum 1\n"


def test_a_base_starting_with_minus_is_passed_as_one_argument(capsys):
    # argparse reads a separate "-+++++" as an option, so it goes as --base=TEXT
    text = om_text("braid3")
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["shelling", "--base", "-+++++"], stdin=text)
    assert exc.value.code == 2
    assert "argument --base: expected one argument" in capsys.readouterr().err
    code, out = run(capsys, ["shelling", "--base=-+++++"], stdin=text)
    assert code == 0
    assert out.startswith("report: shelling\nbase: -+++++\norder: -+++++ ")
    assert "shelling.verified: PASS" in out


def test_a_tope_list_starting_with_minus_is_passed_as_one_argument(capsys):
    # two adjacent topes, the first starting with -, form a convex set
    argv = ["morse", "--construction", "convex", "--topes=-+++++,++++++"]
    code, out = run(capsys, argv, stdin=om_text("braid3"))
    assert code == 0
    assert "critical.is_subcomplex: PASS" in out


def test_a_report_without_clauses_prints_no_verdict():
    report = Report("notes")
    report.note("size", 3)
    assert report.ok
    assert report.render() == "report: notes\nsize: 3\n"
    report.add("claim", True)
    assert report.render() == "report: notes\nsize: 3\nclaim: PASS\nverdict: PASS\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["localize", "--flat", "H1,H4"],
        ["fiber", "--flat", "H1,H4", "--cell", "(00;++)"],
        ["stratify", "--flat", "H1,H4", "--tope", "++"],
        ["morse", "--construction", "fiber", "--flat", "H1,H4", "--cell", "(++;++)", "--tope", "++"],
        ["modular", "H1,H4"],
        ["certify-qf", "--flat", "H1,H4"],
    ],
)
def test_every_command_names_a_non_flat_by_its_labels(capsys, argv):
    code, _, err = run_with_stderr(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert code == 2
    assert err == "error: H1,H4 is not a flat\n"


def test_morse_commands(capsys):
    text = om_text("uniform-2-3")
    system = corpus("uniform-2-3")
    base = system.covector_poset().names_of(system.topes())[0]
    code, out = run(capsys, ["morse", "--construction", "shelling", "--base", base], stdin=text)
    assert code == 0
    assert "critical.single_vertex: PASS" in out
    topes = system.covector_poset().names_of(system.topes())[:1]
    code, out = run(
        capsys, ["morse", "--construction", "convex", "--topes", ",".join(topes)], stdin=text
    )
    assert code == 0
    text5 = om_text("sec3-arrangement")
    loc = corpus("sec3-arrangement").restriction(0b00111)  # H1, H2, H3
    bp = loc.covector_poset().names_of(loc.topes())[0]
    code, out = run(
        capsys,
        [
            "morse", "--construction", "fiber",
            "--flat", "H1,H2,H3", "--cell", f"({bp};{bp})", "--tope", bp,
        ],
        stdin=text5,
    )
    assert code == 0
    assert "critical.is_fiber: PASS" in out


def test_homology_command(capsys):
    code, out = run(capsys, ["homology"], stdin=om_text("rank1"))
    assert code == 0
    assert "betti: 1 1" in out
    assert "betti.match_whitney: PASS" in out


def test_homology_witness_names_torsion(capsys, monkeypatch):
    # equal Betti and Whitney numbers fail on torsion alone, and the
    # witness says where the torsion is
    import importlib

    from omkit.homology import HomologyResult

    module = importlib.import_module("omkit.homology")
    real = module.homology

    def with_z2(poset):
        res = real(poset)
        return HomologyResult(res.betti, ((), (2,)) + res.torsion[2:])

    monkeypatch.setattr(module, "homology", with_z2)
    code, out = run(capsys, ["homology"], stdin=om_text("uniform-2-3"))
    assert code == 1
    assert out == (
        "report: homology\n"
        "betti: 1 3 2\n"
        "torsion: -; 2; -\n"
        "betti.match_whitney: FAIL witness=betti (1, 3, 2) vs whitney (1, 3, 2); "
        "torsion in dimension 1: 2\n"
        "verdict: FAIL\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--target", "fiber", "--flat", "H1,H2,H3", "--cell", "(000;+++)"],
        ["homology", "--complex-file", "f"],
    ],
    ids=["target", "complex-file"],
)
def test_homology_has_no_target_option(capsys, argv):
    # `fiber` is the one fiber command; facet files are read by no command
    with pytest.raises(SystemExit) as exit_info:
        run(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, flat, cell, witness",
    [
        ("sec3-arrangement", "H2,H4", "(00;++)", "(00;++): (1, 3, 1)"),
        ("non-pappus", "L3,L6", "(00;++)", "(00;++): (1, 7, 12)"),
        ("braid3", "12", "(0;+)", "(0;+): (1, 5, 6)"),
    ],
)
def test_fiber_fails_a_fiber_that_is_no_wedge(capsys, name, flat, cell, witness):
    # off a modular coatom the fiber need not be a wedge of |E - X| circles
    code, out = run(capsys, ["fiber", "--flat", flat, "--cell", cell], stdin=om_text(name))
    assert code == 1
    assert out.endswith(f"\nfibers.homology: FAIL witness={witness}\nverdict: FAIL\n")


def test_input_flag_reads_files(capsys, tmp_path):
    path = tmp_path / "in.om"
    path.write_text(om_text("rank1"))
    code, out = run(capsys, ["check-axioms", "--input", str(path)])
    assert code == 0
    assert "verdict: PASS" in out


def test_extend_levi_generic_flag(capsys):
    code, out = run(
        capsys,
        ["extend-levi", "--flats", "H2,H4", "H3,H5", "--generic"],
        stdin=om_text("sec3-arrangement"),
    )
    assert code == 0
    ext = parse_om_text(out).to_system()
    assert ext.check_axioms().ok


def test_certify_qf_command(capsys):
    code, out = run(
        capsys,
        ["certify-qf", "--flat", "H1,H2,H3", "--exhaustive"],
        stdin=om_text("sec3-arrangement"),
    )
    assert code == 0
    assert "\nmode: exhaustive\npairs: 120\nfiber_rank: 2\n" in out
    assert "verdict: PASS" in out
    # every pair is the default, which --exhaustive names
    assert run(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement")) == (code, out)
    code, out = run(
        capsys,
        ["certify-qf", "--flat", "H1,H2,H3", "--sample", "24"],
        stdin=om_text("sec3-arrangement"),
    )
    assert code == 0
    assert "\nmode: sampled\npairs: 24\n" in out


def test_certify_qf_names_the_witness_of_a_non_modular_flat(capsys):
    argv = ["certify-qf", "--flat", "H2,H4"]
    code, out, err = run_with_stderr(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert (code, out) == (2, "")
    assert err == "error: flat must be modular; witness Z=H3 Y=H3,H5\n"


def test_certify_qf_reports_the_failures_the_certificate_names(capsys, monkeypatch):
    # one pair and every fiber made to fail: the report's FAIL clauses and
    # witnesses are the certificate's own failed_pairs, failed_fibers and
    # failed_graph_ranks
    from dataclasses import replace

    import omkit.cli
    from omkit.homology import quasi_fibration_certify
    from omkit.morse import MorseCertificate

    def broken(*args, **kwargs):
        cert = quasi_fibration_certify(*args, **kwargs)
        bad = replace(cert.pairs[1], lower_matching=MorseCertificate(None, "extra ['x'], missing []"))
        return replace(cert, expected_rank=3, pairs=(cert.pairs[0], bad, *cert.pairs[2:]))

    monkeypatch.setattr(omkit.cli, "quasi_fibration_certify", broken)
    code, out = run(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement"))
    assert code == 1
    cert = broken(corpus("sec3-arrangement"), 0b111)
    assert not cert.ok
    assert cert.failed_pairs == (cert.pairs[1],)
    assert cert.failed_fibers == cert.fibers
    names = cert.loc.target.poset.names
    pair, (cell, why) = cert.failed_pairs[0], cert.failed_fibers[0]
    claim = "lower matching: extra ['x'], missing []"
    assert f"pairs.certified: FAIL witness={names[pair.lower]} <= {names[pair.upper]}: {claim}\n" in out
    assert f"fibers.homology: FAIL witness={names[cell]}: {why}\n" in out
    # a minimal fiber fails by its own rank, any other by its linked one's;
    # the broken collapse is onto a graph, which stands on its own rank
    minimal = cert.loc.target.poset.minimal_elements()
    assert minimal >> pair.lower & 1
    for cell, why in cert.failed_fibers:
        if minimal >> cell & 1:
            assert why == "graph rank 2"
        else:
            assert why.startswith("linked minimal fiber (") and why.endswith("): graph rank 2")
    # the minimal fibers have rank 2, not the expected_rank 3 patched in
    assert cert.failed_graph_ranks == cert.graph_ranks
    cell, rank = cert.failed_graph_ranks[0]
    assert f"fibers.graph_rank: FAIL witness={names[cell]}: 2\nverdict: FAIL\n" in out
    assert rank == 2


def test_fiber_fails_a_fiber_with_higher_homology(capsys, monkeypatch):
    # a fiber with b2 != 0 is no wedge of circles, whatever its b0 and b1
    import omkit.cli
    from omkit.homology import HomologyResult, homology

    def patched(poset):
        res = homology(poset)
        return HomologyResult(res.betti[:2] + (7,) + res.betti[3:], res.torsion)

    monkeypatch.setattr(omkit.cli, "homology", patched)
    argv = ["fiber", "--flat", "H1,H2,H3", "--cell", "(+++;+++)"]
    code, out = run(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert code == 1
    assert "\nbetti: 1 2 7\n" in out
    assert out.endswith("\nfibers.homology: FAIL witness=(+++;+++): (1, 2, 7)\nverdict: FAIL\n")


def drop_first_pair(build):
    """`build`, with the first pair of each nonempty matching it returns
    dropped: two more cells are critical than the claim allows."""
    from omkit.morse import Matching

    def dropped(*args):
        m = build(*args)
        return Matching(m.host, frozenset(sorted(m.pairs)[1:])) if m.pairs else m

    return dropped


def drop_link_pairs(build):
    """`local_matchings`, with the first pair dropped from each local
    matching of a minimal cell, whose fiber a link collapses onto; no
    other cell has the minimal cell's face, a tope."""
    dropped = drop_first_pair(lambda m: m)

    def link(loc, cell):
        matchings = build(loc, cell)
        minimal = loc.target.poset.minimal_elements() >> cell & 1
        return tuple(map(dropped, matchings)) if minimal else matchings

    return link


def extra_edge(graph_rank):
    """`graph_rank`, reading each chain complex with one more edge, cell
    -1, parallel to its first."""
    from dataclasses import replace

    def rank(rec):
        vertices, edges = rec.bases
        cols = rec.boundaries[1]
        bases, boundaries = (vertices, edges + (-1,)), (rec.boundaries[0], {**cols, -1: cols[edges[0]]})
        return graph_rank(replace(rec, bases=bases, boundaries=boundaries))

    return rank


def test_certify_qf_fails_a_pair_whose_matching_misses_its_fiber(capsys, monkeypatch):
    # a failed matching claim fails the pair, exit 1, not a bad-input exit 2;
    # a pair dropped from each local matching leaves its two cells critical
    # in every stratum it is lifted to
    import omkit.morse

    monkeypatch.setattr(omkit.morse, "matching_convex_critical", drop_first_pair(omkit.morse.matching_convex_critical))
    code, out = run(capsys, ["certify-qf", "--flat", "12,13,23"], stdin=om_text("braid3"))
    assert code == 1
    # the witness names the failed claims, each matching with its certificate's witness
    witness = out.split("\npairs.certified: FAIL witness=")[1].split("\n")[0]
    pair, claims = witness.split(": ", 1)
    assert pair.startswith("(") and " <= (" in pair
    lower, upper = claims.split("; ")
    assert lower.startswith("lower matching: extra [") and lower.endswith(", missing []")
    assert upper.startswith("upper matching: extra [") and upper.endswith(", missing []")
    # and leaves the fibers of the pairs unproven: each names its collapse
    homology = out.split("\nfibers.homology: FAIL witness=")[1].split("\n")[0]
    cell, why = homology.split(": ", 1)
    assert why.startswith("collapse from (") and "): extra [" in why and why.endswith(", missing []")
    assert out.endswith("\nfibers.graph_rank: PASS\nverdict: FAIL\n")


def test_certify_qf_fails_the_fibers_of_a_failed_link(capsys, monkeypatch):
    # a link matching that misses its minimal fiber leaves the fibers it
    # links unproven; the minimal fibers stand on their own graphs
    import omkit.morse

    monkeypatch.setattr(omkit.morse, "local_matchings", drop_link_pairs(omkit.morse.local_matchings))
    code, out = run(capsys, ["certify-qf", "--flat", "H1,H2,H3", "--sample", "2"], stdin=om_text("sec3-arrangement"))
    assert code == 1
    witness = out.split("\nfibers.homology: FAIL witness=")[1].split("\n")[0]
    cell, why = witness.split(": ", 1)
    assert why.startswith("link (") and "): extra [" in why and why.endswith(", missing []")
    assert out.endswith("\nfibers.graph_rank: PASS\nverdict: FAIL\n")


def test_certify_qf_refuses_an_ambient_fiber_that_is_not_regular(capsys, monkeypatch):
    # the collapses read homotopy types only off a regular complex: a
    # source whose cells lose a connected facet graph is refused, exit 2;
    # the fault is planted in the dual covector poset, where the check
    # reads it, and the Salvetti cells over +-0-0 take it up as covers
    import importlib

    from test_salvetti import upper_covers_patched

    module = importlib.import_module("omkit.homology")
    real = module.salvetti_localization

    def planted(system, flat):
        # the tope +-+++ is not above +-0-0, but its restriction is, so
        # the localization stays order preserving
        names = system.covector_poset().names
        g, tope = names.index("+-0-0"), names.index("+-+++")
        upper_covers_patched(monkeypatch, system, lambda y, ups: tuple(sorted(ups + (tope,))) if y == g else ups)
        return real(system, flat)

    monkeypatch.setattr(module, "salvetti_localization", planted)
    code, out, err = run_with_stderr(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement"))
    assert code == 2
    assert out == ""
    assert err == "error: cell '+-0-0': its facet graph is disconnected\n"


def test_certify_qf_names_every_failed_claim_of_a_pair(capsys, monkeypatch):
    # a cyclic lower matching and a matching whose critical cells miss the
    # fiber are each named; the cycle by source cells
    from dataclasses import replace

    import omkit.cli
    from omkit.homology import quasi_fibration_certify
    from omkit.morse import MorseCertificate

    def broken(*args, **kwargs):
        cert = quasi_fibration_certify(*args, **kwargs)
        bad = replace(
            cert.pairs[0],
            lower_matching=MorseCertificate((0, 1, 0), None),
            upper_matching=MorseCertificate(None, "extra ['x'], missing []"),
        )
        return replace(cert, pairs=(bad, *cert.pairs[1:]))

    monkeypatch.setattr(omkit.cli, "quasi_fibration_certify", broken)
    code, out = run(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement"))
    assert code == 1
    cert = broken(corpus("sec3-arrangement"), 0b111)
    pair = cert.failed_pairs[0]
    names, cells = cert.loc.target.poset.names, cert.loc.source.poset.names
    claims = f"lower matching: cycle {[cells[0], cells[1], cells[0]]}; upper matching: extra ['x'], missing []"
    assert f"\npairs.certified: FAIL witness={names[pair.lower]} <= {names[pair.upper]}: {claims}\n" in out


def test_morse_fiber_fails_a_matching_that_misses_the_fiber(capsys, monkeypatch):
    # a pair dropped from each local matching leaves its two cells
    # critical in every stratum it is lifted to
    import omkit.morse

    monkeypatch.setattr(omkit.morse, "matching_convex_critical", drop_first_pair(omkit.morse.matching_convex_critical))
    argv = ["morse", "--construction", "fiber", "--flat", "12,13,23", "--cell", "(+++;+++)", "--tope=+++"]
    code, out = run(capsys, argv, stdin=om_text("braid3"))
    assert code == 1
    assert "\ncritical: 18\nmatching.acyclic: PASS\ncritical.is_fiber: FAIL witness=extra [" in out
    assert out.endswith(", missing []\nverdict: FAIL\n")


@pytest.mark.parametrize("name, flat", [("sec3-arrangement", "H1,H2,H3"), ("braid3", "12,13,23")])
def test_morse_fiber_reports_the_patchwork_certificate(capsys, monkeypatch, name, flat):
    # the fiber construction walks only the two dual balls its local
    # matchings live on, never the glued matching, and on every cell below
    # the first ambient its clauses are the glued walk's, with the local
    # matchings as built, with a pair dropped and made cyclic
    import omkit.morse
    from omkit.morse import Matching, matching_salvetti_fiber, morse_reduction_certificate
    from omkit.posets import bits, mask_of
    from omkit.salvetti import salvetti_localization, stratify_fiber

    walked = []
    real_walk, real_convex = Matching.cycle, omkit.morse.matching_convex_critical
    monkeypatch.setattr(Matching, "cycle", lambda self: walked.append(self.host.names) or real_walk(self))
    variants = [
        real_convex,
        drop_first_pair(real_convex),
        lambda system, q: cyclic_ball_matching(system, q) if system.rank() == 2 else real_convex(system, q),
    ]
    failed = 0
    for convex in variants:
        monkeypatch.setattr(omkit.morse, "matching_convex_critical", convex)
        # the oracle's own system per variant: the local matchings are
        # kept on it, so a shared one would keep the first variant's
        system = corpus(name)
        loc = salvetti_localization(system, system.label_mask(flat.split(",")))
        amb = bits(loc.target.poset.maximal_elements())[0]
        base = loc.target.keys[amb][1]
        strat = stratify_fiber(loc, base)
        balls = {system.names(), loc.localized.names()}
        for cell in bits(loc.target.poset.below(amb)):
            walked.clear()
            argv = ["morse", "--construction", "fiber", "--flat", flat, "--cell", loc.target.poset.names[cell]]
            code, out = run(capsys, [*argv, "--tope", loc.localized.names()[base]], stdin=om_text(name))
            assert walked and set(walked) <= balls
            cert = morse_reduction_certificate(matching_salvetti_fiber(strat, cell), mask_of(loc.fiber(cell)))
            cycle = cert.cycle and str([loc.source.poset.names[x] for x in cert.cycle])
            clauses = {"matching.acyclic": cycle, "critical.is_fiber": cert.critical}
            want = [f"{key}: PASS" if why is None else f"{key}: FAIL witness={why}" for key, why in clauses.items()]
            assert [line for line in out.splitlines() if line.split(":")[0] in clauses] == want
            assert code == (0 if cert.ok else 1)
            failed += not cert.ok
    assert failed


def cyclic_ball_matching(system, q):
    """On the dual ball of a rank-two system, each tope matched with the
    next cocircuit round the circle: the matched cells form a cycle."""
    from omkit.morse import Matching
    from omkit.posets import bits

    poset = system.covector_poset()
    topes, rays = system.topes(), system.cocircuits()
    start = t = bits(topes)[0]
    r = bits(poset.below(t) & rays)[0]
    pairs = []
    while True:
        pairs.append((t, r))
        t = bits(poset.dual().below(r) & topes & ~(1 << t))[0]
        if t == start:
            return Matching(poset.dual(), frozenset(pairs))
        r = bits(poset.below(t) & rays & ~(1 << r))[0]


def test_morse_convex_fails_a_cyclic_matching(capsys, monkeypatch):
    import omkit.cli

    monkeypatch.setattr(omkit.cli, "matching_convex_critical", cyclic_ball_matching)
    argv = ["morse", "--construction", "convex", "--topes", "+++"]
    code, out = run(capsys, argv, stdin=om_text("uniform-2-3"))
    assert code == 1
    # six topes and six cocircuits round the hexagon, back to the first tope
    witness = out.split("matching.acyclic: FAIL witness=")[1].split("\n")[0]
    assert ast.literal_eval(witness) == [
        "+++", "+0+", "+-+", "+-0", "+--", "0--", "---", "-0-", "-+-", "-+0", "-++", "0++", "+++"
    ]
    assert "\ncritical.is_subcomplex: FAIL witness=extra [" in out
    assert out.endswith("verdict: FAIL\n")


def test_certify_qf_fails_a_minimal_fiber_that_is_no_graph(capsys, monkeypatch):
    # a minimal fiber with one more vertex, on no edge, has two
    # components: its graph rank clause fails, exit 1
    import importlib
    from dataclasses import replace

    from omkit.homology import quasi_fibration_certify
    from omkit.posets import bits

    module = importlib.import_module("omkit.homology")
    real = module.graph_rank

    def rank(rec):
        # cell -1 is the extra vertex
        return real(replace(rec, bases=(rec.bases[0] + (-1,), rec.bases[1])))

    monkeypatch.setattr(module, "graph_rank", rank)
    code, out = run(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement"))
    assert code == 1
    cert = quasi_fibration_certify(corpus("sec3-arrangement"), 0b111)
    minimal = cert.loc.target.poset.minimal_elements()
    assert cert.failed_graph_ranks == tuple((m, "graph has 2 components") for m in bits(minimal))
    name = cert.loc.target.poset.names[cert.failed_graph_ranks[0][0]]
    assert out.endswith(f"\nfibers.graph_rank: FAIL witness={name}: graph has 2 components\nverdict: FAIL\n")


def test_certify_qf_fails_a_minimal_fiber_with_an_extra_edge(capsys, monkeypatch):
    import importlib

    module = importlib.import_module("omkit.homology")
    monkeypatch.setattr(module, "graph_rank", extra_edge(module.graph_rank))
    code, out = run(capsys, ["certify-qf", "--flat", "H1,H2,H3"], stdin=om_text("sec3-arrangement"))
    assert code == 1
    assert "\nfibers.graph_rank: FAIL witness=(" in out and out.endswith("): 3\nverdict: FAIL\n")
    # the fibers linked to those graphs fail with them
    assert "\nfibers.homology: FAIL witness=(" in out


def test_certify_qf_refuses_an_empty_sample(capsys, monkeypatch):
    # a sample of no pairs would report PASS having checked nothing
    for sample in ("0", "-3"):
        monkeypatch.setattr("sys.stdin", io.StringIO(om_text("sec3-arrangement")))
        assert main(["certify-qf", "--flat", "H1,H2,H3", "--sample", sample]) == 2
        captured = capsys.readouterr()
        assert "verdict:" not in captured.out
        assert captured.err == "error: sample must be at least 1\n"


def test_certify_qf_a_sample_of_every_pair_is_exhaustive(capsys):
    # sec3 at H1,H2,H3 has 120 comparable pairs
    for sample, mode in (("120", "exhaustive"), ("119", "sampled")):
        argv = ["certify-qf", "--flat", "H1,H2,H3", "--sample", sample]
        code, out = run(capsys, argv, stdin=om_text("sec3-arrangement"))
        assert code == 0
        assert f"\nmode: {mode}\npairs: {sample}\n" in out


def test_certify_qf_refuses_a_sample_with_exhaustive(capsys):
    for sample in ("3", "24"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, ["certify-qf", "--flat", "H1,H2,H3", "--sample", sample, "--exhaustive"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --exhaustive: not allowed with argument --sample\n")


def test_tope_arguments_name_what_is_wrong(capsys, monkeypatch):
    convex = ["morse", "--construction", "convex", "--topes"]
    cases = [
        (convex + ["+++,zz"], "'zz' is not a covector: sign string 'zz' has length 2, ground set has 3"),
        (convex + ["+++,+q+"], "'+q+' is not a covector: invalid sign character 'q'"),
        (convex + ["+++,+0-"], "'+0-' is not a covector"),
        (convex + ["+++,+0+"], "'+0+' is a covector but not a tope"),
        (convex + ["+++,---"], "Q must be convex"),
        (["shelling", "--base", "0++"], "'0++' is a covector but not a tope"),
        (["shelling", "--base", "0+-"], "'0+-' is not a covector"),
        (["morse", "--construction", "shelling", "--base", "000"], "'000' is a covector but not a tope"),
        (convex[:-1] + ["--topes=--"], "'--' is not a covector: sign string '--' has length 2, ground set has 3"),
    ]
    for argv, message in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(om_text("uniform-2-3")))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_the_sign_text_of_two_minuses_is_read_as_an_option_value(capsys):
    # argparse strips "--" from "--tope=--", and the rank-2 tope -- of
    # boolean3 localized at e1,e2 is named all the same
    code, out = run(capsys, ["stratify", "--flat", "e1,e2", "--tope=--"], stdin=om_text("boolean3"))
    assert code == 0 and "\nbase: --\n" in out
    argv = ["morse", "--construction", "fiber", "--flat", "e1,e2", "--cell", "(--;--)", "--tope=--"]
    code, out = run(capsys, argv, stdin=om_text("boolean3"))
    assert code == 0 and out.endswith("verdict: PASS\n")
    _, loc = run(capsys, ["localize", "--flat", "e1,e2"], stdin=om_text("boolean3"))
    code, out = run(capsys, ["shelling", "--base=--"], stdin=loc)
    assert code == 0 and "\nbase: --\norder: -- " in out and out.endswith("verdict: PASS\n")
    code, out = run(capsys, ["morse", "--construction", "convex", "--topes=--"], stdin=loc)
    assert code == 0 and out.endswith("verdict: PASS\n")


def test_ranks_command(capsys):
    code, out = run(capsys, ["ranks"], stdin=om_text("sec3-arrangement"))
    assert code == 0
    assert "sequence: 2 2 1" in out


def test_ranks_of_the_rank_0_system(capsys):
    # the localization at the empty flat has no modular flat but the
    # bottom, so its sequence is empty and sums to b1 = 0
    _, out = run(capsys, ["localize", "--flat", "{}"], stdin=om_text("rank1"))
    code, out = run(capsys, ["ranks"], stdin=out)
    assert code == 0
    assert "sequence: \n" in out and "sum: 0\n" in out and "PASS" in out


def test_from_arrangement_command(capsys, tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 0\n0 1\n1 1\n")
    code, out = run(capsys, ["from-arrangement", str(matrix)])
    assert code == 0
    system = parse_om_text(out).to_system()
    assert system.topes().bit_count() == 6
    matrix.write_text("1 0\n1/0 1\n")
    code, out, err = run_with_stderr(capsys, ["from-arrangement", str(matrix)])
    assert code == 2
    assert out == ""
    assert "error: zero denominator in '1/0'" in err
    # A5, the 15 forms x_i - x_j on R^6, has 4683 covectors
    rows = (" ".join(str((k == i) - (k == j)) for k in range(6)) for i, j in combinations(range(6), 2))
    matrix.write_text("\n".join(rows) + "\n")
    code, out = run(capsys, ["from-arrangement", str(matrix)])
    assert code == 0
    assert len(parse_om_text(out).covectors) == 4683


def test_extend_levi_command(capsys):
    code, out = run(
        capsys,
        ["extend-levi", "--flats", "H2,H4", "H3,H5"],
        stdin=om_text("sec3-arrangement"),
    )
    assert code == 0
    ext = parse_om_text(out).to_system()
    assert len(ext.ground) == 6


def test_extend_ss_command(capsys, tmp_path):
    out_path = tmp_path / "ext.om"
    code, out = run(
        capsys, ["extend-ss", "--out", str(out_path)], stdin=om_text("non-pappus")
    )
    assert code == 0
    assert "disjoint.strictly_decreasing: PASS" in out
    assert "restriction.identity: PASS" in out
    assert "supersolvable: PASS" in out
    saved = parse_om_text(out_path.read_text()).to_system()
    assert len(saved.ground) > 9


def test_extend_ss_builds_one_lattice_per_system(capsys, monkeypatch):
    # the systems are the input and one extension per step; the lattice
    # of each is built once and reused, the command's own check included
    from collections import Counter

    from omkit.lattices import GeometricLattice

    built = Counter()
    real = GeometricLattice.__init__

    def counting(self, ground, flats):
        flats = frozenset(flats)
        built[ground, flats] += 1
        real(self, ground, flats)

    monkeypatch.setattr(GeometricLattice, "__init__", counting)
    code, out = run(capsys, ["extend-ss"], stdin=om_text("non-pappus"))
    assert code == 0
    assert "steps: 5\n" in out
    assert sum(built.values()) == 6
    assert set(built.values()) == {1}


def test_unknown_corpus_name(capsys):
    code, out = run(capsys, ["corpus", "rank1"])
    assert code == 0
    import sys

    with pytest.raises(SystemExit):
        main(["corpus", "no-such-thing"])


def test_error_reporting(capsys):
    code, _ = run(capsys, ["modular", "H1,H9"], stdin=om_text("sec3-arrangement"))
    assert code == 2


def test_a_second_ground_line_is_refused(capsys):
    # it used to relabel the system: modular Q1,Q2,Q3 printed PASS
    text = om_text("sec3-arrangement") + "ground: Q1 Q2 Q3 Q4 Q5\n"
    for argv in (["modular", "Q1,Q2,Q3"], ["modular", "H1,H2,H3"], ["check-axioms"]):
        code, out, err = run_with_stderr(capsys, argv, stdin=text)
        assert (code, out) == (2, ""), argv
        assert err == "error: second ground line 'ground: Q1 Q2 Q3 Q4 Q5'\n", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["check-axioms", "--input", "{missing}/system.om"],
        ["check-axioms", "--input", "{tmp}"],
        ["from-arrangement", "{missing}/forms.txt"],
        ["extend-ss", "--out", "{missing}/ext.om"],
    ],
    ids=["missing-input", "directory-input", "from-arrangement", "extend-ss-out"],
)
def test_a_file_that_cannot_be_read_or_written_exits_2(capsys, tmp_path, argv):
    # exit 1 is a FAIL clause; a missing or unreadable file is bad input
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    code, out, err = run_with_stderr(capsys, argv, stdin=om_text("sec3-arrangement"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_morse_fiber_names_an_unknown_cell(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(om_text("sec3-arrangement")))
    code = main([
        "morse", "--construction", "fiber", "--flat", "H1,H2,H3",
        "--cell", "(+00;+++)", "--tope", "+++",
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: unknown cell '(+00;+++)' of the localized poset\n"
    )


def test_morse_shelling_refuses_a_ball_without_topes(capsys, monkeypatch):
    # one tope: the ball left of the last shelled cell is empty
    monkeypatch.setattr("sys.stdin", io.StringIO("ground: a\ncovectors:\n0\n"))
    assert main(["morse", "--construction", "shelling", "--base", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the ball has no tope to collapse\n"


def test_shelling_refuses_the_empty_sphere(capsys, monkeypatch):
    # rank 0: the zero vector is the one tope, and the sphere has no cell
    monkeypatch.setattr("sys.stdin", io.StringIO("ground: a\ncovectors:\n0\n"))
    assert main(["shelling", "--base", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the covector sphere is empty: a rank-0 system has nothing to shell\n"
    )


def test_cell_and_tope_arguments_name_what_is_wrong(capsys, monkeypatch):
    flat = ["--flat", "H1,H2,H3"]
    morse_fiber = ["morse", "--construction", "fiber", *flat]
    bad_cells = [
        ("(000+++)", "malformed cell id '(000+++)'"),
        ("(000;+++;+++)", "malformed cell id '(000;+++;+++)'"),
        ("(00;+++)", "sign string '00' has length 2, ground set has 3"),
        ("(000;+q+)", "invalid sign character 'q'"),
        ("(+00;+++)", "unknown cell '(+00;+++)' of the localized poset"),
        (" +00;+++ ", "unknown cell '(+00;+++)' of the localized poset"),
    ]
    bad_topes = [
        ("zz", "'zz' is not a covector: sign string 'zz' has length 2, ground set has 3"),
        ("+q+", "'+q+' is not a covector: invalid sign character 'q'"),
        ("00+", "'00+' is not a covector"),
        ("0--", "0-- is not a tope of the localization"),
    ]
    cases = [
        (morse_fiber + ["--cell", "(0--;---)", "--tope", "+++"],
         "(0--;---) does not lie below (000;+++)"),
    ]
    for cell, message in bad_cells:
        cases += [
            (["fiber", *flat, "--cell", cell], message),
            (morse_fiber + ["--cell", cell, "--tope", "+++"], message),
        ]
    for tope, message in bad_topes:
        cases += [
            (["stratify", *flat, "--tope", tope], message),
            (morse_fiber + ["--cell", "(+++;+++)", "--tope", tope], message),
        ]
    for argv, message in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(om_text("sec3-arrangement")))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


def test_broken_invariant_exits_3(capsys, monkeypatch):
    import omkit.cli

    def broken(args):
        raise AssertionError("boundary square nonzero in dimension 2")

    monkeypatch.setattr(omkit.cli, "cmd_lattice", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(om_text("rank1")))
    assert main(["lattice"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: boundary square nonzero in dimension 2\n"


def test_salvetti_commands_refuse_a_composition_outside_the_system(capsys, monkeypatch):
    # ROADMAP 4(b): the opposite of ++0 is missing, so ++0 o --- = ++- is
    # not a covector; both commands used to report on such input
    text = "ground: a b c\ncovectors:\n000\n+++\n---\n++0\n"
    for command in ("salvetti", "homology"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: composition ++0 o --- = ++- is not a covector\n"
        )


def test_shelling_commands_refuse_a_facet_with_no_tope_across(capsys, monkeypatch):
    # the tope across the facet ++0 of +++ is ++0 o --- = ++-, which is
    # missing; the three commands that walk the tope poset used to stop on
    # a bare "error: -1"
    text = "ground: a b c\ncovectors:\n000\n+++\n---\n++0\n"
    for argv in (
        ["shelling", "--base", "+++"],
        ["morse", "--construction", "shelling", "--base", "+++"],
        ["morse", "--construction", "convex", "--topes", "+++"],
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: no tope lies across the facet ++0 of the tope +++\n", argv


def test_salvetti_commands_refuse_the_first_composition_of_the_direct_loop(capsys, monkeypatch):
    # +0-, -0- and 0+- compose with +++ to no covector; the message names
    # 0+-, the first of them over the faces of +++ in order (see
    # tests/test_salvetti.py), not the lowest-numbered +0-
    body = "000 +++ ++0 +-+ +-- +-0 +0+ +0- -++ --+ --- -0+ -0- -00 0++ 0+- 0+0 0-+ 0-- 0-0 00+"
    text = "ground: a b c\ncovectors:\n" + "\n".join(body.split()) + "\n"
    for command in ("salvetti", "homology"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: composition 0+- o +++ = ++- is not a covector\n"


def subcommands(parser) -> list[str]:
    import argparse

    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_each_command_runs_the_cmd_function_of_its_name():
    import inspect

    import omkit.cli as cli

    assert cli.build_parser() is cli.build_parser()
    handlers = {"cmd_" + name.replace("-", "_") for name in subcommands(cli.build_parser())}
    for handler in handlers:
        assert callable(getattr(cli, handler, None)), handler
    defined = {
        name for name, _ in inspect.getmembers(cli, inspect.isfunction) if name.startswith("cmd_")
    }
    assert defined == handlers


def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    import omkit.cli as cli

    system = corpus("uniform-2-3")
    topes = system.covector_poset().names_of(system.topes())[:1]
    pairs = [
        (
            "sec3-arrangement",
            ["certify-qf", "--flat", "H1,H2,H3", "--sample", "3"],
            ["certify-qf", "--flat", "H1,H2,H3"],
        ),
        (
            "uniform-2-3",
            ["morse", "--construction", "convex", "--topes", ",".join(topes)],
            ["morse", "--construction", "fiber"],
        ),
    ]
    seconds = []
    for name, first, second in pairs:
        assert run(capsys, first, stdin=om_text(name))[0] == 0
        seconds.append(run_with_stderr(capsys, second, stdin=om_text(name)))
    (code, out, _), (morse_code, morse_out, morse_err) = seconds
    assert code == 0
    assert "mode: exhaustive\n" in out and "pairs: 120\n" in out
    assert (morse_code, morse_out) == (2, "")
    assert morse_err == "error: missing arguments: --flat, --cell, --tope\n"

    # the same commands through a parser built for the one call
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for (name, _, second), shared in zip(pairs, seconds):
        assert run_with_stderr(capsys, second, stdin=om_text(name)) == shared


def test_usage_errors_after_a_run_go_to_the_current_stderr(capsys, monkeypatch):
    assert run(capsys, ["topes"], stdin=om_text("rank1"))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: omkit ")
    assert "invalid choice: 'no-such-command'" in captured.err

    stream = io.StringIO()
    monkeypatch.setattr("sys.stderr", stream)
    with pytest.raises(SystemExit) as exc:
        main(["morse", "--construction", "nope"])
    assert exc.value.code == 2
    assert stream.getvalue().startswith("usage: omkit morse ")
    assert "invalid choice: 'nope'" in stream.getvalue()
    assert capsys.readouterr() == ("", "")
