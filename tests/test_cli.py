"""End-to-end checks of the command line front door.

Everything goes through cli.main(argv) so exit codes and stdout/stderr
are exercised exactly as a shell user would see them.
"""

import gc
import math

import pytest

from phonotax import cli, score, train
from phonotax.cli import SCORE_COLUMNS, main
from phonotax.errors import PhonotaxError
from phonotax.phonology import packaged_inventory
from phonotax.plot import SVG_OPEN
from phonotax.train import load_model, save_model, train_model

from conftest import INVENTORY_TEXT, TOY_LEXICON

STIMULI = (
    "w1\tk æ1 t\n"
    "w2\ts æ1 t\n"
    "w3\td ʌ1 l\n"
    "w4\tʃ ɔɪ1 ʃ\n"
)


@pytest.fixture()
def model_path(tmp_path):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    out = tmp_path / "trained"
    assert main(["train", str(lex), "--out", str(out)]) == 0
    return out / "model.tsv"


def test_train_report(tmp_path, capsys):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    rc = main(["train", str(lex), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "lexicon entries: retained 7, skipped 0, downgraded 0" in captured.out
    assert "trained entries: 7" in captured.out
    assert "per-cell totals:" in captured.out
    assert captured.err == ""
    model = load_model((tmp_path / "out" / "model.tsv").read_text("utf-8"))
    assert model.total > 0


def test_train_is_deterministic(tmp_path):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    assert main(["train", str(lex), "--out", str(tmp_path / "a")]) == 0
    assert main(["train", str(lex), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "model.tsv").read_bytes()
    b = (tmp_path / "b" / "model.tsv").read_bytes()
    assert a == b


def test_missing_file_is_an_io_error(tmp_path, capsys):
    rc = main(["train", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_empty_lexicon_is_a_domain_error(tmp_path, capsys):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text("# nothing here\n", encoding="utf-8")
    rc = main(["train", str(lex), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "score"])
def test_non_utf8_input_is_a_domain_error(command, model_path, tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("w1\tk æ1 t\n".encode("latin-1"))
    if command == "train":
        argv = ["train", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["score", str(model_path), str(bad)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad}: not valid UTF-8")


# per file kind: the files a command reads, the one given a byte-order
# mark, and the command; each file opens as editors' files do, on a
# comment, a header or a first record the mark would spoil
_BOM_CASES = {
    "inventory": ({"inventory.tsv": INVENTORY_TEXT, "lexicon.tsv": TOY_LEXICON + "pat\tp æ1 t\n"},
                  "inventory.tsv", ["train", "lexicon.tsv", "--inventory", "inventory.tsv", "--out", "out"]),
    "lexicon": ({"lexicon.tsv": "# toy lexicon\n" + TOY_LEXICON},
                "lexicon.tsv", ["train", "lexicon.tsv", "--out", "out"]),
    "stimuli": ({"model.tsv": None, "stimuli.tsv": "# stimuli\n" + STIMULI},
                "stimuli.tsv", ["score", "model.tsv", "stimuli.tsv", "--out", "out"]),
    "judgments": ({"model.tsv": None, "stimuli.tsv": STIMULI,
                   "judgments.csv": "word_id,votes_against\nw1,0\nw2,3\nw3,8\nw4,12\n"},
                  "judgments.csv", ["evaluate", "model.tsv", "stimuli.tsv", "judgments.csv", "--out", "out"]),
    "model": ({"model.tsv": None, "stimuli.tsv": STIMULI}, "model.tsv", ["score", "model.tsv", "stimuli.tsv"]),
    "dictionary": ({"text710.dat": "cat 'k&t K\ncandle 'k&ndl K\n"},
                   "text710.dat", ["import-mitton", "text710.dat", "--out", "out"]),
}


def _run_case(kind, work, capsys, edit=lambda text: text):
    """Run a ``_BOM_CASES`` command in ``work``, its marked file edited: exit code, stdout, stderr, files out."""
    files, marked, argv = _BOM_CASES[kind]
    work.mkdir()
    for name, text in files.items():
        text = save_model(train_model(TOY_LEXICON, packaged_inventory()).model) if text is None else text
        (work / name).write_text(edit(text) if name == marked else text, encoding="utf-8")
    rc = main([str(work / arg) if arg in files or arg == "out" else arg for arg in argv])
    out, err = (text.replace(str(work), "WORK") for text in capsys.readouterr())
    return rc, out, err, {path.name: path.read_bytes() for path in sorted((work / "out").glob("*"))}


@pytest.mark.parametrize("kind", _BOM_CASES)
def test_a_byte_order_mark_leaves_a_file_s_reading_unchanged(kind, tmp_path, capsys):
    plain = _run_case(kind, tmp_path / "plain", capsys)
    marked = _run_case(kind, tmp_path / "marked", capsys, lambda text: "\ufeff" + text)
    assert (tmp_path / "marked" / _BOM_CASES[kind][1]).read_bytes().startswith(b"\xef\xbb\xbf")
    assert plain[0] == 0 and marked == plain


# per line-oriented file kind: a line of the file _BOM_CASES marks, and that
# line with one gap between two fields turned into {gap}
_GAPS = {
    "inventory": ("p\tC\n", "p{gap}C\n"),
    "lexicon": ("cat\tk æ1 t\n", "cat\tk{gap}æ1 t\n"),
    "stimuli": ("w1\tk æ1 t\n", "w1\tk{gap}æ1 t\n"),
    "dictionary": ("cat 'k&t K\n", "cat{gap}'k&t K\n"),
}


@pytest.mark.parametrize("kind", _GAPS)
def test_a_line_ends_only_at_a_line_end(kind, tmp_path, capsys):
    # str.splitlines also cuts at these; inside a line each is whitespace, as a tab or a space is
    files, marked, _ = _BOM_CASES[kind]
    line, gapped = _GAPS[kind]
    assert line in files[marked]
    plain = _run_case(kind, tmp_path / "plain", capsys)
    assert plain[0] == 0
    for i, gap in enumerate("\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        separated = _run_case(kind, tmp_path / str(i), capsys,
                              lambda text, new=gapped.format(gap=gap): text.replace(line, new, 1))
        assert separated == plain, repr(gap)


def test_bad_epsilon_rejected(tmp_path, capsys):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    rc = main(["train", str(lex), "--out", str(tmp_path / "out"), "--epsilon", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_epsilon_below_floor_rejected(tmp_path, capsys):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["train", str(lex), "--out", str(out), "--epsilon", "1e-200"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "model.tsv").exists()


def test_epsilon_floor_keeps_every_score_finite(tmp_path, capsys):
    # the toy lexicon has no iambs: all four cells of an iamb are empty
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    assert main(["train", str(lex), "--out", str(tmp_path / "m"), "--epsilon", "1e-75"]) == 0
    stim = tmp_path / "stimuli.tsv"
    stim.write_text("w1\tə0 k æ1 t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["score", str(tmp_path / "m" / "model.tsv"), str(stim)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert float(row[1]) == pytest.approx(1e-300, rel=1e-9)
    assert float(row[2]) == pytest.approx(4 * math.log(1e-75), rel=1e-12)
    assert row[6] == ""


# w2-w4 each have a winner tied with one or two other parses on product;
# the rows are those a plain sort on (-product, path_text) gives
TIED_STIMULI = "w1\tk æ1 n ə1\nw2\tɔɪ1 n d ə1 l\nw3\tk æ0 n d ɪ1 l\nw4\tk æ1 t ə0 l\n"
TIED_ROWS = [
    "w1\t0.010416666666666666\t-4.564348191467836\t0.08333333333333333\t0.5\t"
    "U : W : Ssif : Osif : k ; U : W : Ssif : Rsif : æ ; "
    "U : W : Ssif : Osif : n ; U : W : Ssif : Rsif : ə\t",
    "w2\t0.001736111111111111\t-6.3561076606958915\t0.08333333333333333\t0.5\t"
    "U : W : Ssif : Osif : ∅ ; U : W : Ssif : Rsif : ɔɪ ; "
    "U : W : Ssif : Osif : n d ; U : W : Ssif : Rsif : ə l\t",
    "w3\t1.0000000000000003e-36\t-82.89306334778564\t1e-09\t1e-09\t"
    "U : W : Swi : Owi : k ; U : W : Swi : Rwi : æ ; "
    "U : W : Ssf : Osf : n d ; U : W : Ssf : Rsf : ɪ l\t",
    "w4\t0.01171875\t-4.446565155811453\t0.25\t0.75\t"
    "U : W : Ssi : Osi : k ; U : W : Ssi : Rsi : æ ; "
    "U : W : Swf : Owf : t ; U : W : Swf : Rwf : ə l\t",
]


def test_score_rows_with_tied_winners_are_pinned(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(TIED_STIMULI, encoding="utf-8")
    assert main(["score", str(model_path), str(stim)]) == 0
    assert capsys.readouterr().out == "\n".join(["\t".join(SCORE_COLUMNS), *TIED_ROWS]) + "\n"


def test_score_stdout_and_file(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI + "badrow\n", encoding="utf-8")
    rc = main(["score", str(model_path), str(stim), "--out", str(tmp_path / "scored")])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "\t".join(SCORE_COLUMNS)
    assert len(lines) == 6
    cells = lines[1].split("\t")
    assert cells[0] == "w1"
    assert 0 < float(cells[1]) < 1
    assert cells[6] == ""
    bad = lines[5].split("\t")
    assert bad[0] == "badrow"
    assert bad[1] == ""
    assert "EmptyTranscription" in bad[6]
    on_disk = (tmp_path / "scored" / "scores.tsv").read_text("utf-8")
    assert on_disk == captured.out


# (command, the functions its work calls through module globals, in call
# order); the score cases keep the ids they had before evaluate and train
# joined them. Training's functions after the first are its serial tail,
# which runs once the chunks are in.
_COLLECTED = [pytest.param(command, module, names, collecting,
                           id=str(collecting) if command == "score" else f"{command}-{collecting}")
              for command, module, names in (
                  ("score", score, ("score_batch",)), ("evaluate", score, ("score_batch",)),
                  ("train", train, ("_train_chunk", "split_medial", "tabulate", "good_turing")))
              for collecting in (True, False)]


@pytest.mark.parametrize("command, module, names, collecting", _COLLECTED)
def test_score_pauses_the_collector_and_restores_it(model_path, tmp_path, capsys, monkeypatch,
                                                    command, module, names, collecting):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(TOY_LEXICON, encoding="utf-8")
    argv = {"score": ["score", str(model_path), str(stim)],
            "evaluate": ["evaluate", str(model_path), str(stim), "--seed", "5"],
            "train": ["train", str(lex), "--out", str(tmp_path / "out")]}[command]
    during = []

    def recording(real):
        def record(*args):
            during.append(gc.isenabled())
            return real(*args)
        return record

    def failing(*args):
        during.append(gc.isenabled())
        raise PhonotaxError(f"{command} failed")

    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for name in names:
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        assert main(argv) == 0
        assert gc.isenabled() is collecting
        monkeypatch.setattr(module, names[-1], failing)  # the last call of the run fails
        assert main(argv) == 2
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert during == [False] * 2 * len(names)
    assert f"error: {command} failed" in capsys.readouterr().err


def test_score_empty_stimuli(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text("# only comments\n", encoding="utf-8")
    rc = main(["score", str(model_path), str(stim)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "\t".join(SCORE_COLUMNS) + "\n"
    assert "holds no rows" in captured.err


def test_inventory_digest_warning(model_path, tmp_path, capsys):
    inv = tmp_path / "inventory.tsv"
    inv.write_text(INVENTORY_TEXT, encoding="utf-8")
    stim = tmp_path / "stimuli.tsv"
    stim.write_text("w1\tk æ1 t\n", encoding="utf-8")
    rc = main(["score", str(model_path), str(stim), "--inventory", str(inv)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "inventory digest differs" in captured.err


def test_evaluate_synthetic(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    out = tmp_path / "eval"
    rc = main(["evaluate", str(model_path), str(stim), "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "judgments: synthetic (seed 5, 4 records)" in captured.out
    assert "n = 4, df = 2" in captured.out
    for method in ("p(word)", "ln p(word)", "p(worst part)", "p(best part)"):
        assert method in captured.out
    assert captured.out.count(" r = ") == 4
    csv_text = (out / "scatter.csv").read_text("utf-8")
    assert csv_text.startswith("word_id,ln_p,votes\n")
    assert len(csv_text.splitlines()) == 5
    svg_text = (out / "scatter.svg").read_text("utf-8")
    assert svg_text.startswith(SVG_OPEN)
    assert svg_text.rstrip().endswith("</svg>")


def test_evaluate_synthetic_is_deterministic(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    assert main(["evaluate", str(model_path), str(stim), "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["evaluate", str(model_path), str(stim), "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_evaluate_with_judgment_file(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    judge = tmp_path / "judgments.csv"
    judge.write_text(
        "word_id,votes_against\nw1,0\nw2,3\nw3,8\nw4,12\n", encoding="utf-8"
    )
    rc = main(["evaluate", str(model_path), str(stim), str(judge)])
    captured = capsys.readouterr()
    assert rc == 0
    assert f"judgments: {judge} (4 records)" in captured.out
    assert "n = 4, df = 2" in captured.out


def test_evaluate_overlong_judgment_field_is_a_domain_error(model_path, tmp_path, capsys):
    # past csv's field size limit: an error line and exit 2, not a traceback
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    judge = tmp_path / "judgments.csv"
    judge.write_text("word_id,votes_against\nw1,0\nw2," + "9" * 131_073 + "\n", encoding="utf-8")
    rc = main(["evaluate", str(model_path), str(stim), str(judge)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_evaluate_reports_a_flat_score_column_as_undefined(model_path, tmp_path, capsys):
    # under the toy model all four words' worst path has p = 1/12
    stim = tmp_path / "stimuli.tsv"
    stim.write_text("w1\tk æ1 t\nw2\td ʌ1 l\nw3\tk ʌ1 l\nw4\td æ1 t\n", encoding="utf-8")
    judge = tmp_path / "judgments.csv"
    judge.write_text("word_id,votes_against\nw1,1\nw2,8\nw3,9\nw4,2\n", encoding="utf-8")
    rc = main(["evaluate", str(model_path), str(stim), str(judge)])
    captured = capsys.readouterr()
    assert rc == 0
    rows = captured.out.splitlines()[2:6]
    assert rows[2] == "3) p(worst part)   r = undefined (zero variance)"
    for row, method in zip([rows[0], rows[1], rows[3]], ("p(word)", "ln p(word)", "p(best part)")):
        assert method in row and " r = " in row and " p = " in row


def test_evaluate_disjoint_ids(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI, encoding="utf-8")
    judge = tmp_path / "judgments.csv"
    judge.write_text("word_id,votes_against\nq1,0\nq2,3\n", encoding="utf-8")
    rc = main(["evaluate", str(model_path), str(stim), str(judge)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_excludes_failed_stimuli(model_path, tmp_path, capsys):
    stim = tmp_path / "stimuli.tsv"
    stim.write_text(STIMULI + "w5\tə0 v ə0\n", encoding="utf-8")
    rc = main(["evaluate", str(model_path), str(stim), "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "1 stimuli failed to score" in captured.err
    assert "w5: UnsupportedStressPattern" in captured.err
    assert "n = 4" in captured.out


def test_tables_layout(model_path, capsys):
    rc = main(["tables", str(model_path), "--top", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert "Onsets" in lines
    assert "Rhymes" in lines
    header = lines[lines.index("Onsets") + 1]
    assert header.split() == ["Osi", "Osf", "Osif", "Owi", "Owf", "Owif"]
    # --top 2 caps each block at header + 2 terminal rows
    block = lines[lines.index("Onsets") + 1 : lines.index("")]
    assert len(block) <= 3


def test_tables_top_below_one_is_a_domain_error(model_path, capsys):
    rc = main(["tables", str(model_path), "--top", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --top must be at least 1\n"


def test_import_mitton(tmp_path, capsys):
    src = tmp_path / "text710.dat"
    src.write_text("cat 'k&t K\nxyz\ncandle 'k&ndl K\n", encoding="utf-8")
    out = tmp_path / "imported"
    rc = main(["import-mitton", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "converted entries: 2" in captured.out
    assert "skipped: 1 (short-line 1)" in captured.out
    assert "note: syllabic-consonant-schwa on 1 entries" in captured.out
    text = (out / "lexicon.tsv").read_text("utf-8")
    assert text == "cat\tk æ1 t\ncandle\tk æ1 n d ə0 l\n"


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
