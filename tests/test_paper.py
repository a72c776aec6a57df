"""The source paper's claims as a checked ledger.

Each test quotes one claim of the abstract in PAPER.md and pins the
artifact line that shows it on ``g2.cfg``, plus one negative check: a
changed input under which that line no longer holds.  README's ledger
table says, per claim, whether the workbench derives it, asserts it or
takes it as input.  The claim that H^*(BG_k; F_2) is an unstable module
over the Steenrod algebra in low degrees is not shown yet.
"""

import contextlib
import csv
import io
from pathlib import Path

from sseqlab.cli import main

G2_TEXT = (Path(__file__).resolve().parents[1] / "g2.cfg").read_text()


def run(tmp_path, argv, text=G2_TEXT):
    """(exit code, stdout, stderr) of one in-process command on a config text."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), *argv])
    return code, out.getvalue(), err.getvalue()


def artifact(stdout, name):
    """The lines of one streamed artifact."""
    body = stdout.split(f"# ==== {name} ====\n")[1]
    return body.split("# ==== ")[0].splitlines()


def edited(old, new):
    assert G2_TEXT.count(old) == 1
    return G2_TEXT.replace(old, new)


def test_the_fibre_cohomology_vanishes_in_degrees_one_to_four_and_not_in_five(tmp_path):
    """Claim: "H^j(Omega^3_0 G_2; F_2) = 0 for 1 <= j <= 4, H^5(Omega^3_0 G_2; F_2) != 0."

    Derived by ``uct`` from the homotopy table, except that the Hurewicz
    steps in degrees 4 and 5 are asserted, as the ``homology`` rows say.
    """
    code, out, _err = run(tmp_path, ["uct"])
    rows = [",".join(row[:3]) for row in csv.reader(artifact(out, "uct.csv"))]
    assert code == 0
    assert [row for row in rows if row.startswith("cohomology_dim,")] == [
        "cohomology_dim,0,1",
        *(f"cohomology_dim,{j},0" for j in range(1, 5)),
        "cohomology_dim,5,>=1",
    ]
    # with no 2-torsion in pi_8(G_2) no degree-5 class is derived, and the config gate refuses
    assert run(tmp_path, ["uct"], edited("\n8 = contains Z/2", "\n8 = 0")) == (
        1, "", "error: unknown eps: unknown fibre generator 'u_5'\n"
    )


def test_the_only_differential_on_u5_in_total_degree_ten_is_d6(tmp_path):
    """Claim: "u_5 ... whose only possible Serre differential in total degree <= 10 is a
    d_6-differential d_6(u_5) = eps(k) x_6."

    Derived by ``constraints`` from bidegree arithmetic alone: its two
    admissible rows are d_6 on u_5 and on x_4 u_5, the Leibniz image of d_6(u_5).
    """
    code, out, _err = run(tmp_path, ["constraints"])
    admissible = [line for line in artifact(out, "constraints.csv") if ",admissible," in line]
    assert code == 0
    assert admissible == ["6,0,5,6,0,admissible,", "6,4,5,10,0,admissible,"]
    # one degree wider, x_6 u_5 in total degree 11 supports a third arrow
    wider = edited("degree_bound = 10", "degree_bound = 11")
    _code, out, _err = run(tmp_path, ["constraints"], wider)
    assert [line for line in artifact(out, "constraints.csv") if ",admissible," in line] == [
        *admissible, "6,6,5,12,0,admissible,"
    ]


def test_eps_depends_only_on_k_mod_four_and_vanishes_on_multiples_of_four(tmp_path):
    """Claim: "2-locally ... eps(k) is 4-periodic in k (i.e. it depends only on k mod 4)
    and eps(k) = 0 for all k = 0 (mod 4)."

    Input, not derived: both facts are the ``[epsilon]`` section of g2.cfg
    (modulus 4, class 0 known to be 0), which ``gauge`` applies.
    """
    code, out, _err = run(tmp_path, ["gauge", "--k", "4"])
    assert code == 0 and "scalar proved: eps = 0" in artifact(out, "gauge_log.txt")

    def without_k(k):
        _code, out, _err = run(tmp_path, ["gauge", "--k", str(k)])
        dims, log = artifact(out, "gauge_dims.csv"), artifact(out, "gauge_log.txt")
        assert log[0] == f"bundle class k = {k}"
        assert all(row.startswith(f"{k},") for row in dims[1:])
        return dims[0], [row.split(",", 1)[1] for row in dims[1:]], log[1:]

    for k in range(-4, 4):
        assert without_k(k) == without_k(k + 4)
    # without the known value the class of k = 4 is open, and both branches run
    text = edited("class = 0 : 0", "class = 0")
    _code, out, _err = run(tmp_path, ["gauge", "--k", "4"], text)
    assert "scalar not proved for this class" in artifact(out, "gauge_log.txt")
    assert len(artifact(out, "gauge_dims.csv")) == 3
