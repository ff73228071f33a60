import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from crbplan.cli import _PRESETS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs_as_written():
    # the quick tour's only Python block, executed verbatim; its comments
    # claim the plan, the simulated variance and the audit checked below
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    tour = {}
    exec(compile(block, str(README), "exec"), tour)
    result, report, audit = tour["result"], tour["report"], tour["audit"]
    assert (result.policy.p_y, result.policy.p_xy) == (0.5, 0.5)
    assert result.objective_value == pytest.approx(6 / 7, rel=1e-12)
    assert report.empirical_variance_per_slot == pytest.approx(6 / 7, rel=0.05)
    assert audit.passed
    # one replication of 1000 slots: delta1's standard error is sqrt(6/7/1000)
    assert tour["counts"].sum() == 1000
    assert tour["usable"]
    assert abs(tour["estimate"]) <= 5 * math.sqrt(6 / 7 / 1000)
    assert tour["info"][0, 0] == pytest.approx(7 / 6, rel=1e-12)
    assert tour["info"].ravel()[1:].tolist() == [0.0, 0.0, 0.0]
    assert tour["oracle"][0, 0] == pytest.approx(7 / 6, rel=0.02)
    assert abs(tour["oracle"][0, 0] - 7 / 6) <= 4 * tour["stderr"][0, 0]


def test_readme_sweep_reads_column_names_each_preset_flag():
    # a preset reads the flags its defaults give, and refuses the others
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(fig\w+)` *\| [^|]* \| ([^|]*) \|", text, re.M)
    reads = {fig: set(cell.strip("`").split(",")) - {"none"} for fig, cell in rows}
    assert reads == {fig: set(preset.defaults) for fig, preset in _PRESETS.items()}


def test_readme_simulate_example_prints_as_shown():
    # the simulate section's command, without its optional --out, prints
    # the text block that follows it, byte for byte
    text = README.read_text(encoding="utf-8")
    command, shown = re.search(
        r"### simulate\n\n```sh\n(.*?)```\n\nprints[^\n]*\n\n```text\n(.*?)```", text, re.S
    ).groups()
    argv = command.replace("\\\n", " ").replace("[--out report.csv]", "").split()
    assert argv[0] == "crbplan"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == 0
    assert out.getvalue() == shown
