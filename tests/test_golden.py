"""Golden outputs: the sha256 of CLI stdout for the figure presets, the
README examples and one small seeded simulation.

The digests were recorded before the cost table and the CRB evaluator were
unified, so any refactor that changes a byte of these outputs fails here.
A deliberate output change must update the digest and say so in CHANGES.md:
``simulate_t3`` was re-recorded when the audit began to take its standard
errors from the policy, which moved only its ``stderr=`` values, and again
when replications began to share one stream per block of
``REPLICATION_BLOCK``, which moved every simulated value.
``simulate_two_blocks`` spans the first block boundary.
"""

import contextlib
import hashlib
import io

import pytest

from crbplan.cli import main

GOLDEN = {
    "sweep_fig1a": "6cb1ce55cbcbadf8f170ae0e9416ea54ac1452da645bb4b60ba6e3419894ee50",
    "sweep_fig1b": "264a70a202cd20f7dd95330917316cd86b0a6fb9e6a666333e516a0f7e856cfa",
    "sweep_fig1c": "1e4c46cff39640aececf1ad171dd2bced3ee8f9365663fb3e2b492362cd8a1f2",
    "sweep_fig2a": "06d2d45092d36467a1ea8d671bad65588c5a7eb7150e940b60808164d4736c43",
    "sweep_fig2b": "9716874ab1ff6794c50cf18817a43db0135cf607547ed17b35a1e8e6b982e1e7",
    "sweep_fig2c": "184457e530792c8372057a07bec2e3d091b5f964ef52ebfb057cca77e0dd0f6b",
    "sweep_fig3": "b89476f4f22f157edf83ca2f88550f2a844cd6fcefcf93c5b30a395b5d6964f5",
    "sweep_fig4a": "84e070d76fa2b239365e0ba946141e46212081337a4167e187862963fb90e4c3",
    "sweep_fig4b": "a184425545b4402159a3dbbf61168a1f1e5e486a95537826aabe592848c85fe4",
    "sweep_fig4c": "f694c4641792bdbdc68cbdffdee747226985f3c3557123e802da4c9d2718ba6d",
    "readme_plan": "be05975de042607a19b9040e4ebafbe9f1abe092238e197c087cc39e0d2ad69e",
    "readme_bounds": "04d30e676061676837637570c7c95d6be8ddddebc1b944066d20b6dc271febd7",
    "simulate_t3": "30eabc3eea7cffb8549265d7d9ead826787dbcfb5bd7366fb890b3bd1711aa46",
    "simulate_two_blocks": "e10a0424c11aa06302b39e28e5a11982dd21b8996b2f5f6cf2e171d2de689dc2",
}

COMMANDS = {
    **{
        f"sweep_{fig}": ["sweep", "--figure", fig]
        for fig in (
            "fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
            "fig2c", "fig3", "fig4a", "fig4b", "fig4c",
        )
    },
    "readme_plan": (
        "plan --task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5"
    ).split(),
    "readme_bounds": (
        "bounds --task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5 "
        "--sweep p_y --start 0 --stop 1 --step 0.01"
    ).split(),
    # decentralized t3 at alpha = 0.1, where each sensor's joint-slot cost
    # 1 + 2 alpha rounds differently from (1 + alpha) + alpha
    "simulate_t3": (
        "simulate --task t3 --setting decentralized --alpha 0.1 --e1 0.6 "
        "--rho 0.9 --target mu-x --slots 100 --reps 50 --seed 13"
    ).split(),
    # 1100 replications: all of block 0 and the start of block 1
    "simulate_two_blocks": (
        "simulate --task t1 --setting decentralized --alpha 2 --e1 2 "
        "--rho 0.5 --slots 10 --reps 1100 --seed 13"
    ).split(),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[name])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
