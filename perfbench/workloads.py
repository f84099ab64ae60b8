"""The benchmark's workloads: fixed lists of `ziclab` command lines.

Each command is one operation.  A command may name a known fault: the
oracle checks that it fails today (by name), so that the run still counts
as correct while the fault stands and the operation counts as failed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Command(NamedTuple):
    argv: tuple[str, ...]
    # fault id and the oracle checks it is known to fail; None when the
    # command must pass every check
    known_fault: Optional[tuple[str, tuple[str, ...]]] = None


def _cmd(line: str, known_fault=None) -> Command:
    return Command(tuple(line.split()), known_fault)


CLI_STARTUP = (
    _cmd("phase-diagram --u 0.5,1,2 --L 1.1:4:0.1 --format csv"),
    _cmd("condition54-root --u 1"),
    _cmd("verify-lemma1"),
    _cmd("verify-lemma2 --t-min 1e-3 --t-max 1e-2"),
    _cmd("verify-vertical --u 1 --L 1.4"),
    Command(("hessian", "--u", "1", "--L", "3", "--A", "1:1.0", "--B", "")),
    _cmd("theorem5-epsilon --u 1 --L 3,4"),
    _cmd("constant-power-gap --u 1 --N1 1 --N2 0.05"),
    _cmd("geometry --t 10:200:10"),
    _cmd("limit-functional --L 1.2,1.6,2.0"),
)

COMPUTE = (
    # F1: the 4x window of envelope_for misses the support point (5.965, 0)
    # of cell (1, 4), so the report says f1 = g1 where a split gains 1.9e-4
    _cmd(
        "hk-region --u 1 --N1 1 --q1 1:10:3 --q2 1:10:3",
        ("F1", ("no_randomization_beats_f1(q1=1,q2=4)",)),
    ),
    # F2: the 1e-5 screen on the 129^2 lattice counts record 11 applicable,
    # where a split gains 3.5e-6 (the first 12 draws of the README-sized
    # 50-sample stream, so record 11 is the same cell)
    _cmd(
        "lemma5-audit --u 2 --N1 0.5 --samples 12 --seed 2",
        ("F2", ("no_randomization_beats_f1_record_11(J=2.06669,L=0.59676)",)),
    ),
    # the only path to fixed_power_value_2d: the first 4 draws of the README audit
    _cmd("theorem4-audit --d 2 --samples 4"),
    # three (u, N1) sets with four 2-D queries each, plus the q2 = 0 column
    _cmd("conjecture2-map --u 0.6:3:1.2 --q 0,2,7 --N1 0.5"),
    # gaussmix and grid entropy on 2^20 points, derivative orders up to 63
    _cmd("verify-lemma1 --t-count 20 --n 1048576"),
    _cmd("verify-vertical --u 2 --L 3 --J 8 --n 524288"),
    _cmd("limit-functional --L 1.1:1.9:0.4 --J 20 --n 262144"),
)

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "cli-startup": CLI_STARTUP,
    "compute": COMPUTE,
}

# reports that must not depend on ZIC_THREADS (both sweep through parallel_map)
THREAD_CHECKED = ("hk-region", "geometry")
