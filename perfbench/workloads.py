"""Workloads of the qgenocchi benchmark and the golden outputs they must match.

Each workload is one fixed `qgenocchi` command line.  Every timed and traced
run compares the child's exit code, report byte count and report sha256 with
the golden values below; any difference counts the run as failed.

The digests lock the reports of qgenocchi 0.1.0 byte for byte, known quirks
included:

- `verify` emits no `genocchi_relations` records, although that identity is
  listed in `cli.HARD_IDENTITIES`.
- A deliberate change to report bytes is planned: marking the vacuous
  0 = 0 passes of the q-convention closed forms in record `details`.

A change that alters report bytes on purpose updates these digests itself,
as a benchmark change of its own, and says why.

The grids are small enough that one measuring run holds a dozen or more
cold reports: single reports on a shared 2-CPU host spread by about
+-10%, so a run's median needs many of them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Golden:
    exit_code: int
    size: int
    sha256: str


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    golden: Golden


WORKLOADS = {
    w.name: w
    for w in (
        # The identity grid under both conventions: RatFunc canonicalization
        # (RatFunc.__add__ -> poly.gcd, Poly.__divmod__), the engine and the
        # shift-law record.  Exact checks by evaluation would show here.
        Workload(
            "verify-4x4",
            ("verify", "--nmax", "4", "--kmax", "4"),
            Golden(0, 48199, "70d15b9b909ac46ad5a99c36c6c52160a34e88c2ccd4312d6780600bb3efaca9"),
        ),
        # q_power_sum limits: Poly.__mul__ of large, mostly trivial-denominator
        # polynomials, little gcd.  An integer-coefficient Poly kernel shows here.
        Workload(
            "limits-7x10",
            ("limits", "--nmax", "7", "--kmax", "10"),
            Golden(0, 25514, "c8dd9c38c7b57455e2c90f8bfa3f6d190f2ca66f01f18a970f7d91a2522d4286"),
        ),
        # Series.recip and the classical tables on plain Fractions, no Poly at
        # all: the bypass workload, which a poly/ratfunc change must not move.
        Workload(
            "numbers-200",
            ("numbers", "--nmax", "200"),
            Golden(0, 201556, "190b65277e2cf1016eaa8236089cf2714622ad3c1347eb1876e08c3cf1f826d2"),
        ),
    )
}

# `python -m qgenocchi --version`: the set-up probe (interpreter start, import
# of all nine modules, argparse tree).
SETUP_ARGV = ("--version",)
SETUP_GOLDEN = Golden(0, 6, "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67")

# `perfbench/reference.py`: the host-speed reference, B_140 by Akiyama-Tanigawa.
REFERENCE_GOLDEN = Golden(0, 145, "fa13da5df12c1a1d5219bc0af3d2779fc6a72abe4b00677df9e6e0589672c9a5")
