"""The command line as argparse reads it: the oracle `cli._parse` is tested
against.  This is the parser `cli` used before it read its command line
itself, kept here because only the tests need it."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

from qgenocchi import CONVENTIONS, Convention, __version__
from qgenocchi.cli import NUMBERS_MAX_N, RunConfig, _q_value


def conventions(text: str) -> tuple[Convention, ...]:
    return CONVENTIONS if text == "all" else (Convention.parse(text),)


# Each flag once, as its `add_argument` keywords.
FLAGS = {
    "--nmax": dict(dest="n_max", type=int),
    "--kmax": dict(dest="k_max", type=int),
    "--q": dict(dest="q_eval", type=_q_value),
    "--convention": dict(dest="conventions", type=conventions),
    "--format": dict(dest="format", choices=("csv", "json")),
    "--out": dict(dest="out_path"),
}
# The grid flags each subcommand's builder reads; each also takes --format
# and --out, and refuses the other grid flags.
GRID_FLAGS = {
    "numbers": ("--nmax",),
    "qtable": ("--nmax", "--kmax", "--q"),
    "verify": ("--nmax", "--kmax", "--convention"),
    "limits": ("--nmax", "--kmax"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgenocchi")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, grid in GRID_FLAGS.items():
        p = sub.add_parser(name)
        p.set_defaults(**RunConfig._field_defaults)
        for flag in (*grid, "--format", "--out"):
            p.add_argument(flag, **FLAGS[flag])
    return parser


def argparse_config(argv: list[str]) -> tuple[int, RunConfig | None]:
    """argparse's exit code for `argv` and, on a report line, its RunConfig:
    (0, None) for --help and --version, (2, None) for a refusal."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cfg = RunConfig(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return exc.code, None
    # `--flag=--` arrives as [] where argparse strips the `--` (CPython
    # 3.11) and as "--" where it keeps it: a flag without a value.
    if any(value in ([], "--") for value in cfg):
        return 2, None
    if cfg.n_max < 1 or cfg.k_max < 1 or (cfg.command == "numbers" and cfg.n_max > NUMBERS_MAX_N):
        return 2, None
    return 0, cfg


def argparse_words(argv: list[str]) -> list[str]:
    """The line argparse reads as `cli._parse` reads `argv`.  Two readings of
    argparse's are left out of `_parse` (README, "Command line"):

    - `-h` with characters attached and no space, as in `-hh`: argparse read
      them as more short flags or as a value of `-h`.  `_parse` reads the
      word as a flag it does not know, as argparse reads `-rh`.
    - `--flag=--`: argparse refused it only at the end of the line, so a
      later `-h` still printed help.  `_parse` refuses it where it stands, as
      argparse refuses `--flag` followed by another flag.
    """
    words = []
    for word in argv:
        name, _, text = word.partition("=")
        if name[:2] == "-h" and len(name) > 2 and " " not in word:
            words.append("-r" + word[2:])
        elif text == "--" and name[:2] == "--" and len(name) > 2 and " " not in name and not any(
            option.startswith(name) for option in ("--help", "--version")
        ):
            words += [name, "-x"]
        else:
            words.append(word)
    return words
